"""Reference helpers that only tests call: canonical aligned states on a
cycle, the alignment check on a placement and its matching-based reference,
the centrality test, an ear decomposition grown from a matching, the
orientation of one parity diamond, and a host whose only parity labeling
has crossing arcs. No planner uses them, so they live with the tests.
"""

from typing import Dict, Iterable, Sequence, Tuple

from trigrid.ears import EarDecomposition, EarError, grow_ears, validate_decomposition
from trigrid.grid import Edge, TriGridGraph, cycle_edges, edge_key
from trigrid.hamilton import (HamiltonCycle, HamiltonError, ParityDiamond, _best,
                              _parity_labelings)
from trigrid.matching import Matching, odd_alternating_cycle_through, perfect_matching
from trigrid.placement import Board, Placement, PlacementError


# the 9-vertex host whose Hamilton cycle (1, 7, 5, 6, 3, 2, 4, 8, 9) has one
# parity labeling, a=2, b=4, c=5, d=7, and its p1 (7, 5, 6, 3, 2) passes c
CROSSING_ARCS_EDGES = [(1, 3), (1, 5), (1, 7), (1, 8), (1, 9), (2, 3), (2, 4), (2, 5),
                       (2, 7), (3, 6), (3, 7), (3, 9), (4, 5), (4, 8), (5, 6), (5, 7),
                       (7, 9), (8, 9)]


def is_aligned(p: Placement, cycle: Sequence[int]) -> bool:
    """True iff cycle is an odd M_p-alternating cycle containing v_p."""
    return Board(p).is_aligned(cycle)


def is_alternating_cycle(m: Matching, cycle: Sequence[int]) -> bool:
    """Check cycle edges alternate in m with the exposed vertex as sole defect."""
    k = len(cycle)
    if k % 2 == 0:
        return False
    flags = [edge_key(cycle[i], cycle[(i + 1) % k]) in m.edges for i in range(k)]
    defects = sum(1 for i in range(k) if flags[i] == flags[i - 1] and not flags[i])
    return flags.count(True) == k // 2 and defects == 1


def is_central(g: TriGridGraph, sub: Iterable[int]) -> bool:
    """True iff removing `sub` leaves a graph with a perfect matching."""
    removed = set(sub)
    rest = [v for v in g.vertex_ids if v not in removed]
    if len(rest) % 2 == 1:
        return False
    return perfect_matching(g, skip=removed) is not None


def aligned_cycle_state(k: int, j: int, h: int) -> Dict[int, Edge]:
    """Landing state of a rotation: label -> edge on the canonical cycle.

    The cycle has vertices 1..2k+1 in anti-clockwise order; the returned map
    places labels 1..k so that vertex j is exposed and the labels are offset
    by h (j and h must agree mod 2). Comparisons use the un-reduced index
    h+2i-1 against j; vertex names reduce into 1..2k+1.
    """
    if (j - h) % 2 != 0:
        raise PlacementError("j and h must have the same parity")
    mod = 2 * k + 1
    # Label offsets repeat with period k; reduce h into the window (j-2k, j]
    # so the un-reduced comparison below leaves exactly vertex j uncovered.
    h = j - 2 * (((j - h) // 2) % k)

    def red(x: int) -> int:
        return (x - 1) % mod + 1

    out = {}
    for i in range(1, k + 1):
        t = h + 2 * i - 1
        if t < j:
            out[i] = edge_key(red(t - 1), red(t))
        else:
            out[i] = edge_key(red(t), red(t + 1))
    return out


def ear_decomposition(g: TriGridGraph, m: Matching) -> EarDecomposition:
    """An odd proper ear decomposition aligned with m.

    The base is an odd alternating cycle through the exposed vertex; further
    ears come from alternating paths, so the placement carrying m stays
    aligned in the ear sense.
    """
    (exposed,) = set(g.vertex_ids) - m.covered
    first = min(g.adj[exposed])
    base = odd_alternating_cycle_through(g, m, exposed, edge_key(exposed, first))
    if base is None:
        raise EarError(f"no odd alternating cycle through ({exposed}, {first})")
    ears = grow_ears(g, m, set(base), cycle_edges(base))
    d = EarDecomposition(tuple(base), tuple(ears))
    validate_decomposition(g, d)
    return d


def select_parity(h: HamiltonCycle,
                  diamond: Tuple[int, int, int, int]) -> ParityDiamond:
    """Orient a qualifying diamond so the two cycle subpaths have the
    required parities; exactly the right orientation exists because the
    cycle has odd length."""
    cands = _parity_labelings(h, diamond)
    if not cands:
        raise HamiltonError("diamond does not meet the parity conditions")
    return _best(cands)
