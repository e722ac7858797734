"""Reference helpers that only tests call: the reference replay of moves
and of a word of kept vertices through the checked `slide`, a spy on a
library function under every name the library holds it by, canonical
aligned states on a cycle, the alignment check on a placement and its matching-based reference,
the restricted slide search over `legal_moves` and `slide` that `rotate`,
the swap gadget and the pentagon core's plans are checked against, the
centrality test, an ear decomposition grown from a matching, the
neighbourhood search that defines local connectivity, the scan over every
diamond labeling that defines the parity diamond, the orientation of one
parity diamond, and a host whose only parity labeling has crossing arcs.
No planner uses them, so they live with the tests.
"""

import sys
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from trigrid.ears import EarDecomposition, EarError, grow_ears, validate_decomposition
from trigrid.grid import Edge, TriGridGraph, cycle_edges, edge_key, enumerate_diamonds
from trigrid.hamilton import HamiltonCycle, HamiltonError, ParityDiamond
from trigrid.matching import Matching, odd_alternating_cycle_through, perfect_matching
from trigrid.placement import (Board, Placement, PlacementError, SlideMove, SlideSequence,
                               VerifyReport, legal_moves, slide, verify_sequence)


# the 9-vertex host whose Hamilton cycle (1, 7, 5, 6, 3, 2, 4, 8, 9) has one
# parity labeling, a=2, b=4, c=5, d=7, and its p1 (7, 5, 6, 3, 2) passes c
CROSSING_ARCS_EDGES = [(1, 3), (1, 5), (1, 7), (1, 8), (1, 9), (2, 3), (2, 4), (2, 5),
                       (2, 7), (3, 6), (3, 7), (3, 9), (4, 5), (4, 8), (5, 6), (5, 7),
                       (7, 9), (8, 9)]


def apply_sequence(p: Placement, moves: Iterable[SlideMove]) -> Placement:
    """The reference replay: `slide` on each move in turn."""
    for mv in moves:
        p = slide(p, mv)
    return p


def label_word(seq: SlideSequence) -> Tuple[SlideMove, ...]:
    """The moves of `seq`'s word: each label and destination read off the
    placement that the checked `slide` has reached. Raises
    IllegalMoveError at a kept vertex that no piece covers or that does
    not neighbour the gap."""
    p, moves = seq.start, []
    for kept in seq.kept:
        mv = SlideMove(p.label_covering(kept) or 0, kept, p.exposed)
        p = slide(p, mv)
        moves.append(mv)
    return tuple(moves)


def verify_word(seq: SlideSequence,
                expected_end: Optional[Placement] = None) -> VerifyReport:
    """`verify_sequence` on the moves `label_word` reads off `seq`, from its
    start, against `expected_end`."""
    return verify_sequence(seq.start, label_word(seq), expected_end)


def spy_everywhere(monkeypatch, fn: Callable) -> List[tuple]:
    """Wrap the library function `fn` under every name a trigrid module
    holds it by, as `from .placement import fn` copies it; returns the
    list that each call's arguments are appended to."""
    calls: List[tuple] = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("trigrid"):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, spy)
    return calls


def is_aligned(p: Placement, cycle: Sequence[int]) -> bool:
    """True iff cycle is an odd M_p-alternating cycle containing v_p."""
    return Board(p).is_aligned(cycle)


def reference_slides_within(p: Placement, edges: Set[Edge],
                            goal: Callable[[Placement], bool]
                            ) -> Optional[Tuple[SlideMove, ...]]:
    """The moves of a shortest slide sequence from p to a state meeting
    `goal` whose pieces and landing edges lie in `edges`, by breadth-first
    search over `legal_moves` and `slide`; None if no such state is
    reachable."""
    if goal(p):
        return ()
    seen = {p.pieces}
    frontier = deque([(p, ())])
    while frontier:
        cur, moves = frontier.popleft()
        for mv in legal_moves(cur):
            if (edge_key(mv.kept_vertex, mv.dest_vertex) not in edges
                    or cur.piece(mv.label) not in edges):
                continue
            nxt = slide(cur, mv)
            if nxt.pieces in seen:
                continue
            seen.add(nxt.pieces)
            if goal(nxt):
                return moves + (mv,)
            frontier.append((nxt, moves + (mv,)))
    return None


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


def neighbourhoods_connected(g: TriGridGraph) -> bool:
    """The definition of local connectivity: a depth-first search over the
    subgraph each vertex's neighbours induce reaches all of them."""
    for v in g.vertex_ids:
        nbrs = set(g.adj[v])
        seen = set()
        stack = list(nbrs)[:1]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(w for w in g.adj[u] if w in nbrs)
        if seen != nbrs:
            return False
    return True


def arc(order: Sequence[int], frm: int, to: int, avoid: int) -> Tuple[int, ...]:
    """The cycle arc from `frm` to `to` not passing through `avoid`: the
    forward arc if it avoids it, else the backward one, both sliced from
    the cycle turned to start at `frm`."""
    i = order.index(frm)
    ring = tuple(order[i:]) + tuple(order[:i])
    j = ring.index(to)
    for path in (ring[:j + 1], ring[:1] + ring[:j - 1:-1]):
        if avoid not in path:
            return path
    raise HamiltonError("both arcs pass through the avoided vertex")


def parity_labelings(h: HamiltonCycle,
                     diamond: Tuple[int, int, int, int]) -> List[ParityDiamond]:
    """All labelings of the diamond satisfying the parity conditions."""
    s1, s2, t1, t2 = diamond
    out = []
    for a, c in ((s1, s2), (s2, s1)):
        for b, d in ((t1, t2), (t2, t1)):
            he = h.edges
            if edge_key(a, b) not in he or edge_key(a, c) in he:
                continue
            p1 = arc(h.order, d, a, avoid=b)
            p2 = arc(h.order, b, c, avoid=a)
            if ((len(p1) - 1) % 2 != 0 or (len(p2) - 1) % 2 != 1
                    or c in p1 or d in p2):            # arcs that cross
                continue
            # (b, c) on the cycle makes p2 that one edge: case ii; else case i
            # needs (c, d) on the cycle
            if len(p2) == 2:
                case = "ii"
            elif edge_key(c, d) in he:
                case = "i"
            else:
                continue
            out.append(ParityDiamond(a, b, c, d, h, case, p1, p2))
    return out


def scan_parity_diamonds(g: TriGridGraph, h: HamiltonCycle) -> List[ParityDiamond]:
    """Every parity diamond on h, labeling by labeling over
    `enumerate_diamonds`."""
    found = []
    for diamond in enumerate_diamonds(g):
        found.extend(parity_labelings(h, diamond))
    return found


def best_parity_diamond(cands: List[ParityDiamond]) -> ParityDiamond:
    """The candidate `find_local_structure` picks: the shortest p1, then the
    shortest p2, then the smallest (a, b, c, d)."""
    return min(cands, key=lambda pd: (len(pd.p1), len(pd.p2), (pd.a, pd.b, pd.c, pd.d)))


def select_parity(h: HamiltonCycle,
                  diamond: Tuple[int, int, int, int]) -> ParityDiamond:
    """Orient a qualifying diamond so the two cycle subpaths have the
    required parities; exactly the right orientation exists because the
    cycle has odd length."""
    cands = parity_labelings(h, diamond)
    if not cands:
        raise HamiltonError("diamond does not meet the parity conditions")
    return best_parity_diamond(cands)
