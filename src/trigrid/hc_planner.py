"""Reconfiguration planner driven by a Hamilton cycle.

Pipeline: align both placements with a spanning cycle, pin the gap at the
diamond corner, bubble-sort the cyclic label order along the cycle using
the parity diamond's adjacent swap, turning the cycle only as far as each
swap needs and never back, rotate once into the target's frame, then undo
the target-side alignment. The sort steps the list of labels on the
cycle's dominoes, not a placement: each turn is arithmetic on it, and a
placement is built only for each swap's gadget. Slide counts grow as
O(n^3).
"""

from typing import List, NamedTuple, Sequence, Tuple

from .grid import Edge, TriGridGraph, edge_key, is_locally_connected, is_star_of_david
from .hamilton import (HamiltonCycle, ParityDiamond, find_hamilton,
                       find_local_structure)
from .placement import (Placement, SlideSequence, align_with_cycle, forced_cycle_dominoes,
                        invert_sequence, replay, rotate, shorter_walk)
from .plans import PlanError, PlanInvariantError, PlanReport, Transpositions, finish_plan


def align_with_hamilton(p: Placement, h: HamiltonCycle) -> SlideSequence:
    """`align_with_cycle` on the Hamilton cycle, every other host edge a
    chord; the benchmark's trace books `hc_planner.align_s` by this name."""
    return align_with_cycle(p, h.order, p.graph.edges - h.edges)


# ---------------------------------------------------------------------------
# adjacent swaps at the diamond

class TurningFrame(NamedTuple):
    """The sort's frame with the gap at c, the same at every swap of a
    plan: the host, the cycle listed from c (`ring`), its forced dominoes
    listed from c, the indices of the two swap dominoes (`i_ab` on (a, b),
    `i_v` its neighbour along p1) and `lo`, the lower of the two in cycle
    order. With the gap at c, every piece lies on one of the dominoes, so
    the list of labels on them, domino by domino, fixes the placement."""

    pd: ParityDiamond
    graph: TriGridGraph
    ring: Tuple[int, ...]
    dominoes: Tuple[Edge, ...]
    i_ab: int
    i_v: int
    lo: int

    def placement(self, order: Sequence[int]) -> Placement:
        """The placement with label order[i] on domino i and the gap at c."""
        pieces = list(self.dominoes)
        for e, label in zip(self.dominoes, order):
            pieces[label - 1] = e
        return Placement(self.graph, tuple(pieces), self.pd.c)


def turning_frame(g: TriGridGraph, pd: ParityDiamond) -> TurningFrame:
    cycle = pd.cycle.order
    at_c = cycle.index(pd.c)
    ring = cycle[at_c:] + cycle[:at_c]
    dominoes = tuple(forced_cycle_dominoes(ring, pd.c))
    i_ab = dominoes.index(edge_key(pd.a, pd.b))
    v1 = pd.p1[-2]
    i_v = next(i for i, e in enumerate(dominoes) if v1 in e)
    k = len(dominoes)
    assert (i_v - i_ab) % k in (1, k - 1), "swap dominoes not adjacent"
    lo = i_ab if (i_v - i_ab) % k == 1 else i_v
    return TurningFrame(pd, g, ring, dominoes, i_ab, i_v, lo)


def turn_to_swap(order: List[int], j: int,
                 frame: TurningFrame) -> Tuple[Tuple[int, ...], List[int]]:
    """The turn along the cycle, the gap at c before and after, that brings
    order[j] onto the lower swap domino: its word and the label order it
    ends at. `order` lists the labels on the frame's dominoes.

    A turn that returns the gap to c is a whole number of laps of the
    ring, and each lap forwards turns the list left by one, as n = 1 mod
    k. So the turn is m = (j - lo) mod k laps, n*m slides forwards or
    n*(k - m) backwards, whichever `shorter_walk` picks, and ends at the
    list turned left by m: the word and end `rotate` gives for the same
    placement and goals, with no placement built.
    """
    k = len(order)
    m = (j - frame.lo) % k
    if not m:
        return (), list(order)
    _, kept = shorter_walk(frame.ring, order, (len(frame.ring) * m,))
    return kept, order[m:] + order[:m]


def _swap_special(cur: Placement, frame: TurningFrame, memo: Transpositions) -> SlideSequence:
    """Exchange the labels on the two swap dominoes; gap stays at c.

    One construction for every diamond: slide the (a, b) piece onto
    (b, c), rotate the p1 + (a, d) cycle until the lower label sits on
    (d, p1[1]), then rotate the p1 + (a, b), (b, c), (c, d) cycle to the
    swapped state. A p1 of three vertices makes these a triangle, on which
    nothing turns, and a 5-cycle: 5 slides, as short as any swap inside
    those five vertices. A longer p1 of m vertices takes 2m + 4 slides.

    The build goes through `memo` under the unlabeled pieces and which of
    the two labels is smaller, as `rotate` breaks ties by label; later
    swaps on the same state replay its kept vertices. On a p1 of three
    vertices no other label is on the two cycles, so a replay equals a
    fresh build; on a longer p1 a tie may turn on a third label, and the
    replay then takes the other, equally long, direction to the same end.
    """
    pd = frame.pd
    a, b, c, d = pd.a, pd.b, pd.c, pd.d
    assert cur.exposed == c
    hi = cur.label_at(frame.dominoes[frame.i_ab])
    lo = cur.label_at(frame.dominoes[frame.i_v])
    assert hi is not None and lo is not None

    def build(target: Placement) -> SlideSequence:
        v1, v2, v3 = pd.p1[-2], pd.p1[-3], pd.p1[1]
        s1 = replay(cur, (b,))                 # the (a, b) piece onto (b, c)
        cyc_a = pd.p1                          # d .. a, closed by (a, d)
        s2 = rotate(s1.end, cyc_a, a, [(lo, edge_key(d, v3))])
        cyc_b = pd.p1 + (b, c)                 # d .. a, b, c, closed by (c, d)
        s3 = rotate(s2.end, cyc_b, c, [(hi, edge_key(v1, v2)), (lo, edge_key(a, b))])
        return s1.then(s2).then(s3)
    return memo(cur, hi, lo, (frozenset(cur.pieces), hi < lo), build)


def swap_adjacent(order: List[int], j: int, frame: TurningFrame,
                  memo: Transpositions) -> Tuple[Tuple[int, ...], List[int]]:
    """Transpose the labels x = order[j] and y = order[j + 1] (cyclic
    positions along the cycle from the gap at c), leaving the cycle
    turned; `order` lists the labels on the frame's dominoes. Returns the
    word and the label order it ends at.

    Turns along the cycle until x sits on the lower swap domino and y on
    the one after it (`turn_to_swap`), then exchanges them there with the
    swap gadget, on the one placement this builds: the end is `order`
    turned left by j - lo positions, with x and y exchanged, and the gap
    is back at c. `frame` is the plan's turning frame and `memo` its
    swap-gadget memo (see `_swap_special`), which raises
    PlanInvariantError if a gadget misses its end.
    """
    turn, order = turn_to_swap(order, j, frame)
    swap = _swap_special(frame.placement(order), frame, memo)
    order[frame.i_ab], order[frame.i_v] = order[frame.i_v], order[frame.i_ab]
    return turn + swap.kept, order


# ---------------------------------------------------------------------------
# full plan

def _label_order(p: Placement, dominoes: Sequence[Edge]) -> List[int]:
    """The labels on `dominoes`, in turn; raises PlanInvariantError if a
    domino holds no piece."""
    labels = [p.label_at(e) for e in dominoes]
    if None in labels:
        raise PlanInvariantError("a domino of the cycle holds no piece")
    return labels


def _nearest_rotation(have: List[int], want: List[int]) -> List[int]:
    """The rotation of `want` with the fewest inversions against `have`
    (ties to the smallest shift). Moving the first entry, at position s in
    `have`, to the back changes the count by k - 1 - 2s."""
    k = len(have)
    pos = {lab: i for i, lab in enumerate(have)}
    s = [pos[lab] for lab in want]
    inv = sum(s[i] > s[t] for i in range(k) for t in range(i + 1, k))
    best, shift = inv, 0
    for r in range(k - 1):
        inv += k - 1 - 2 * s[r]
        if inv < best:
            best, shift = inv, r + 1
    return want[shift:] + want[:shift]


def plan_hamilton(g: TriGridGraph, p: Placement, q: Placement) -> PlanReport:
    """A verified slide plan from p to q on a locally-connected graph.

    Aligns both placements with a Hamilton cycle and pins p's gap at the
    diamond corner c. A rotation keeps the cyclic order of the labels
    along the cycle, and nothing else, so the sort aims at the rotation of
    q's order with the fewest inversions and walks each label leftwards by
    adjacent swaps, never turning the cycle back between them. One final
    rotation sets the frame to q's alignment, which is then undone.

    Hosts below five vertices have no parity diamond: a single vertex
    holds no pieces, and the one piece on a triangle is placed by a
    rotation along it.
    """
    if g.is_lattice and is_star_of_david(g):
        raise PlanError("the Star of David graph is not reconfigurable")
    if g.is_lattice and not is_locally_connected(g):
        raise PlanError("cycle planner needs a locally-connected graph")
    if g.n == 0:
        return finish_plan(SlideSequence(p, ()), q, "hamilton", [])
    h = find_hamilton(g)
    if g.num_vertices < 5:
        turn = rotate(p, h.order, q.exposed)
        return finish_plan(turn, q, "hamilton", [])
    pd = find_local_structure(g, h)

    sp = align_with_hamilton(p, h)
    sq = align_with_hamilton(q, h)
    rp = rotate(sp.end, h.order, pd.c)
    aligned_q = sq.end
    frame = turning_frame(g, pd)
    order = _label_order(rp.end, frame.dominoes)
    have = list(order)
    want = _nearest_rotation(have, _label_order(
        aligned_q, forced_cycle_dominoes(h.order, aligned_q.exposed)))
    word = list(sp.kept + rp.kept)
    swaps = 0
    memo = Transpositions()
    # bubble sort in the turning frame on the labels alone: `order` lists
    # them domino by domino, `have` in cycle order from the label that
    # started on domino 0
    for j, lab in enumerate(want):
        for i in range(have.index(lab, j), j, -1):
            kept, order = swap_adjacent(order, order.index(have[i - 1]), frame, memo)
            word.extend(kept)
            have[i - 1], have[i] = have[i], have[i - 1]
            swaps += 1
    last = rotate(frame.placement(order), h.order, aligned_q.exposed,
                  [(want[0], aligned_q.piece(want[0]))])
    assert last.end.pieces == aligned_q.pieces and last.end.exposed == aligned_q.exposed
    seq = SlideSequence(p, tuple(word) + last.kept, aligned_q)
    return finish_plan(seq.then(invert_sequence(sq)), q, "hamilton", [],
                       swaps, len(memo))
