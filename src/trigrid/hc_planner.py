"""Reconfiguration planner driven by a Hamilton cycle.

Pipeline: align both placements with a spanning cycle, pin the gap at the
first window's corner, sort the cyclic label order along the cycle by
adjacent swaps, rotate once into the target's frame, then undo the
target-side alignment. A window is a parity diamond on the cycle, and its
gadget swaps the two labels on its swap dominoes with the gap at its
corner c. A lap of the cycle takes the gap past every corner with the
placement aligned, so each swap is made at whichever window is cheaper to
reach: the first window after a turn either way round, or a window ahead
on the way forwards. The sort steps the list of labels on the cycle's
dominoes, not a placement: each turn is arithmetic on it, and a placement
is built only for each swap's gadget. Slide counts grow as O(n^3), the
turns between swaps being the cubic term.
"""

from typing import List, NamedTuple, Sequence, Tuple

from .grid import Edge, TriGridGraph, edge_key, is_locally_connected, is_star_of_david
from .hamilton import HamiltonCycle, ParityDiamond, find_hamilton, parity_diamonds
from .placement import (Placement, SlideSequence, align_with_cycle, forced_cycle_dominoes,
                        invert_sequence, replay, rotate, shorter_walk)
from .plans import PlanError, PlanInvariantError, PlanReport, Transpositions, finish_plan


def align_with_hamilton(p: Placement, h: HamiltonCycle) -> SlideSequence:
    """`align_with_cycle` on the Hamilton cycle, every other host edge a
    chord; the benchmark's trace books `hc_planner.align_s` by this name."""
    return align_with_cycle(p, h.order, p.graph.edges - h.edges)


# ---------------------------------------------------------------------------
# adjacent swaps at the windows

class TurningFrame(NamedTuple):
    """A window's frame, the gap at its diamond's corner c: the host, the
    cycle listed from c (`ring`), its forced dominoes listed from c, the
    indices of the two swap dominoes (`i_ab` on (a, b), `i_v` its
    neighbour along p1) and `lo`, the lower of the two in cycle order.
    With the gap at c, every piece lies on one of the dominoes, so the
    list of labels on them, domino by domino, fixes the placement. Every
    window of a plan lists the same cycle in the same direction."""

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
    """The frame of the window `pd`. Domino i is (ring[2i+1], ring[2i+2]),
    so the vertex at ring index r > 0 lies on domino (r - 1) // 2."""
    cycle = pd.cycle.order
    at_c = cycle.index(pd.c)
    ring = cycle[at_c:] + cycle[:at_c]
    dominoes = tuple(forced_cycle_dominoes(ring, pd.c))
    r_ab = min(ring.index(pd.a), ring.index(pd.b))
    i_ab, i_v = (r_ab - 1) // 2, (ring.index(pd.p1[-2]) - 1) // 2
    k = len(dominoes)
    assert r_ab % 2 and (i_v - i_ab) % k in (1, k - 1), "swap dominoes not adjacent"
    lo = i_ab if (i_v - i_ab) % k == 1 else i_v
    return TurningFrame(pd, g, ring, dominoes, i_ab, i_v, lo)


def turn_to_swap(order: List[int], j: int, frm: TurningFrame,
                 to: TurningFrame) -> Tuple[Tuple[int, ...], List[int]]:
    """The turn along the cycle, from the gap at frm's corner to the gap at
    to's corner, that brings order[j] onto to's lower swap domino: its
    word and the label order on to's dominoes it ends at. `order` lists
    the labels on frm's dominoes.

    The gap moves two places a slide forwards, and each slide forwards
    turns the list left by one, so the turn is the one state u mod n*k
    with 2u = e mod n, e the steps from frm's corner to to's, and
    u = j - lo mod k. As n = 1 mod k, u = r + n*m with r = e/2 mod n, m
    whole laps on top. It is u slides forwards or n*k - u backwards,
    whichever `shorter_walk` picks, and ends at the list turned left by
    u: the word and end `rotate` gives for the same placement and goals,
    with no placement built.
    """
    k = len(order)
    u = _turn(j, frm, to, k)
    if not u:
        return (), list(order)
    _, kept = shorter_walk(frm.ring, order, (u,))
    u %= k
    return kept, order[u:] + order[:u]


def _turn(j: int, frm: TurningFrame, to: TurningFrame, k: int) -> int:
    """The state u, 0 <= u < n*k, that `turn_to_swap` turns to: u slides
    forwards, or n*k - u backwards."""
    n = 2 * k + 1
    r = frm.ring.index(to.pd.c) * (k + 1) % n
    return r + n * ((j - to.lo - r) % k)


def _swap_special(cur: Placement, frame: TurningFrame, memo: Transpositions) -> SlideSequence:
    """Exchange the labels on the two swap dominoes; gap stays at c.

    One construction for every diamond: slide the (a, b) piece onto
    (b, c), rotate the p1 + (a, d) cycle until the lower label sits on
    (d, p1[1]), then rotate the p1 + (a, b), (b, c), (c, d) cycle to the
    swapped state. A p1 of three vertices makes these a triangle, on which
    nothing turns, and a 5-cycle: 5 slides, as short as any swap inside
    those five vertices. A longer p1 of m vertices takes 2m + 4 slides
    (`gadget_slides`).

    The build goes through `memo` under the diamond: with the gap at c the
    cycle fixes the unlabeled state, so later swaps at this window replay
    its kept vertices. The rotations' lengths are fixed too. After the
    slide the gap is at a and the lower label on p1's last domino, so the
    first rotation is no slide on a p1 of three vertices and one lap
    backwards, m slides, on a longer one; the second is four slides
    backwards on the 5-cycle, or m + 3 forwards. Only the first, on a p1
    of five vertices, ties: a lap either way round to the same state,
    which `rotate` breaks by the label on (d, p1[1]). A replay there may
    take the other direction than a fresh build would, to the same end.
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
    return memo(cur, hi, lo, (a, b, c, d), build)


def gadget_slides(pd: ParityDiamond) -> int:
    """The swap gadget's length at a window: 5 slides for a p1 of three
    vertices, 2m + 4 for a p1 of m vertices."""
    m = len(pd.p1)
    return 5 if m == 3 else 2 * m + 4


def swap_adjacent(order: List[int], j: int, frm: TurningFrame, to: TurningFrame,
                  memo: Transpositions) -> Tuple[Tuple[int, ...], List[int]]:
    """Transpose the label x = order[j] and the one after it along the
    cycle; `order` lists the labels on frm's dominoes, the gap at its
    corner. Returns the word and the label order on to's dominoes it ends
    at, the gap at to's corner.

    Turns along the cycle until x sits on to's lower swap domino and its
    neighbour on the one after it (`turn_to_swap`), then exchanges them
    there with to's swap gadget, on the one placement this builds. `memo`
    is the plan's swap-gadget memo (see `_swap_special`), which raises
    PlanInvariantError if a gadget misses its end.
    """
    turn, order = turn_to_swap(order, j, frm, to)
    swap = _swap_special(to.placement(order), to, memo)
    order[to.i_ab], order[to.i_v] = order[to.i_v], order[to.i_ab]
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
    corner c of the first window (`find_local_structure`'s diamond). A
    rotation keeps the cyclic order of the labels along the cycle, and
    nothing else, so the sort aims at the rotation of q's order with the
    fewest inversions and removes one inversion a swap (`_sort`). One
    final rotation sets the frame to q's alignment, which is then undone.

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
    windows = parity_diamonds(g, h)

    sp = align_with_hamilton(p, h)
    sq = align_with_hamilton(q, h)
    rp = rotate(sp.end, h.order, windows[0].c)
    aligned_q = sq.end
    frames = [turning_frame(g, pd) for pd in windows]
    order = _label_order(rp.end, frames[0].dominoes)
    want = _nearest_rotation(order, _label_order(
        aligned_q, forced_cycle_dominoes(h.order, aligned_q.exposed)))
    memo = Transpositions()
    word, order, at, swaps, used = _sort(frames, order, want, memo)
    last = rotate(frames[at].placement(order), h.order, aligned_q.exposed,
                  [(want[0], aligned_q.piece(want[0]))])
    assert last.end.pieces == aligned_q.pieces and last.end.exposed == aligned_q.exposed
    seq = SlideSequence(p, sp.kept + rp.kept + word + last.kept, aligned_q)
    return finish_plan(seq.then(invert_sequence(sq)), q, "hamilton", [],
                       swaps, len(memo), windows=used)


def _sort(frames: Sequence[TurningFrame], order: List[int], want: List[int],
          memo: Transpositions) -> Tuple[Tuple[int, ...], List[int], int, int, int]:
    """Sort the labels on the cycle, the gap at frames[0]'s corner, from
    `order` to `want` by adjacent swaps at the windows `frames`, each of
    which removes one inversion. Returns the word, the label order it ends
    at, the index of the window at whose corner the gap ends, the swaps
    and the number of windows that swapped.

    `have` lists the labels in cycle order from the one that started on
    domino 0, and a pair is an inversion when it is adjacent there, so
    never across that seam, and in the other order in `want`. Each step
    takes the cheaper, in slides, of two moves: the next swap of an
    insertion sort of `have`, at the first window, after the shorter turn
    either way round the cycle; or going on forwards, less than a lap, to
    a window whose pair is an inversion when the gap reaches its corner,
    the one whose distance and gadget (`gadget_slides`) are fewest slides,
    and swapping there. A lap takes the gap past the corner of every
    window with the placement aligned with the cycle, so the second move
    needs no turn of its own. Going on to the nearest such window instead
    left `para25`'s plans 27% longer over pairs 1-10.
    """
    k = len(order)
    n = 2 * k + 1
    half = k + 1                               # the inverse of 2 mod n
    ring = frames[0].ring
    # per window: its index, the slides forwards from the first window's
    # corner to its own, mod n, its lower swap domino and its gadget's length
    ahead = [(w, ring.index(f.pd.c) * half % n, f.lo, gadget_slides(f.pd))
             for w, f in enumerate(frames)]
    have = list(order)
    where = {lab: i for i, lab in enumerate(have)}
    rank = {lab: i for i, lab in enumerate(want)}
    word: List[int] = []
    at = swaps = done = 0
    used = set()
    while True:
        while done < k and have[done] == want[done]:
            done += 1
        if done == k:
            break
        # the insertion sort's next swap, at the first window
        j = order.index(have[where[want[done]] - 1])
        u = _turn(j, frames[at], frames[0], k)
        best, to = min(u, n * k - u) + ahead[0][3], 0
        here = ahead[at][1]
        # the windows ahead, within one lap forwards
        for w, step, lo, gadget in ahead:
            t = (step - here) % n
            if t + gadget < best:
                i = (lo + t) % k
                y = order[i]
                if rank[y] > rank[order[(i + 1) % k]] and where[y] != k - 1:
                    best, to, j = t + gadget, w, i
        y = order[j]
        kept, order = swap_adjacent(order, j, frames[at], frames[to], memo)
        word.extend(kept)
        i = where[y]
        have[i], have[i + 1] = have[i + 1], have[i]
        where[have[i]], where[have[i + 1]] = i, i + 1
        swaps += 1
        used.add(to)
        at = to
    return tuple(word), order, at, swaps, len(used)
