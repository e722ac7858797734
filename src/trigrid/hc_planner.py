"""Reconfiguration planner driven by a Hamilton cycle.

Pipeline: align both placements with a spanning cycle, pin the gap at the
first window's corner, sort the cyclic label order along the cycle by
adjacent swaps, turn once into the target's frame, then undo the
target-side alignment. The sort cuts the cyclic order at a seam and aims
at a rotation of the target's order, the two chosen together for the
fewest inversions, one swap each. A window is a parity diamond on the
cycle, and its gadget swaps the two labels on its swap dominoes with the
gap at its corner c. A lap of the cycle takes the gap past every corner
with the placement aligned, so each swap is made at whichever window is
cheaper to reach: the first window after a turn either way round, or a
window ahead on the way forwards. From the first corner on, the plan is arithmetic on
the list of labels on the cycle's dominoes: each turn and each gadget's
word is read off it in closed form, and no placement is built until
`finish_plan` checks the plan. Measured from `hex37` to `hex127` (pairs
1-3), plans take 0.9-1.8·n² slides on n vertices; from `hex61` up, the
swap gadgets are 44-51% of the uncut slides and the turns 33-45%.
"""

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .grid import Edge, TriGridGraph, is_locally_connected, is_star_of_david
from .hamilton import HamiltonCycle, ParityDiamond, find_hamilton, parity_diamonds
from .placement import (Placement, SlideSequence, align_with_cycle, forced_cycle_dominoes,
                        invert_sequence, rotate, shorter_walk, walk_word)
from .plans import PlanError, PlanInvariantError, PlanReport, finish_plan


def align_with_hamilton(p: Placement, h: HamiltonCycle) -> SlideSequence:
    """`align_with_cycle` on the Hamilton cycle, every other host edge a
    chord; the benchmark's trace books `hc_planner.align_s` by this name."""
    return align_with_cycle(p, h.order, p.graph.edges - h.edges)


# ---------------------------------------------------------------------------
# adjacent swaps at the windows

class TurningFrame(NamedTuple):
    """A window's frame, the gap at its diamond's corner c: the cycle
    listed from c (`ring`), its forced dominoes listed from c, the indices
    of the two swap dominoes (`i_ab` on (a, b), `i_v` its neighbour along
    p1) and `lo`, the lower of the two in cycle order. With the gap at c,
    every piece lies on one of the dominoes, so the list of labels on
    them, domino by domino, fixes the placement. Every window of a plan
    lists the same cycle in the same direction."""

    pd: ParityDiamond
    ring: Tuple[int, ...]
    dominoes: Tuple[Edge, ...]
    i_ab: int
    i_v: int
    lo: int


def turning_frame(pd: ParityDiamond) -> TurningFrame:
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
    return TurningFrame(pd, ring, dominoes, i_ab, i_v, lo)


def turn_to_swap(order: List[int], j: int, frm: TurningFrame,
                 to: TurningFrame) -> Tuple[Tuple[int, ...], List[int]]:
    """The turn along the cycle, from the gap at frm's corner to the gap at
    to's corner, that brings order[j] onto to's lower swap domino: its
    word and the label order on to's dominoes it ends at. `order` lists
    the labels on frm's dominoes.

    The gap moves two places a slide forwards, and each slide forwards
    turns the list left by one, so the turn is the one state u mod n*k
    that `_turn` gives. It is u slides forwards or n*k - u backwards,
    whichever `shorter_walk` picks, and ends at the list turned left by
    u: the word and end `rotate` gives for the same placement and goals,
    with no placement built.
    """
    k = len(order)
    u = _turn(j, frm.ring, to.pd.c, to.lo, k)
    _, kept = shorter_walk(frm.ring, order, (u,))
    return kept, order[u % k:] + order[:u % k]


def _turn(j: int, ring: Tuple[int, ...], gap: int, dom: int, k: int) -> int:
    """The state u, 0 <= u < n*k, of the turn along `ring`, listed from the
    gap, that exposes `gap` and brings the label at position j of the list
    on ring's dominoes onto domino `dom` of the frame at `gap`: u slides
    forwards, or n*k - u backwards. The gap at ring[e] needs 2u = e mod n,
    and the label needs u = j - dom mod k; as n = 1 mod k, u = r + n*m
    with r = e/2 mod n and m whole laps on top."""
    n = 2 * k + 1
    r = ring.index(gap) * (k + 1) % n
    return r + n * ((j - dom - r) % k)


def gadget_word(frame: TurningFrame, order: Sequence[int]) -> Tuple[int, ...]:
    """The word of the swap gadget at `frame`'s window, `order` listing the
    labels on its dominoes: it exchanges the labels on the two swap
    dominoes and leaves the gap at c.

    One construction for every diamond: keep b, so the (a, b) piece
    slides onto (b, c) and the gap moves to a; one lap along the cycle p1
    + (a, d), listed from a as (a,) + p1[:-1], brings the label on p1's
    last domino onto (d, p1[1]); then a turn along the cycle p1 + (a, b),
    (b, c), (c, d), listed from a as (a, b, c) + p1[:-1], reaches the
    swapped state. These are `rotate`'s shortest rotations to those goals,
    and slides are blind to labels, so with the gap at c the window alone
    fixes their lengths. On a p1 of m vertices the lap is m slides
    backwards, none for m = 3, where p1 + (a, d) is a triangle; the turn
    is m + 3 slides forwards, or 4 backwards on the 5-cycle of m = 3:
    `gadget_slides` in all. Only the lap on a p1 of five vertices ties, a
    lap either way round to the same state; it goes forwards iff (the
    label on (d, p1[1]), d) comes before (the label on p1's last domino,
    p1[-2]), `shorter_walk`'s tie rule.
    """
    pd = frame.pd
    p1, m = pd.p1, len(pd.p1)
    forwards = (order[(frame.ring.index(pd.d) - 1) // 2], pd.d) < (order[frame.i_v], p1[-2])
    lap = 0 if m == 3 else m if m == 5 and forwards else -m
    return ((pd.b,) + walk_word((pd.a,) + p1[:-1], lap)
            + walk_word((pd.a, pd.b, pd.c) + p1[:-1], -4 if m == 3 else m + 3))


def gadget_slides(pd: ParityDiamond) -> int:
    """The swap gadget's length at a window: 5 slides for a p1 of three
    vertices, 2m + 4 for a p1 of m vertices."""
    m = len(pd.p1)
    return 5 if m == 3 else 2 * m + 4


def swap_adjacent(order: List[int], j: int, frm: TurningFrame, to: TurningFrame,
                  words: Dict[Tuple[int, ...], Tuple[int, ...]]
                  ) -> Tuple[Tuple[int, ...], List[int]]:
    """Transpose the label x = order[j] and the one after it along the
    cycle; `order` lists the labels on frm's dominoes, the gap at its
    corner. Returns the word and the label order on to's dominoes it ends
    at, the gap at to's corner.

    Turns along the cycle until x sits on to's lower swap domino and its
    neighbour on the one after it (`turn_to_swap`), then exchanges them
    there with to's swap gadget. `words` is the plan's dict from window,
    (a, b, c, d), to gadget word, filled at the window's first swap, so a
    tie on a p1 of five vertices goes the same way at every swap there.
    """
    turn, order = turn_to_swap(order, j, frm, to)
    key = to.pd.a, to.pd.b, to.pd.c, to.pd.d
    if key not in words:
        words[key] = gadget_word(to, order)
    order[to.i_ab], order[to.i_v] = order[to.i_v], order[to.i_ab]
    return turn + words[key], order


# ---------------------------------------------------------------------------
# full plan

def _label_order(p: Placement, dominoes: Sequence[Edge]) -> List[int]:
    """The labels on `dominoes`, in turn; raises PlanInvariantError if a
    domino holds no piece."""
    labels = [p.label_at(e) for e in dominoes]
    if None in labels:
        raise PlanInvariantError("a domino of the cycle holds no piece")
    return labels


def _nearest_seam(have: List[int], goal: List[int]) -> Tuple[int, List[int]]:
    """The seam s and the rotation `want` of `goal` with the fewest
    inversions between have[s:] + have[:s] and `want`, over all k seams
    and k rotations (ties to the smallest seam, then the smallest shift).
    Moving the first entry of `want`, at position p in `have`, to the back
    changes the count by k - 1 - 2p; moving have[s] to the back of the cut
    changes the count against `goal` turned left by r by
    k - 1 - 2 * ((p - r) % k), p its position in `goal`."""
    k = len(have)
    in_have = {lab: i for i, lab in enumerate(have)}
    in_goal = {lab: i for i, lab in enumerate(goal)}
    s = [in_have[lab] for lab in goal]
    inv = sum(s[i] > s[t] for i in range(k) for t in range(i + 1, k))
    row = [inv]                    # row[r]: the count against goal turned left by r
    for r in range(k - 1):
        inv += k - 1 - 2 * s[r]
        row.append(inv)
    fewest = min(row)
    seam, shift = 0, row.index(fewest)
    for cut in range(1, k):
        p = in_goal[have[cut - 1]]
        row = [v + k - 1 - 2 * ((p - r) % k) for r, v in enumerate(row)]
        low = min(row)
        if low < fewest:
            fewest, seam, shift = low, cut, row.index(low)
    return seam, goal[shift:] + goal[:shift]


def plan_hamilton(g: TriGridGraph, p: Placement, q: Placement) -> PlanReport:
    """A verified slide plan from p to q on a locally-connected graph.

    Aligns both placements with a Hamilton cycle and pins p's gap at the
    corner c of the first window, the first of `parity_diamonds`. A
    rotation keeps the cyclic order of the labels along the cycle, and
    nothing else, and a sort by adjacent swaps need never swap across
    the seam where it cuts that order into a line. So the sort cuts p's
    order at the seam, and aims at the rotation of q's order, that
    together have the fewest inversions (`_nearest_seam`), and removes
    one inversion a swap (`_sort`). One last turn (`_turn`) sets the
    frame to q's alignment, which is then undone; `finish_plan` checks
    the whole plan against q.

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
        return finish_plan(rotate(p, h.order, q.exposed), q, "hamilton", [])
    windows = parity_diamonds(g, h)

    sp = align_with_hamilton(p, h)
    sq = align_with_hamilton(q, h)
    rp = rotate(sp.end, h.order, windows[0].c)
    aligned_q = sq.end
    frames = [turning_frame(pd) for pd in windows]
    order = _label_order(rp.end, frames[0].dominoes)
    goal = _label_order(aligned_q, forced_cycle_dominoes(h.order, aligned_q.exposed))
    seam, want = _nearest_seam(order, goal)
    word, order, at, swaps, used = _sort(frames, order, seam, want)
    # the last turn: the gap onto q's, want[0] onto its domino in q's frame
    ring = frames[at].ring
    u = _turn(order.index(want[0]), ring, aligned_q.exposed, goal.index(want[0]), len(order))
    _, last = shorter_walk(ring, order, (u,))
    seq = SlideSequence(p, sp.kept + rp.kept + word + last, aligned_q)
    return finish_plan(seq.then(invert_sequence(sq)), q, "hamilton", [],
                       swaps, used, windows=used)


def _sort(frames: Sequence[TurningFrame], order: List[int], seam: int,
          want: List[int]) -> Tuple[Tuple[int, ...], List[int], int, int, int]:
    """Sort the labels on the cycle, the gap at frames[0]'s corner, from
    `order`, cut at position `seam`, to `want` by adjacent swaps at the
    windows `frames`, each of which removes one inversion. Returns the
    word, the label order it ends at, the index of the window at whose
    corner the gap ends, the swaps and the number of windows that
    swapped, each of which makes its gadget's word once
    (`swap_adjacent`).

    `have` lists the labels in cycle order from the one that started on
    domino `seam`, order[seam:] + order[:seam], and a pair is an
    inversion when it is adjacent there, so never across that seam, and
    in the other order in `want`. Each step takes the cheaper, in slides,
    of two moves: the next swap of an insertion sort of `have`, at the
    first window, after the shorter turn either way round the cycle; or
    going on forwards, less than a lap, to a window whose pair is an
    inversion when the gap reaches its corner, the one whose distance and
    gadget (`gadget_slides`) are fewest slides, and swapping there. A lap
    takes the gap past the corner of every window with the placement
    aligned with the cycle, so the second move needs no turn of its own.
    Going on to the nearest such window instead left `para25`'s plans 27%
    longer over pairs 1-10.
    """
    k = len(order)
    n = 2 * k + 1
    half = k + 1                               # the inverse of 2 mod n
    ring = frames[0].ring
    # per window: its index, the slides forwards from the first window's
    # corner to its own, mod n, its lower swap domino and its gadget's length
    ahead = [(w, ring.index(f.pd.c) * half % n, f.lo, gadget_slides(f.pd))
             for w, f in enumerate(frames)]
    have = order[seam:] + order[:seam]
    where = {lab: i for i, lab in enumerate(have)}
    rank = {lab: i for i, lab in enumerate(want)}
    word: List[int] = []
    words: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    at = swaps = done = 0
    while True:
        while done < k and have[done] == want[done]:
            done += 1
        if done == k:
            break
        # the insertion sort's next swap, at the first window
        j = order.index(have[where[want[done]] - 1])
        u = _turn(j, frames[at].ring, frames[0].pd.c, frames[0].lo, k)
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
        kept, order = swap_adjacent(order, j, frames[at], frames[to], words)
        word.extend(kept)
        i = where[y]
        have[i], have[i + 1] = have[i + 1], have[i]
        where[have[i]], where[have[i + 1]] = i, i + 1
        swaps += 1
        at = to
    return tuple(word), order, at, swaps, len(words)
