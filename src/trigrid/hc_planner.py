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
window ahead on the way forwards. From the first corner on, the plan
runs on one ring, the cycle listed from that corner: its state is the
list L of labels on the ring's dominoes (`Placement.ring`) and one
number u mod n*k, and each window is a few offsets on the ring
(`Window`). Each turn, to a state `rotate`'s congruence gives
(`placement.ring_target`), and each gadget's word is read off them in
closed form, and no placement is built until `finish_plan` checks the
plan. Criterion 11's longest plans (five pairs a host) take
1.23-1.84·n² slides on n vertices from `hex37` to `hex127`, c = 1.845
on `hex127` (29,758 slides); from `hex61` up, the swap gadgets are
44-51% of the uncut slides and the turns 33-45%.
"""

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .grid import TriGridGraph, is_locally_connected, is_star_of_david
from .hamilton import HamiltonCycle, ParityDiamond, find_hamilton, parity_diamonds
from .placement import (Placement, SlideSequence, align_with_cycle, gap_state, invert_sequence,
                        ring_target, rotate, shorter_walk, walk_word)
from .plans import PlanError, PlanReport, finish_plan


def align_with_hamilton(p: Placement, h: HamiltonCycle) -> SlideSequence:
    """`align_with_cycle` on the Hamilton cycle, every other host edge a
    chord; the benchmark's trace books `hc_planner.align_s` by this name."""
    return align_with_cycle(p, h.order, p.graph.edges - h.edges)


# ---------------------------------------------------------------------------
# adjacent swaps at the windows

class Window(NamedTuple):
    """A parity diamond `pd` as offsets on a ring, an odd cycle of n
    vertices listed from the gap at state 0 (in a plan, the first
    window's corner): `state`, the state mod n at which the gap sits at
    its corner c, and the dominoes, counted from c, that hold (a, b)
    (`i_ab`), p1[-2] (`i_v`, the other swap domino) and d (`i_d`); `lo`
    is the lower of the two swap dominoes in cycle order. With the gap at
    c, every piece lies on one of the dominoes, so the labels on them,
    domino by domino, fix the placement."""

    pd: ParityDiamond
    state: int
    i_ab: int
    i_v: int
    lo: int
    i_d: int


def windows_on(ring: Tuple[int, ...], diamonds: Sequence[ParityDiamond]) -> List[Window]:
    """The diamonds as windows on `ring`, an odd cycle of n = 2k + 1
    vertices. The gap at ring[e] is state `gap_state(e, n)`, and with
    the gap at ring[e] the vertex at ring[e + r], r > 0, lies on domino
    (r - 1) // 2 after it."""
    n = len(ring)
    k = n // 2
    at = {v: r for r, v in enumerate(ring)}
    out = []
    for pd in diamonds:
        e = at[pd.c]
        r_a, r_b, r_v, r_d = ((at[v] - e) % n for v in (pd.a, pd.b, pd.p1[-2], pd.d))
        r_ab = min(r_a, r_b)
        i_ab, i_v, i_d = (r_ab - 1) // 2, (r_v - 1) // 2, (r_d - 1) // 2
        assert r_ab % 2 and (i_v - i_ab) % k in (1, k - 1), "swap dominoes not adjacent"
        lo = i_ab if (i_v - i_ab) % k == 1 else i_v
        out.append(Window(pd, gap_state(e, n), i_ab, i_v, lo, i_d))
    return out


def _walk(ring: Tuple[int, ...], labels: Sequence[int], u: int, t: int) -> Tuple[int, ...]:
    """The word of the turn from state u to state t along `ring`:
    `shorter_walk` on the ring and the label list, both read from the gap
    at u, so the word and its direction are those `rotate` gives."""
    n, k = len(ring), len(labels)
    g, s = 2 * u % n, u % k
    return shorter_walk(ring[g:] + ring[:g], labels[s:] + labels[:s], ((t - u) % (n * k),))[1]


def gadget_word(w: Window, order: Sequence[int]) -> Tuple[int, ...]:
    """The word of the swap gadget at the window w, `order` listing the
    labels on its dominoes from its corner c: it exchanges the labels on
    the two swap dominoes and leaves the gap at c.

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
    pd = w.pd
    p1, m = pd.p1, len(pd.p1)
    forwards = (order[w.i_d], pd.d) < (order[w.i_v], p1[-2])
    lap = 0 if m == 3 else m if m == 5 and forwards else -m
    return ((pd.b,) + walk_word((pd.a,) + p1[:-1], lap)
            + walk_word((pd.a, pd.b, pd.c) + p1[:-1], -4 if m == 3 else m + 3))


def gadget_slides(pd: ParityDiamond) -> int:
    """The swap gadget's length at a window: 5 slides for a p1 of three
    vertices, 2m + 4 for a p1 of m vertices."""
    m = len(pd.p1)
    return 5 if m == 3 else 2 * m + 4


def swap_adjacent(ring: Tuple[int, ...], labels: List[int], u: int, w: Window, t: int,
                  words: Dict[Tuple[int, ...], Tuple[int, ...]]) -> Tuple[int, ...]:
    """Turn from state u to state t, which puts the gap at w's corner,
    and exchange the labels on w's swap dominoes there with its gadget;
    returns the word. `labels` is the ring's label list L, at state t
    read L[(i + t) % k] on domino i after the gap; the swap exchanges its
    two adjacent entries on the swap dominoes in place, and the state
    stays t.

    `words` is the plan's dict from window, (a, b, c, d), to gadget word,
    filled at the window's first swap from L read from its corner at t,
    so a tie on a p1 of five vertices goes the same way at every swap
    there. The turn's word is built before the swap, as `shorter_walk`'s
    tie rule reads the labels at u.
    """
    k = len(labels)
    turn = _walk(ring, labels, u, t)
    key = w.pd.a, w.pd.b, w.pd.c, w.pd.d
    if key not in words:
        s = t % k
        words[key] = gadget_word(w, labels[s:] + labels[:s])
    i, j = (w.i_ab + t) % k, (w.i_v + t) % k
    labels[i], labels[j] = labels[j], labels[i]
    return turn + words[key]


# ---------------------------------------------------------------------------
# full plan

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
    corner c of the first window, the first of `parity_diamonds`. From
    there the plan runs on one ring, the cycle listed from c, as the list
    L of labels on its dominoes and one state number (`_sort`). A
    rotation keeps the cyclic order of the labels along the cycle, and
    nothing else, and a sort by adjacent swaps need never swap across
    the seam where it cuts that order into a line. So the sort cuts L at
    the seam, and aims at the rotation of q's order, that together have
    the fewest inversions (`_nearest_seam`), and removes one inversion a
    swap. One last turn, by the sort's own arithmetic, sets the state of
    q's alignment, which is then undone; `finish_plan` checks the whole
    plan against q.

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
    diamonds = parity_diamonds(g, h)

    sp = align_with_hamilton(p, h)
    sq = align_with_hamilton(q, h)
    rp = rotate(sp.end, h.order, diamonds[0].c)
    aligned_q = sq.end
    ring, labels = rp.end.ring(h.order)
    _, goal = aligned_q.ring(h.order)
    seam, want = _nearest_seam(labels, goal)
    word, u, swaps, used = _sort(ring, windows_on(ring, diamonds), labels, seam, want)
    # the last turn: the gap onto q's, want[0] onto its domino in q's frame
    t = ring_target(gap_state(ring.index(aligned_q.exposed), len(ring)),
                    labels.index(want[0]), goal.index(want[0]), len(labels))
    seq = SlideSequence(p, sp.kept + rp.kept + word + _walk(ring, labels, u, t), aligned_q)
    return finish_plan(seq.then(invert_sequence(sq)), q, "hamilton", [],
                       swaps, used, windows=used)


def _sort(ring: Tuple[int, ...], windows: Sequence[Window], labels: List[int], seam: int,
          want: List[int]) -> Tuple[Tuple[int, ...], int, int, int]:
    """Sort the labels on `ring`, the gap at its first vertex, the first
    window's corner, from `labels`, cut at position `seam`, to `want` by
    adjacent swaps at the windows, each of which removes one inversion.
    Returns the word, the state at which it ends, the swaps and the
    number of windows that swapped, each of which makes its gadget's
    word once (`swap_adjacent`); `labels` ends sorted in place.

    The sort's state is the label list L, `labels`, and one number u mod
    n*k: u slides forwards put the gap at ring[2u] and L[(i + u) % k] on
    domino i after it. Turns leave L as it is and a swap exchanges two
    adjacent entries, so L read from the seam is the order being sorted,
    and a pair is an inversion when it is adjacent there, so never across
    that seam, and in the other order in `want`. Each step takes the
    cheaper, in slides, of two moves: the next swap of an insertion sort
    of L read from the seam, at the first window, after the shorter turn
    either way round the cycle; or going on forwards, less than a lap, to
    a window whose pair is an inversion when the gap reaches its corner,
    the one whose distance and gadget (`gadget_slides`) are fewest
    slides, and swapping there. A lap takes the gap past the corner of
    every window with the placement aligned with the cycle, so the
    second move needs no turn of its own. Going on to the nearest such
    window instead left `para25`'s plans 27% longer over pairs 1-10.
    """
    k = len(labels)
    n = 2 * k + 1
    ahead = [(w, gadget_slides(w.pd)) for w in windows]
    first, first_gadget = ahead[0]
    rank = {lab: i for i, lab in enumerate(want)}
    word: List[int] = []
    words: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    u = swaps = done = 0
    while True:
        while done < k and labels[(seam + done) % k] == want[done]:
            done += 1
        if done == k:
            break
        # the insertion sort's next swap, at the first window
        t = ring_target(first.state, labels.index(want[done]) - 1, first.lo, k)
        step = (t - u) % (n * k)
        best, to = min(step, n * k - step) + first_gadget, first
        # the windows ahead, within one lap forwards
        for w, gadget in ahead:
            step = (w.state - u) % n
            if step + gadget < best:
                i = (w.lo + u + step) % k
                y = labels[i]
                if rank[y] > rank[labels[(i + 1) % k]] and (i - seam) % k != k - 1:
                    best, to, t = step + gadget, w, u + step
        word.extend(swap_adjacent(ring, labels, u, to, t, words))
        u = t % (n * k)
        swaps += 1
    return tuple(word), u, swaps, len(words)
