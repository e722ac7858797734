import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigrid.grid import (build_graph, cycle_edges, edge_key, hexagon_points,
                          star_of_david_points)
from trigrid.hamilton import find_hamilton, find_local_structure, parity_diamonds
from trigrid.hc_planner import (_nearest_seam, _walk, align_with_hamilton, gadget_slides,
                                gadget_word, plan_hamilton, swap_adjacent, windows_on)
from trigrid.placement import (Placement, PlacementError, SlideSequence, cut_loops,
                               forced_cycle_dominoes, legal_moves, ring_target, rotate, slide,
                               verify_sequence)
from trigrid.plans import PlanError, PlanInvariantError

from conftest import random_placement
from corpus import locally_connected_corpus
from support import (apply_sequence, best_parity_diamond, label_word, reference_gadget,
                     reference_slides_within, replay, scan_parity_diamonds, spy_everywhere,
                     state_placement, verify_word)


@settings(max_examples=100, deadline=None)
@given(host=st.sampled_from(locally_connected_corpus()),
       rnd=st.randoms(use_true_random=False))
def test_align_with_hamilton(host, rnd):
    """Every slide lands on a cycle edge, the end is aligned with the
    cycle, and a placement already aligned with it gets no slides."""
    h = find_hamilton(host)
    p = random_placement(host, rnd)
    seq = align_with_hamilton(p, h)
    assert seq.start.pieces == p.pieces
    assert verify_word(seq, expected_end=seq.end).ok
    assert all(edge_key(mv.kept_vertex, mv.dest_vertex) in h.edges
               for mv in label_word(seq))
    assert seq.end.is_aligned(h.order)
    dominoes = forced_cycle_dominoes(h.order, rnd.choice(h.order))
    rnd.shuffle(dominoes)
    for aligned in (seq.end, Placement.make(host, dominoes)):
        assert align_with_hamilton(aligned, h).kept == ()


def test_plan_hamilton_runs_no_matching_search(monkeypatch, rng):
    """The cycle planner aligns on its cycle's forced dominoes: no blossom
    matching runs while it plans."""
    from trigrid import matching

    def no_blossom(*args, **kwargs):
        raise AssertionError("blossom matching called")

    pairs = [(g, random_placement(g, rng), random_placement(g, rng))
             for g in locally_connected_corpus()[4:]]
    monkeypatch.setattr(matching, "max_cardinality_matching", no_blossom)
    for g, p, q in pairs:
        rep = plan_hamilton(g, p, q)
        assert verify_sequence(rep.start, rep.moves, expected_end=q).ok


def _aligned_at_c(g, rng, h, pd):
    p = random_placement(g, rng)
    seq = align_with_hamilton(p, h)
    return seq.then(rotate(seq.end, h.order, pd.c)).end


def _ring_from(h, v):
    """h's cycle listed from v."""
    i = h.order.index(v)
    return h.order[i:] + h.order[:i]


def _window(h, pd):
    """pd as a window on h's cycle listed from its corner c, at state 0,
    that ring and its forced dominoes from c."""
    ring = _ring_from(h, pd.c)
    return windows_on(ring, [pd])[0], ring, forced_cycle_dominoes(ring, pd.c)


def _labels_at(labels, u):
    """The ring's label list L whose state u reads `labels` from the
    gap: L[(i + u) % k] = labels[i]."""
    k = len(labels)
    return labels[-u % k:] + labels[:-u % k]


def _exchanged(g, pieces, x, y, gap):
    """The placement of `pieces` with the pieces of labels x and y
    exchanged, exposing `gap`."""
    pieces = list(pieces)
    pieces[x - 1], pieces[y - 1] = pieces[y - 1], pieces[x - 1]
    return Placement(g, tuple(pieces), gap)


def _assert_reaches(seq, want):
    """The moves replay legally to `want`, and the sequence ends there."""
    assert verify_word(seq, expected_end=want).matches_expected
    assert seq.end.pieces == want.pieces and seq.end.exposed == want.exposed


def test_swap_adjacent_is_transposition(rng):
    """On every corpus host, every adjacent pair is exchanged exactly, at
    the state of the window's corner that puts the pair on the swap
    dominoes: the word steps the start to the start turned by lo - j
    positions, with the two labels exchanged, and the label list and
    state it ends at stand for that end. One dict of gadget words serves
    each host's swaps, as in a plan."""
    for g in locally_connected_corpus():
        h = find_hamilton(g)
        pd = find_local_structure(g, h)
        cur = _aligned_at_c(g, rng, h, pd)
        words = {}
        w, ring, dominoes = _window(h, pd)
        lo = w.lo                                         # y's domino follows x's
        k = len(dominoes)
        labels, u = cur.ring(ring)[1], 0
        for j in range(k):
            assert state_placement(g, ring, labels, u) == cur
            before = cur.ring(ring)[1]
            turned = list(cur.pieces)
            for i, lab in enumerate(before):
                turned[lab - 1] = dominoes[(i + lo - j) % k]
            want = _exchanged(g, turned, before[j], before[(j + 1) % k], pd.c)
            t = ring_target(w.state, (j + u) % k, lo, k)
            kept = swap_adjacent(ring, labels, u, w, t, words)
            step = SlideSequence(cur, kept, state_placement(g, ring, labels, t))
            _assert_reaches(step, want)
            cur, u = step.end, t


def test_sort_turns_match_rotate(rng):
    """Each turn of the sort, for every start position p of the label
    list, has the word and the end that `rotate` gives for the same
    placement and goals: the gap at the corner of the window turned to and
    the label at p on its lower swap domino. On every parity diamond of
    every corpus host, so on rings of an even number of dominoes too,
    where a half-lap turn ties and `rotate`'s tie rule picks the
    direction; from the diamond's own corner and from the first window's,
    as the sort turns mid-lap. The ring is listed from the first window's
    corner, as in a plan."""
    for name in [g.name for g in locally_connected_corpus()]:
        g, cands = _diamonds(name)
        h = find_hamilton(g)
        first = best_parity_diamond(cands)
        ring = _ring_from(h, first.c)
        k = len(ring) // 2
        at_first, *windows = windows_on(ring, [first] + cands)
        for w in windows:
            dominoes = forced_cycle_dominoes(h.order, w.pd.c)
            for frm in (w, at_first):
                cur = _aligned_at_c(g, rng, h, frm.pd)
                labels = _labels_at(cur.ring(h.order)[1], frm.state)
                assert state_placement(g, ring, labels, frm.state) == cur
                for p in range(k):
                    t = ring_target(w.state, p, w.lo, k)
                    ref = rotate(cur, h.order, w.pd.c, [(labels[p], dominoes[w.lo])])
                    assert _walk(ring, labels, frm.state, t) == ref.kept
                    assert state_placement(g, ring, labels, t) == ref.end


def test_every_window_swaps_mid_lap(rng):
    """On every corpus host, the gap at the first window's corner: going
    on forwards, less than a lap, to each window's corner, its gadget
    exchanges the two labels on its swap dominoes and returns the gap to
    its corner, and the order `swap_adjacent` returns is that end's. One
    dict of gadget words serves each host's windows, as in a plan, and
    holds one word per window."""
    for g in locally_connected_corpus():
        h = find_hamilton(g)
        diamonds = parity_diamonds(g, h)
        cur = _aligned_at_c(g, rng, h, diamonds[0])
        ring = _ring_from(h, diamonds[0].c)
        labels = cur.ring(ring)[1]
        k, words = len(labels), {}
        for w in windows_on(ring, diamonds):
            dominoes = forced_cycle_dominoes(h.order, w.pd.c)
            t = w.state
            mid = rotate(cur, h.order, w.pd.c, [(labels[(w.lo + t) % k], dominoes[w.lo])])
            assert len(mid) == t < len(ring)
            want = _exchanged(g, mid.end.pieces, *(mid.end.label_at(dominoes[i])
                                                   for i in (w.i_ab, w.i_v)), w.pd.c)
            end = list(labels)
            kept = swap_adjacent(ring, end, 0, w, t, words)
            _assert_reaches(SlideSequence(cur, kept, state_placement(g, ring, end, t)), want)
            assert len(kept) == t + gadget_slides(w.pd)
        assert len(words) == len(diamonds)


@functools.lru_cache(maxsize=None)
def _diamonds(name):
    """Every parity diamond on the Hamilton cycle of a corpus host."""
    g = next(g for g in locally_connected_corpus() if g.name == name)
    return g, scan_parity_diamonds(g, find_hamilton(g))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from([g.name for g in locally_connected_corpus()]),
       data=st.data(), rnd=st.randoms(use_true_random=False))
def test_gadget_word_exchanges_the_swap_dominoes(name, data, rnd):
    """For any parity diamond on the cycle, not only the one the planner
    picks, `gadget_word`'s word exchanges exactly the labels on the two
    swap dominoes and leaves the gap at c."""
    g, cands = _diamonds(name)
    h = find_hamilton(g)
    pd = data.draw(st.sampled_from(cands))
    cur = _aligned_at_c(g, rnd, h, pd)
    w, _, dominoes = _window(h, pd)
    x, y = (cur.label_at(dominoes[i]) for i in (w.i_ab, w.i_v))
    _assert_reaches(replay(cur, gadget_word(w, cur.ring(h.order)[1])),
                    _exchanged(g, cur.pieces, x, y, pd.c))


def test_gadget_word_matches_the_rotation_built_gadget():
    """On every parity diamond of every corpus host, `hex37` and `hex61`,
    as a window on the Hamilton cycle listed from its first vertex: the
    window's state puts the gap on c, and counted from c its domino i_ab
    is (a, b), i_v holds p1[-2] and i_d holds d. Over shuffled label
    orders, read from c at the window's state, `gadget_word` is the word
    of the gadget built by a slide and two `rotate` calls on the
    placement the order stands for (`support.reference_gadget`), and
    `gadget_slides` long. Both ways round the tied lap on a p1 of five
    vertices are taken."""
    rnd = random.Random(39)
    hosts = locally_connected_corpus() + [build_graph(hexagon_points(r)) for r in (3, 4)]
    laps = set()
    for g in hosts:
        h = find_hamilton(g)
        ring, n = h.order, len(h.order)
        for w in windows_on(ring, scan_parity_diamonds(g, h)):
            pd = w.pd
            assert ring[2 * w.state % n] == pd.c
            dominoes = forced_cycle_dominoes(ring, pd.c)
            assert dominoes[w.i_ab] == edge_key(pd.a, pd.b)
            assert pd.p1[-2] in dominoes[w.i_v] and pd.d in dominoes[w.i_d]
            order = list(range(1, g.n + 1))
            for _ in range(3):
                rnd.shuffle(order)
                word = gadget_word(w, order)
                cur = state_placement(g, ring, _labels_at(order, w.state), w.state)
                assert word == reference_gadget(cur, pd).kept
                assert len(word) == gadget_slides(pd)
                if len(pd.p1) == 5:
                    laps.add(word[1] == pd.d)          # a lap forwards keeps d first
    assert laps == {False, True}


def test_swap_gadget_is_no_longer_than_the_window_search(rng):
    """On every parity diamond of the corpus hosts whose p1 has three
    vertices, the swap gadget is no longer than the shortest swap the
    restricted BFS finds inside the five vertices a, b, c, d and p1's inner
    vertex. Prints the gadget's length for each length of p1, and the
    window search's."""
    lengths, searched = {}, []
    for name in [g.name for g in locally_connected_corpus()]:
        g, cands = _diamonds(name)
        h = find_hamilton(g)
        for pd in cands:
            cur = _aligned_at_c(g, rng, h, pd)
            w, _, dominoes = _window(h, pd)
            x, y = (cur.label_at(dominoes[i]) for i in (w.i_ab, w.i_v))
            want = _exchanged(g, cur.pieces, x, y, pd.c)
            gadget = replay(cur, gadget_word(w, cur.ring(h.order)[1]))
            _assert_reaches(gadget, want)
            lengths.setdefault(len(pd.p1), set()).add(len(gadget))
            if len(pd.p1) == 3:
                vs = {pd.a, pd.b, pd.c, pd.d, pd.p1[1]}
                window = {e for e in g.edges if e[0] in vs and e[1] in vs}
                ref = reference_slides_within(cur, window,
                                              lambda s: s.pieces == want.pieces)
                assert ref is not None and len(gadget) <= len(ref)
                searched.append(len(ref))
    assert len(searched) == 15
    print("\nswap gadget slides by p1 vertices:",
          ", ".join(f"{n}: {sorted(lengths[n])}" for n in sorted(lengths)))
    print(f"window search slides on the {len(searched)} diamonds with a p1 of 3:",
          sorted(set(searched)))


def _inversions(have, want):
    pos = {lab: i for i, lab in enumerate(have)}
    s = [pos[lab] for lab in want]
    return sum(s[i] > s[t] for i in range(len(s)) for t in range(i + 1, len(s)))


def _fewest_inversions(have, goal):
    """(inversions, seam, shift) of the fewest inversions between have cut
    at a seam and goal turned left by a shift, over every seam and shift,
    ties to the smallest seam, then the smallest shift."""
    k = len(have)
    return min((_inversions(have[s:] + have[:s], goal[r:] + goal[:r]), s, r)
               for s in range(k) for r in range(k))


@settings(max_examples=200, deadline=None)
@given(labels=st.integers(1, 9).flatmap(
    lambda k: st.tuples(st.permutations(range(1, k + 1)), st.permutations(range(1, k + 1)))))
@example(labels=([1], [1]))
@example(labels=([1, 2], [1, 2]))
@example(labels=([1, 2], [2, 1]))
def test_nearest_seam_is_the_brute_force_minimum(labels):
    """`_nearest_seam` returns the seam and rotation of the brute-force
    minimum over every seam and rotation, ties to the smallest seam, then
    the smallest shift."""
    have, goal = (list(x) for x in labels)
    _, seam, shift = _fewest_inversions(have, goal)
    assert _nearest_seam(have, goal) == (seam, goal[shift:] + goal[:shift])


def test_label_order_refuses_a_domino_without_a_piece(hex7):
    """`Placement.ring`, which reads the planner's label orders, reads
    each domino's label off the cover map and refuses a cycle one of
    whose forced dominoes holds no piece: after a slide onto a chord."""
    order = find_hamilton(hex7).order
    p = Placement.make(hex7, forced_cycle_dominoes(order, order[0]))
    assert p.ring(order) == (order, [1, 2, 3])
    chord = next(mv for mv in legal_moves(p) if mv.kept_vertex not in (order[1], order[-1]))
    with pytest.raises(PlacementError, match="^placement is not aligned with the cycle$"):
        slide(p, chord).ring(order)


def test_sort_swaps_are_the_fewest_cyclic_inversions(rng):
    """The sort makes one swap per inversion between p's aligned order,
    read from the gap at c and cut at the best seam, and the best rotation
    of q's aligned order: the fewest over every seam and rotation."""
    for g in locally_connected_corpus():
        h = find_hamilton(g)
        pd = find_local_structure(g, h)
        for _ in range(3):
            p, q = random_placement(g, rng), random_placement(g, rng)
            sp = align_with_hamilton(p, h)
            at_c = rotate(sp.end, h.order, pd.c).end
            have = at_c.ring(h.order)[1]
            aq = align_with_hamilton(q, h).end
            want = aq.ring(h.order)[1]
            fewest, _, _ = _fewest_inversions(have, want)
            rep = plan_hamilton(g, p, q)
            assert rep.stats["swaps"] == fewest
            assert verify_sequence(rep.start, rep.moves, expected_end=q).matches_expected


def test_swap_gadget_builds_once_per_label_order(monkeypatch):
    """Within a plan, the swap gadget's word is made once at each window
    that swaps, whatever the order of the two swapped labels, so no more
    times than the plan swaps; every other swap there reuses it. The plans
    still verify."""
    from trigrid import hc_planner

    builds = []

    def counted(w, order):
        pd = w.pd
        builds.append((pd.a, pd.b, pd.c, pd.d))
        return gadget_word(w, order)

    monkeypatch.setattr(hc_planner, "gadget_word", counted)
    rng = random.Random(1)
    for g in locally_connected_corpus():
        if g.name not in ("para21", "hex23", "para25"):
            continue
        h = find_hamilton(g)
        assert len(find_local_structure(g, h).p1) == 3
        for _ in range(3):
            p, q = random_placement(g, rng), random_placement(g, rng)
            builds.clear()
            rep = plan_hamilton(g, p, q)
            assert len(set(builds)) == len(builds) == rep.stats["windows"]
            assert len(builds) <= rep.stats["swaps"]
            assert rep.stats["gadgets"] == len(builds)
            assert verify_sequence(rep.start, rep.moves, expected_end=q).matches_expected


def test_sort_takes_the_cheaper_move_at_every_swap(monkeypatch):
    """Every swap of the sort removes one inversion of `have`, never across
    its seam, and costs the fewest slides of its two moves: the insertion
    sort's next swap at the first window, after the shorter turn either
    way, or going on forwards, less than a lap, to a window whose pair is
    an inversion when the gap reaches its corner. The states of a turn
    and the distance to a corner are found by stepping the gap two places
    a slide along the ring and the label list one place. `have` is the
    label list read from the seam `_sort` was given."""
    from trigrid import hc_planner

    sort, swap = hc_planner._sort, hc_planner.swap_adjacent
    sorts, steps = [], []

    def recorded_sort(ring, windows, labels, seam, want):
        sorts.append((ring, windows, labels[seam:] + labels[:seam], want))
        return sort(ring, windows, labels, seam, want)

    def recorded_swap(ring, labels, u, w, t, words):
        before = list(labels)
        kept = swap(ring, labels, u, w, t, words)
        steps.append((before, u, w, t, len(kept)))
        return kept

    monkeypatch.setattr(hc_planner, "_sort", recorded_sort)
    monkeypatch.setattr(hc_planner, "swap_adjacent", recorded_swap)
    rng = random.Random(2)
    windows_ahead = 0
    for g in locally_connected_corpus():
        if g.name not in ("hex19", "para21", "hex23", "para25"):
            continue
        for _ in range(2):
            sorts.clear()
            steps.clear()
            plan_hamilton(g, random_placement(g, rng), random_placement(g, rng))
            ((ring, windows, have, want),) = sorts
            first, k = windows[0], len(have)
            n = 2 * k + 1

            def inversion(x, y):
                i = have.index(x)
                return i < k - 1 and have[i + 1] == y and want.index(x) > want.index(y)

            for labels, u, w, t, spent in steps:
                lab = next(b for a, b in zip(have, want) if a != b)
                x = have[have.index(lab) - 1]
                turn = next(v for v in range(n * k) if ring[2 * v % n] == first.pd.c
                            and labels[(first.lo + v) % k] == x)
                turn = (turn - u) % (n * k)
                cheapest = min(turn, n * k - turn) + gadget_slides(first.pd)
                best_ahead = None
                for f in windows:
                    step = next(v for v in range(n) if ring[2 * (u + v) % n] == f.pd.c)
                    i = (f.lo + u + step) % k
                    if inversion(labels[i], labels[(i + 1) % k]):
                        cost = step + gadget_slides(f.pd)
                        best_ahead = cost if best_ahead is None else min(best_ahead, cost)
                if best_ahead is not None and best_ahead < cheapest:
                    cheapest = best_ahead
                    windows_ahead += 1
                assert spent == cheapest
                x, y = labels[(w.lo + t) % k], labels[(w.lo + t + 1) % k]
                assert inversion(x, y)
                i = have.index(x)
                have[i], have[i + 1] = y, x
            assert have == want
    assert windows_ahead > 20


# total slides of the cycle plans over pairs 1-10 (the first two placements
# `random_placement` draws from random.Random(k)) when the sort swapped at
# the first window alone
FIRST_WINDOW_SLIDES = {"pent5": 30, "hex7": 111, "hex9": 316, "hex11": 495, "hex13": 1245,
                       "para15": 1798, "hex19": 4310, "para21": 5770, "hex23": 8301,
                       "para25": 11668, "hex37": 38837}
# the same totals when the sort cut the cyclic order at the first window's
# domino 0 and chose only the rotation of the target's order
SEAM_ZERO_SLIDES = {"pent5": 30, "hex7": 111, "hex9": 316, "hex11": 448, "hex13": 942,
                    "para15": 1364, "hex19": 3087, "para21": 4284, "hex23": 5871,
                    "para25": 6000, "hex37": 17906}


def test_windows_shorten_mean_plans_on_every_host(capsys):
    """Over pairs 1-10, no corpus host's mean cycle plan, nor `hex37`'s, is
    longer than when the sort swapped at the first window alone, and
    `para25`'s and `hex37`'s are at least 25% shorter. Nor is any longer
    than when the sort's seam was fixed at domino 0, and `hex23`'s,
    `para25`'s and `hex37`'s are at least 10% shorter. Prints the three
    means for each host."""
    hosts = locally_connected_corpus() + [build_graph(hexagon_points(3), name="hex37")]
    lines = []
    for g in hosts:
        total = 0
        for k in range(1, 11):
            rng = random.Random(k)
            total += plan_hamilton(g, random_placement(g, rng), random_placement(g, rng)).slide_count
        before, seam0 = FIRST_WINDOW_SLIDES[g.name], SEAM_ZERO_SLIDES[g.name]
        lines.append(f"{g.name}: mean {total / 10:.1f} slides, first window alone "
                     f"{before / 10:.1f} ({(total - before) / before:+.1%}), seam at "
                     f"domino 0 {seam0 / 10:.1f} ({(total - seam0) / seam0:+.1%})")
        assert total <= before and total <= seam0, lines[-1]
        if g.name in ("para25", "hex37"):
            assert total <= 0.75 * before, lines[-1]
        if g.name in ("hex23", "para25", "hex37"):
            assert total <= 0.9 * seam0, lines[-1]
    with capsys.disabled():
        print("\ncycle plans over pairs 1-10:\n" + "\n".join(lines))


def test_plan_hamilton_corrupted_gadget_fails_verification(monkeypatch):
    """A swap gadget's word one move short is caught by `finish_plan`'s one
    check of the whole plan, which raises PlanInvariantError."""
    from trigrid import hc_planner

    made = []

    def short(w, order):
        made.append(w)
        return gadget_word(w, order)[:-1]

    monkeypatch.setattr(hc_planner, "gadget_word", short)
    g = next(g for g in locally_connected_corpus() if g.name == "para21")
    rng = random.Random(1)
    p, q = random_placement(g, rng), random_placement(g, rng)
    with pytest.raises(PlanInvariantError, match="^plan verification failed: "):
        plan_hamilton(g, p, q)
    assert made


def test_planner_rotations_match_reference_search(monkeypatch):
    """Every rotation the cycle planner makes on the cycle-large hosts,
    replayed through the reference breadth-first search over the cycle's
    edges: the same moves and the same end. They are the turn to the first
    corner, the sort's turns, those that go on to another window's corner
    mid-lap too, each gadget word's lap and turn (the two `rotate` calls of
    `support.reference_gadget`, whose word it equals) and the last turn,
    into q's frame."""
    import support
    from trigrid import hc_planner

    calls, mid_lap, gadgets, last = [], [], [], []
    turning, host = [], []

    def recorded(p, cycle, exposed=None, pieces=()):
        pieces = list(pieces)
        seq = rotate(p, cycle, exposed, pieces)
        calls.append((p, cycle, exposed, pieces, seq))
        return seq

    def recorded_swap(ring, labels, u, w, t, words):
        turning.append(w)
        mid_lap.append(u % len(ring) != w.state)
        kept = swap_adjacent(ring, labels, u, w, t, words)
        turning.pop()
        return kept

    def recorded_walk(ring, labels, u, t):
        kept = _walk(ring, labels, u, t)
        g, k = host[0], len(labels)
        p, end = state_placement(g, ring, labels, u), state_placement(g, ring, labels, t)
        if turning:          # a sort's turn: the gap at w's corner, a label on its lower swap domino
            w = turning[-1]
            goal = [(labels[(w.lo + t) % k], forced_cycle_dominoes(ring, w.pd.c)[w.lo])]
            calls.append((p, ring, w.pd.c, goal, SlideSequence(p, kept, end)))
        else:                # the last turn
            calls.append((p, ring, end.exposed, list(enumerate(end.pieces, 1)),
                          SlideSequence(p, kept, end)))
            last.append(len(kept))
        return kept

    def recorded_gadget(w, order):
        word = gadget_word(w, order)
        cur = state_placement(host[0], _ring_from(host[1], w.pd.c), order)
        assert word == reference_gadget(cur, w.pd).kept
        gadgets.append(w.pd)
        return word

    monkeypatch.setattr(hc_planner, "rotate", recorded)
    monkeypatch.setattr(support, "rotate", recorded)
    monkeypatch.setattr(hc_planner, "swap_adjacent", recorded_swap)
    monkeypatch.setattr(hc_planner, "_walk", recorded_walk)
    monkeypatch.setattr(hc_planner, "gadget_word", recorded_gadget)
    rng = random.Random(3)
    plans = 0
    for g in locally_connected_corpus():
        if g.name in ("para21", "hex23", "para25"):
            host[:] = [g, find_hamilton(g)]
            for _ in range(2):
                before = len(gadgets)
                rep = plan_hamilton(g, random_placement(g, rng), random_placement(g, rng))
                plans += 1
                assert len(gadgets) - before == rep.stats["gadgets"]
    assert len(calls) > 60
    assert 0 < sum(mid_lap) < len(mid_lap)
    assert len(last) == plans and any(last)
    assert len({(pd.a, pd.b, pd.c, pd.d) for pd in gadgets}) > 3
    for p, cycle, exposed, pieces, seq in calls:
        def goal(s):
            return ((exposed is None or s.exposed == exposed)
                    and all(s.piece(lab) == e for lab, e in pieces))

        ref = reference_slides_within(p, cycle_edges(cycle), goal)
        assert label_word(seq) == ref
        end = apply_sequence(p, ref)
        assert seq.end.pieces == end.pieces and seq.end.exposed == end.exposed


def test_plan_hamilton_builds_no_placement_after_the_first_corner(monkeypatch):
    """On hosts of five or more vertices, `rotate` runs once a plan, the
    turn to the first window's corner, and from there to `finish_plan` no
    `Placement` is built: the sort, its gadgets and the last turn are
    arithmetic on the list of labels."""
    from trigrid import hc_planner
    from trigrid.plans import finish_plan

    events = []

    def recorder(name, fn, on_return=False):
        def recorded(*args, **kwargs):
            if not on_return:
                events.append(name)
            out = fn(*args, **kwargs)
            if on_return:
                events.append(name)
            return out
        return recorded

    monkeypatch.setattr(hc_planner, "rotate", recorder("rotate", rotate, on_return=True))
    monkeypatch.setattr(hc_planner, "finish_plan", recorder("finish", finish_plan))
    monkeypatch.setattr(Placement, "__init__", recorder("Placement", Placement.__init__))
    rng = random.Random(4)
    for g in locally_connected_corpus():
        for _ in range(2):
            p, q = random_placement(g, rng), random_placement(g, rng)
            events.clear()
            rep = plan_hamilton(g, p, q)
            assert events.count("rotate") == 1 and events.count("finish") == 1
            at, done = events.index("rotate"), events.index("finish")
            assert events[at + 1:done] == []
            assert rep.stats["swaps"] == 0 or rep.stats["gadgets"] > 0


def test_plan_hamilton_identity(hex7, rng):
    p = random_placement(hex7, rng)
    rep = plan_hamilton(hex7, p, p)
    assert rep.moves == ()
    assert verify_sequence(rep.start, rep.moves, expected_end=p).matches_expected


def test_plan_hamilton_pentagon_pairs(pentagon, rng):
    for _ in range(10):
        p = random_placement(pentagon, rng)
        q = random_placement(pentagon, rng)
        rep = plan_hamilton(pentagon, p, q)
        assert rep.strategy == "hamilton"
        assert rep.slide_count == len(rep.moves)
        check = verify_sequence(rep.start, rep.moves, expected_end=q)
        assert check.ok and check.matches_expected


def test_plan_hamilton_corpus_sample(rng):
    for g in locally_connected_corpus()[:5]:
        for _ in range(3):
            p = random_placement(g, rng)
            q = random_placement(g, rng)
            rep = plan_hamilton(g, p, q)
            check = verify_sequence(rep.start, rep.moves, expected_end=q)
            assert check.ok and check.matches_expected


def test_plan_hamilton_hex37():
    """One seeded pair on the 37-vertex hexagon, larger than any host of
    `locally_connected_corpus()`."""
    g = build_graph(hexagon_points(3))
    rng = random.Random(1)
    p, q = random_placement(g, rng), random_placement(g, rng)
    rep = plan_hamilton(g, p, q)
    check = verify_sequence(rep.start, rep.moves, expected_end=q)
    assert check.ok and check.matches_expected


def test_plan_hamilton_cuts_loops_once(monkeypatch, rng):
    """Each cycle plan is cut once, whole, in `finish_plan`: no swap gadget
    is cut on its own."""
    calls = spy_everywhere(monkeypatch, cut_loops)
    for g in locally_connected_corpus()[4:]:
        p, q = random_placement(g, rng), random_placement(g, rng)
        calls.clear()
        rep = plan_hamilton(g, p, q)
        assert rep.stats["swaps"] > 0
        assert len(calls) == 1 and len(calls[0][0]) == rep.stats["uncut_slides"]


def test_plan_hamilton_refuses_star_of_david():
    from trigrid.matching import enumerate_near_perfect_matchings
    g = build_graph(star_of_david_points())
    m = enumerate_near_perfect_matchings(g)[0]
    p = Placement.make(g, sorted(m.edges))
    with pytest.raises(PlanError):
        plan_hamilton(g, p, p)
