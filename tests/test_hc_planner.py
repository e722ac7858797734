import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrid.corpus import locally_connected_corpus
from trigrid.grid import (build_graph, cycle_edges, edge_key, hexagon_points,
                          star_of_david_points)
from trigrid.hamilton import find_hamilton, find_local_structure
from trigrid.hc_planner import (_label_order, _swap_special, align_with_hamilton,
                                plan_hamilton, swap_adjacent, turning_frame)
from trigrid.placement import Placement, cut_loops, forced_cycle_dominoes, rotate, verify_sequence
from trigrid.plans import PlanError, PlanInvariantError, Transpositions

from conftest import random_placement
from support import (apply_sequence, is_aligned, label_word, reference_slides_within,
                     scan_parity_diamonds, spy_everywhere, verify_word)


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
    assert is_aligned(seq.end, h.order)
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


def _aligned_at_c(g, rng, pd=None):
    if pd is None:
        pd = find_local_structure(g, find_hamilton(g))
    p = random_placement(g, rng)
    seq = align_with_hamilton(p, pd.cycle)
    seq = seq.then(rotate(seq.end, pd.cycle.order, pd.c))
    return pd, seq.end


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
    """On every corpus host, every adjacent pair is exchanged exactly, in a
    frame turned so that the pair sits on the swap dominoes: the end is
    the start turned by lo - j positions, with the two labels exchanged.
    One swap-gadget memo serves each host's swaps, as in a plan."""
    for g in locally_connected_corpus():
        pd, cur = _aligned_at_c(g, rng)
        memo = Transpositions()
        frame = turning_frame(pd)
        dominoes, lo = frame.dominoes, frame.lo          # y's domino follows x's
        k = len(dominoes)
        for j in range(k):
            before = _label_order(cur, dominoes)
            turned = list(cur.pieces)
            for i, lab in enumerate(before):
                turned[lab - 1] = dominoes[(i + lo - j) % k]
            want = _exchanged(g, turned, before[j], before[(j + 1) % k], pd.c)
            step = swap_adjacent(cur, j, frame, memo)
            _assert_reaches(step, want)
            cur = step.end


@functools.lru_cache(maxsize=None)
def _diamonds(name):
    """Every parity diamond on the Hamilton cycle of a corpus host."""
    g = next(g for g in locally_connected_corpus() if g.name == name)
    return g, scan_parity_diamonds(g, find_hamilton(g))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from([g.name for g in locally_connected_corpus()]),
       data=st.data(), rnd=st.randoms(use_true_random=False))
def test_swap_special_exchanges_the_swap_dominoes(name, data, rnd):
    """For any parity diamond on the cycle, not only the one the planner
    picks, `_swap_special` exchanges exactly the labels on the two swap
    dominoes and leaves the gap at c."""
    g, cands = _diamonds(name)
    pd = data.draw(st.sampled_from(cands))
    _, cur = _aligned_at_c(g, rnd, pd)
    frame = turning_frame(pd)
    x, y = (cur.label_at(frame.dominoes[i]) for i in (frame.i_ab, frame.i_v))
    _assert_reaches(_swap_special(cur, frame, Transpositions()),
                    _exchanged(g, cur.pieces, x, y, pd.c))


def test_swap_gadget_is_no_longer_than_the_window_search(rng):
    """On every parity diamond of the corpus hosts whose p1 has three
    vertices, the swap gadget is no longer than the shortest swap the
    restricted BFS finds inside the five vertices a, b, c, d and p1's inner
    vertex. Prints the gadget's length for each length of p1, and the
    window search's."""
    lengths, searched = {}, []
    for name in [g.name for g in locally_connected_corpus()]:
        g, cands = _diamonds(name)
        for pd in cands:
            _, cur = _aligned_at_c(g, rng, pd)
            frame = turning_frame(pd)
            x, y = (cur.label_at(frame.dominoes[i]) for i in (frame.i_ab, frame.i_v))
            want = _exchanged(g, cur.pieces, x, y, pd.c)
            gadget = _swap_special(cur, frame, Transpositions())
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


def test_sort_swaps_are_the_fewest_cyclic_inversions(rng):
    """The sort makes one swap per inversion between p's aligned order,
    read from the gap at c, and the best rotation of q's aligned order."""
    for g in locally_connected_corpus():
        h = find_hamilton(g)
        pd = find_local_structure(g, h)
        for _ in range(3):
            p, q = random_placement(g, rng), random_placement(g, rng)
            sp = align_with_hamilton(p, h)
            at_c = rotate(sp.end, h.order, pd.c).end
            have = _label_order(at_c, forced_cycle_dominoes(h.order, at_c.exposed))
            aq = align_with_hamilton(q, h).end
            want = _label_order(aq, forced_cycle_dominoes(h.order, aq.exposed))
            fewest = min(_inversions(have, want[r:] + want[:r])
                         for r in range(len(want)))
            rep = plan_hamilton(g, p, q)
            assert rep.recursion_trace[-1] == {"phase": "sort", "swaps": fewest}
            assert verify_sequence(rep.start, rep.moves, expected_end=q).matches_expected


def test_swap_gadget_builds_once_per_label_order(monkeypatch):
    """Within a plan, the swap gadget is built at most once for each order
    of the two swapped labels, so at most twice and fewer times than the
    plan swaps; every other swap replays its kept vertices. The plans
    still verify."""
    from trigrid import hc_planner

    builds = []

    class Counting(Transpositions):
        def __call__(self, cur, a, b, key, build):
            def counted(target):
                builds.append(key)
                return build(target)
            return super().__call__(cur, a, b, key, counted)

    monkeypatch.setattr(hc_planner, "Transpositions", Counting)
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
            assert len(builds) <= 2 < rep.recursion_trace[-1]["swaps"]
            assert rep.stats["gadgets"] == len(builds)
            assert rep.stats["swaps"] == rep.recursion_trace[-1]["swaps"]
            assert verify_sequence(rep.start, rep.moves, expected_end=q).matches_expected


def test_plan_hamilton_corrupted_gadget_fails_its_next_hit(monkeypatch):
    """A stored swap gadget that is one move short raises
    PlanInvariantError when a later swap on the same state replays it."""
    from trigrid import hc_planner

    stored = []

    class Corrupting(dict):
        def __setitem__(self, key, kept):
            stored.append(key)
            super().__setitem__(key, kept[:-1])

    def corrupting_memo():
        memo = Transpositions()
        memo.kept = Corrupting()
        return memo

    monkeypatch.setattr(hc_planner, "Transpositions", corrupting_memo)
    g = next(g for g in locally_connected_corpus() if g.name == "para21")
    rng = random.Random(1)
    p, q = random_placement(g, rng), random_placement(g, rng)
    with pytest.raises(PlanInvariantError, match="gadget does not end at the swap target"):
        plan_hamilton(g, p, q)
    assert stored


def test_planner_rotations_match_reference_search(monkeypatch):
    """Every rotation the cycle planner asks for on the cycle-large hosts,
    its swap gadgets' included, replayed through the reference
    breadth-first search over the cycle's edges: the same moves and the
    same end."""
    from trigrid import hc_planner

    calls = []

    def recorded(p, cycle, exposed=None, pieces=()):
        calls.append((p, cycle, exposed, list(pieces)))
        return rotate(p, cycle, exposed, pieces)

    monkeypatch.setattr(hc_planner, "rotate", recorded)
    rng = random.Random(3)
    for g in locally_connected_corpus():
        if g.name in ("para21", "hex23", "para25"):
            for _ in range(2):
                plan_hamilton(g, random_placement(g, rng), random_placement(g, rng))
    assert len(calls) > 60
    for p, cycle, exposed, pieces in calls:
        def goal(s):
            return ((exposed is None or s.exposed == exposed)
                    and all(s.piece(lab) == e for lab, e in pieces))

        ref = reference_slides_within(p, cycle_edges(cycle), goal)
        seq = rotate(p, cycle, exposed, pieces)
        assert label_word(seq) == ref
        end = apply_sequence(p, ref)
        assert seq.end.pieces == end.pieces and seq.end.exposed == end.exposed


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
