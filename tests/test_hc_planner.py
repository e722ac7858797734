import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrid.corpus import locally_connected_corpus
from trigrid.ear_planner import PlanError, forced_cycle_dominoes
from trigrid.grid import build_graph, edge_key, hexagon_points, star_of_david_points
from trigrid.hamilton import find_hamilton, find_local_structure
from trigrid.hc_planner import (_dominoes, _label_order, align_with_hamilton,
                                plan_hamilton, swap_adjacent)
from trigrid.placement import (Placement, RotationSpec, is_aligned, rotate,
                               verify_sequence)

from conftest import random_placement


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
    assert verify_sequence(seq, expected_end=seq.end).ok
    assert all(edge_key(mv.kept_vertex, mv.dest_vertex) in h.edges
               for mv in seq.moves)
    assert is_aligned(seq.end, h.order)
    dominoes = forced_cycle_dominoes(h.order, rnd.choice(h.order))
    rnd.shuffle(dominoes)
    for aligned in (seq.end, Placement.make(host, dominoes)):
        assert align_with_hamilton(aligned, h).moves == ()


def test_plan_hamilton_runs_no_matching_search(monkeypatch, rng):
    """The cycle planner aligns on its cycle's forced dominoes: no blossom
    matching runs while it plans."""
    import networkx

    def no_blossom(*args, **kwargs):
        raise AssertionError("blossom matching called")

    pairs = [(g, random_placement(g, rng), random_placement(g, rng))
             for g in locally_connected_corpus()[4:]]
    monkeypatch.setattr(networkx, "max_weight_matching", no_blossom)
    for g, p, q in pairs:
        assert verify_sequence(plan_hamilton(g, p, q).sequence, expected_end=q).ok


def _aligned_at_c(g, rng):
    h = find_hamilton(g)
    pd = find_local_structure(g, h)
    p = random_placement(g, rng)
    seq = align_with_hamilton(p, pd.cycle)
    seq = seq.then(rotate(seq.end, RotationSpec(pd.cycle.order,
                                                target_exposed=pd.c)))
    return pd, seq.end


def test_swap_adjacent_is_transposition(hex7, rng):
    pd, cur = _aligned_at_c(hex7, rng)
    dominoes = _dominoes(pd, cur)
    for j in range(len(dominoes)):
        before = _label_order(cur, dominoes)
        step = swap_adjacent(cur, j, pd)
        after = _label_order(step.end, dominoes)
        k = (j + 1) % len(dominoes)
        want = list(before)
        want[j], want[k] = want[k], want[j]
        assert after == want
        assert step.end.exposed == pd.c
        rep = verify_sequence(step)
        assert rep.ok


def test_plan_hamilton_identity(hex7, rng):
    p = random_placement(hex7, rng)
    rep = plan_hamilton(hex7, p, p)
    assert rep.sequence.end.pieces == p.pieces
    assert rep.sequence.end.exposed == p.exposed


def test_plan_hamilton_pentagon_pairs(pentagon, rng):
    for _ in range(10):
        p = random_placement(pentagon, rng)
        q = random_placement(pentagon, rng)
        rep = plan_hamilton(pentagon, p, q)
        assert rep.strategy == "hamilton"
        assert rep.slide_count == len(rep.sequence.moves)
        check = verify_sequence(rep.sequence, expected_end=q)
        assert check.ok and check.matches_expected


def test_plan_hamilton_corpus_sample(rng):
    for g in locally_connected_corpus()[:5]:
        for _ in range(3):
            p = random_placement(g, rng)
            q = random_placement(g, rng)
            rep = plan_hamilton(g, p, q)
            check = verify_sequence(rep.sequence, expected_end=q)
            assert check.ok and check.matches_expected


def test_plan_hamilton_hex37():
    """One seeded pair on the 37-vertex hexagon, larger than any host of
    `locally_connected_corpus()`."""
    g = build_graph(hexagon_points(3))
    rng = random.Random(1)
    p, q = random_placement(g, rng), random_placement(g, rng)
    rep = plan_hamilton(g, p, q)
    check = verify_sequence(rep.sequence, expected_end=q)
    assert check.ok and check.matches_expected


def test_plan_hamilton_refuses_star_of_david():
    from trigrid.matching import enumerate_near_perfect_matchings
    g = build_graph(star_of_david_points())
    m = enumerate_near_perfect_matchings(g)[0]
    p = Placement.make(g, sorted(m.edges))
    with pytest.raises(PlanError):
        plan_hamilton(g, p, p)
