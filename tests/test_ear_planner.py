import itertools

import pytest

from trigrid import matching
from trigrid.corpus import degree6_corpus
from trigrid.ear_planner import (PlanError, base_diamond_cycle, base_pentagon,
                                 plan_ear)
from trigrid.ears import find_admissible
from trigrid.grid import build_graph, diamond_cycle_graph, edge_key, hexagon_points
from trigrid.matching import enumerate_near_perfect_matchings
from trigrid.oracle import bfs_component
from trigrid.placement import Placement, verify_sequence

from conftest import random_placement


def _all_states(g):
    out = []
    for m in enumerate_near_perfect_matchings(g):
        for perm in itertools.permutations(sorted(m.edges)):
            out.append(Placement.make(g, perm))
    return out


def test_base_pentagon_all_pairs(pentagon):
    states = _all_states(pentagon)
    for p in states:
        for q in states:
            seq = base_pentagon(p, q)
            assert len(seq) <= 8
            rep = verify_sequence(seq, expected_end=q)
            assert rep.ok and rep.matches_expected


@pytest.mark.parametrize("n", [3, 4])
def test_base_diamond_cycle_bound(n, rng):
    g = diamond_cycle_graph(n)
    for _ in range(25):
        p = random_placement(g, rng)
        q = random_placement(g, rng)
        seq = base_diamond_cycle(p, q)
        assert len(seq) <= n ** 3 + n ** 2
        rep = verify_sequence(seq, expected_end=q)
        assert rep.ok and rep.matches_expected


def test_plan_ear_report_fields(pentagon, rng):
    p = random_placement(pentagon, rng)
    q = random_placement(pentagon, rng)
    rep = plan_ear(pentagon, p, q)
    assert rep.strategy == "ear"
    assert rep.slide_count == len(rep.sequence.moves)
    check = verify_sequence(rep.sequence, expected_end=q)
    assert check.ok and check.matches_expected


def test_plan_ear_identity(pentagon, rng):
    p = random_placement(pentagon, rng)
    rep = plan_ear(pentagon, p, p)
    assert rep.sequence.end.pieces == p.pieces
    assert rep.sequence.end.exposed == p.exposed


def test_plan_ear_corpus_sample(rng):
    for g in degree6_corpus(max_vertices=9):
        for _ in range(5):
            p = random_placement(g, rng)
            q = random_placement(g, rng)
            rep = plan_ear(g, p, q)
            check = verify_sequence(rep.sequence, expected_end=q)
            assert check.ok and check.matches_expected


def test_plan_ear_matches_oracle_reachability(rng):
    g = next(iter(degree6_corpus(max_vertices=7)))
    p = random_placement(g, rng)
    comp = bfs_component(g, p)
    for _ in range(5):
        q = random_placement(g, rng)
        assert comp.contains(q)
        rep = plan_ear(g, p, q)
        assert len(rep.sequence) >= comp.distance_to(q)


def test_plan_ear_refuses_triangle():
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    p = Placement.make(g, [(1, 2)])
    with pytest.raises(Exception):
        plan_ear(g, p, p)


def test_base_pentagon_goal_outside_edges(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    q = Placement.make(pentagon, [(1, 2), (4, 5)])
    assert len(base_pentagon(p, q)) >= 1
    with pytest.raises(PlanError):
        base_pentagon(p, q, set(pentagon.edges) - {(1, 2)})


def test_plan_ear_matches_each_level_once(monkeypatch, rng):
    """One plan computes the matching of G_i exposing v at most once per
    (level, vertex), however often the recursion re-plans a level. Each
    blossom call is keyed by the graph it runs on, which names the level
    (its edge set) and the exposed vertex (the one left out)."""
    g = build_graph(hexagon_points(2))
    p, q = random_placement(g, rng), random_placement(g, rng)
    calls = []
    blossom = matching.nx.max_weight_matching

    def counting(h, *args, **kwargs):
        calls.append((frozenset(h.nodes), frozenset(edge_key(*e) for e in h.edges)))
        return blossom(h, *args, **kwargs)

    monkeypatch.setattr(matching.nx, "max_weight_matching", counting)
    find_admissible(g)                   # plan_ear runs this search first
    search = len(calls)
    calls.clear()
    rep = plan_ear(g, p, q)
    level_calls = calls[search:]
    assert rep.recursion_trace and level_calls
    assert len(level_calls) == len(set(level_calls))
