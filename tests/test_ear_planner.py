import itertools

import pytest

from trigrid import matching
from trigrid.corpus import degree6_corpus
from trigrid.ear_planner import (PlanError, PlanInvariantError, _Planner,
                                 base_diamond_cycle, base_pentagon, plan_ear)
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
    blossom call is keyed by the adjacency it runs on, which names the
    level (its edge set) and the exposed vertex (the one left out)."""
    g = build_graph(hexagon_points(2))
    p, q = random_placement(g, rng), random_placement(g, rng)
    calls = []
    blossom = matching.max_cardinality_matching

    def counting(adj):
        calls.append((frozenset(adj),
                      frozenset(edge_key(v, w) for v in adj for w in adj[v])))
        return blossom(adj)

    monkeypatch.setattr(matching, "max_cardinality_matching", counting)
    find_admissible(g)                   # plan_ear runs this search first
    search = len(calls)
    calls.clear()
    rep = plan_ear(g, p, q)
    level_calls = calls[search:]
    assert rep.recursion_trace and level_calls
    assert len(level_calls) == len(set(level_calls))


def _gadget_key(i, cur, a, b):
    return (i, frozenset(cur.pieces), cur.exposed,
            frozenset((cur.piece(a), cur.piece(b))))


def test_plan_ear_builds_each_gadget_once(monkeypatch, rng):
    """A transposition of two positions from one unlabeled state re-plans
    level i - 1 once per plan; later swaps of the same key replay it."""
    g = build_graph(hexagon_points(2))
    p, q = random_placement(g, rng), random_placement(g, rng)
    swaps, builds, open_swaps = [], [], []
    swap, plan = _Planner._swap, _Planner.plan

    def counting_swap(self, i, cur, a, b):
        swaps.append(_gadget_key(i, cur, a, b))
        open_swaps.append(swaps[-1])
        try:
            return swap(self, i, cur, a, b)
        finally:
            open_swaps.pop()

    def counting_plan(self, i, p_, q_):
        if open_swaps and open_swaps[-1] is not None:
            builds.append(open_swaps[-1])     # the swap's own re-plan of level i - 1
            open_swaps[-1] = None
        return plan(self, i, p_, q_)

    monkeypatch.setattr(_Planner, "_swap", counting_swap)
    monkeypatch.setattr(_Planner, "plan", counting_plan)
    rep = plan_ear(g, p, q)
    assert builds and len(builds) == len(set(builds)) == len(set(swaps))
    assert len(builds) < len(swaps)
    assert rep.stats["swaps"] == len(swaps) and rep.stats["gadgets"] == len(builds)
    check = verify_sequence(rep.sequence, expected_end=q)
    assert check.ok and check.matches_expected


def test_plan_ear_corrupted_gadget_fails_its_next_hit(monkeypatch, rng):
    """A stored gadget that no longer transposes its two positions raises
    PlanInvariantError when a later swap replays it."""
    g = build_graph(hexagon_points(2))
    p, q = random_placement(g, rng), random_placement(g, rng)
    stored = []

    class Corrupting(dict):
        def __setitem__(self, key, kept):
            stored.append(key)
            super().__setitem__(key, kept[:-1])

    init = _Planner.__init__

    def corrupting_init(self, *args):
        init(self, *args)
        self.gadgets = Corrupting()

    monkeypatch.setattr(_Planner, "__init__", corrupting_init)
    with pytest.raises(PlanInvariantError, match="gadget does not end at the swap target"):
        plan_ear(g, p, q)
    assert stored
