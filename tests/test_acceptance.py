"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion, each asserting its stated bound and time budget."""

import math
import random
import time

import networkx as nx
import pytest

from trigrid.ear_planner import base_diamond_cycle, plan_ear
from trigrid.ears import NoAdmissibleError, find_admissible
from trigrid.grid import (build_graph, chord_cycle_graph, diamond_cycle_graph,
                          edge_key, hex_with_hole_graph, hexagon_points,
                          star_of_david_points)
from trigrid.hamilton import find_hamilton, find_local_structure, validate_cycle
from trigrid.hc_planner import plan_hamilton
from trigrid.matching import (enumerate_near_perfect_matchings,
                              is_factor_critical)
from trigrid.oracle import (bfs_component, is_reconfigurable_bruteforce,
                            state_count)
from trigrid.placement import Placement, rotate, verify_sequence
from trigrid.plans import PlanError

from conftest import random_placement
from corpus import degree6_corpus, locally_connected_corpus
from dual_forests import dual_forests
from support import aligned_cycle_state, verify_word


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.seconds, (
            f"time budget exceeded: {elapsed:.1f}s >= {self.seconds}s")
        return elapsed


def _report(num, detail, elapsed):
    print(f"criterion {num} PASS: {detail} ({elapsed:.2f}s)")


def test_criterion_1_pentagon_diameter():
    budget = _Budget(1)
    g = build_graph([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    comp = bfs_component(g, Placement.make(g, [(2, 3), (4, 5)]))
    assert comp.size == state_count(g), "state space is not one component"
    assert comp.eccentricity <= 8
    elapsed = budget.check()
    _report(1, f"one component of {comp.size} states, "
               f"eccentricity {comp.eccentricity} <= 8", elapsed)


def test_criterion_2_rotation_bounds():
    from trigrid.grid import build_abstract
    budget = _Budget(10)
    worst_gap, worst_full = 0, 0
    for k in range(2, 9):
        n = 2 * k + 1
        g = build_abstract(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])
        cyc = tuple(range(1, n + 1))

        def aligned(j, h):
            s = aligned_cycle_state(k, j, h)
            return Placement.make(g, [s[i] for i in range(1, k + 1)])

        for j in range(1, n + 1):
            p = aligned(j, 1 if j % 2 else 2)
            for j2 in range(1, n + 1):
                seq = rotate(p, cyc, j2)
                assert len(seq) <= k
                worst_gap = max(worst_gap, len(seq))
        # full rotations: the cycle's rotational symmetry carries the start
        # (1, h) onto every (j, h'), so varying h alone covers all pairs
        for h in range(1, n + 1, 2):
            p = aligned(1, h)
            for j2 in range(1, n + 1):
                for h2 in range(1 if j2 % 2 else 2, n + 1, 2):
                    tgt = aligned(j2, h2)
                    full = rotate(p, cyc, j2, [(i, tgt.piece(i)) for i in range(1, k + 1)])
                    assert len(full) <= k * k + k
                    assert full.end.pieces == tgt.pieces, \
                        "did not land on the closed-form aligned state"
                    assert full.end.exposed == j2
                    worst_full = max(worst_full, len(full))
        budget.check()
    elapsed = budget.check()
    _report(2, f"k=2..8, worst retarget {worst_gap} <= k, "
               f"worst full rotation {worst_full} <= k^2+k", elapsed)


def test_criterion_3_diamond_cycle_base():
    budget = _Budget(60)
    rng = random.Random(3)
    worst = {}
    for n in (3, 4, 5):
        g = diamond_cycle_graph(n)
        d = find_admissible(g)
        worst[n] = 0
        for _ in range(100):
            p = random_placement(g, rng)
            q = random_placement(g, rng)
            seq = base_diamond_cycle(p, q, d)
            assert len(seq) <= n ** 3 + n ** 2
            rep = verify_word(seq, expected_end=q)
            assert rep.ok and rep.matches_expected
            worst[n] = max(worst[n], len(seq))
        budget.check()
    elapsed = budget.check()
    _report(3, "100 verified pairs per n, worst moves "
               + ", ".join(f"n={n}: {w} <= {n**3 + n**2}"
                           for n, w in worst.items()), elapsed)


def test_criterion_4_gcd_law():
    # up to n = 6 the gcd rule agrees with the parity rule (n and m not both
    # odd); tests/test_oracle.py checks n = 7, where the two part
    budget = _Budget(300)
    results = []
    for n in range(3, 7):
        for m in range(2, n):
            g = chord_cycle_graph(n, m)
            expect = math.gcd(n - 1, m - 1) == 1
            assert is_reconfigurable_bruteforce(g) == expect
            results.append(f"({n},{m})={'Y' if expect else 'N'}")
        budget.check()
    elapsed = budget.check()
    _report(4, "reconfigurable iff gcd(n-1,m-1)=1: " + " ".join(results),
            elapsed)


def test_criterion_5_ear_pipeline_corpus():
    budget = _Budget(600)
    rng = random.Random(5)
    corpus = degree6_corpus(max_vertices=13)
    assert corpus
    pairs_done = 0
    for g in corpus:
        d = find_admissible(g)
        comp = None
        if g.n <= 11:
            comp = bfs_component(g, random_placement(g, rng))
        for _ in range(50):
            p = random_placement(g, rng)
            q = random_placement(g, rng)
            rep = plan_ear(g, p, q)
            check = verify_sequence(rep.start, rep.moves, expected_end=q)
            assert check.ok and check.matches_expected
            if comp is not None:
                assert comp.contains(p) and comp.contains(q), \
                    "oracle disagrees: pair not mutually reachable"
            pairs_done += 1
        budget.check()
    elapsed = budget.check()
    _report(5, f"{len(corpus)} instances, {pairs_done} verified pairs, "
               f"oracle reachability cross-checked on <=11-vertex hosts",
            elapsed)


def test_criterion_6_cycle_planner_scaling():
    budget = _Budget(600)
    rng = random.Random(6)
    ratios = []
    # the hexagons come last, so the corpus keeps its draws from rng
    hosts = locally_connected_corpus() + [build_graph(hexagon_points(r), name=f"hex{n}")
                                          for r, n in ((3, 37), (4, 61))]
    for g in hosts:
        worst = 0
        for _ in range(5):
            p = random_placement(g, rng)
            q = random_placement(g, rng)
            rep = plan_hamilton(g, p, q)
            check = verify_sequence(rep.start, rep.moves, expected_end=q)
            assert check.ok and check.matches_expected
            worst = max(worst, rep.slide_count)
        nv = g.num_vertices
        ratios.append((nv, worst, worst / nv ** 3))
        budget.check()
    c = max(r for _, _, r in ratios)
    # scaling check: a single constant works across all sizes 5..61; the
    # ceiling is a frozen regression value measured from the corpus.
    assert all(r <= c for _, _, r in ratios)
    assert c <= 1.0, f"cubic-fit constant regressed: c = {c:.3f}"
    elapsed = budget.check()
    _report(6, "verified random pairs on 5..61-vertex hosts, slide counts "
               f"<= c*n^3 with single constant c = {c:.3f} ("
               + ", ".join(f"n = {nv}: {r:.3f}" for nv, _, r in ratios[-2:]) + ")",
            elapsed)


def test_criterion_7_negative_controls():
    budget = _Budget(60)
    sod = build_graph(star_of_david_points())
    assert not is_factor_critical(sod)
    m = enumerate_near_perfect_matchings(sod)[0]
    p = Placement.make(sod, sorted(m.edges))
    with pytest.raises(NoAdmissibleError):
        plan_ear(sod, p, p)
    with pytest.raises(PlanError):
        plan_hamilton(sod, p, p)
    g = chord_cycle_graph(5, 3)
    comp = bfs_component(g, random_placement(g, random.Random(7)))
    assert comp.size < state_count(g), "expected >= 2 components"
    elapsed = budget.check()
    _report(7, "Star of David not factor-critical and refused by both "
               "planners; chord_cycle(5,3) splits into >= 2 components "
               f"({comp.size} of {state_count(g)} states reached)", elapsed)


def test_criterion_8_dual_forest_invariants():
    budget = _Budget(60)
    checked = 0
    for g in locally_connected_corpus():
        h = find_hamilton(g)
        df = dual_forests(g, h)
        for side in (df.side1, df.side2):
            assert side.number_of_nodes() == 0 or nx.is_forest(side)
            assert all(d <= 3 for _, d in side.degree())
        if g.n >= 5:
            comps = [c for s in (df.side1, df.side2)
                     for c in nx.connected_components(s)]
            assert any(len(c) >= 2 for c in comps), \
                "no component with >= 2 triangles"
        checked += 1
    elapsed = budget.check()
    _report(8, f"both dual sides are max-degree-3 forests on {checked} "
               "instances; >= 2-triangle component present for |V| >= 5",
            elapsed)


def test_criterion_9_local_structure():
    budget = _Budget(60)
    checked = 0
    for g in locally_connected_corpus():
        h = find_hamilton(g)
        pd = find_local_structure(g, h)
        validate_cycle(g, h)
        assert edge_key(pd.a, pd.b) in h.edges
        assert edge_key(pd.a, pd.c) not in h.edges
        assert g.has_edge(pd.a, pd.c)
        assert len(pd.p1) % 2 == 1, "even-edge-count subpath expected"
        assert len(pd.p2) % 2 == 0, "odd-edge-count subpath expected"
        assert (pd.case == "ii") == (len(pd.p2) == 2)
        checked += 1
    elapsed = budget.check()
    _report(9, f"parity diamond found on all {checked} instances "
               f"(every Hamilton cycle re-validated)", elapsed)


def test_criterion_10_ear_planner_scaling():
    budget = _Budget(60)
    rng = random.Random(10)
    lc = {g.name: g for g in locally_connected_corpus()}
    hosts = [lc["hex13"], lc["hex19"], lc["hex23"], lc["para25"],
             build_graph([(x, y) for x in range(9) for y in range(3)], name="para27"),
             build_graph(hexagon_points(3), name="hex37"), hex_with_hole_graph(3),
             build_graph(hexagon_points(4), name="hex61")]
    ratios = []
    for g in hosts:
        worst = 0
        for _ in range(5):
            p = random_placement(g, rng)
            q = random_placement(g, rng)
            rep = plan_ear(g, p, q)
            check = verify_sequence(rep.start, rep.moves, expected_end=q)
            assert check.ok and check.matches_expected
            worst = max(worst, rep.slide_count)
        nv = g.num_vertices
        ratios.append((g.name, worst, worst / nv ** 3))
        budget.check()
    c = max(r for _, _, r in ratios)
    # one constant covers 13..61 vertices; the ceiling is a frozen
    # regression value, measured on these pairs at c = 0.118 (hex61)
    assert c <= 0.15, f"cubic-fit constant regressed: c = {c:.3f}"
    elapsed = budget.check()
    _report(10, "verified random ear plans on 13..61-vertex hosts, slide counts "
                f"<= c*n^3 with single constant c = {c:.3f} ("
                + ", ".join(f"{name} {w}" for name, w, _ in ratios) + ")", elapsed)


def test_criterion_11_cycle_planner_quadratic_growth():
    budget = _Budget(60)
    rng = random.Random(11)
    ratios = []
    for radius in range(3, 7):
        g = build_graph(hexagon_points(radius), name=f"hex{3 * radius * (radius + 1) + 1}")
        worst = 0
        for _ in range(5):
            p = random_placement(g, rng)
            q = random_placement(g, rng)
            rep = plan_hamilton(g, p, q)
            check = verify_sequence(rep.start, rep.moves, expected_end=q)
            assert check.ok and check.matches_expected
            worst = max(worst, rep.slide_count)
        ratios.append((g.name, worst, worst / g.num_vertices ** 2))
        budget.check()
    c = max(r for _, _, r in ratios)
    # one constant covers 37..127 vertices; the ceiling is a frozen
    # regression value, measured on these pairs at c = 1.845 (hex127)
    assert c <= 2.0, f"quadratic-fit constant regressed: c = {c:.3f}"
    elapsed = budget.check()
    _report(11, "verified random cycle plans on 37..127-vertex hosts, slide counts "
                f"<= c*n^2 with single constant c = {c:.3f} ("
                + ", ".join(f"{name} {w} ({r:.2f})" for name, w, r in ratios) + ")",
            elapsed)
