import dataclasses
import gc
import io
import math
import random
import statistics
import time
import tracemalloc
import weakref
from collections import deque
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigrid.grid import (DIRS, GridError, TriGridGraph, build_graph,
                          chord_cycle_graph, diamond_cycle_graph, hexagon_points)
from trigrid.matching import enumerate_near_perfect_matchings
from trigrid.oracle import (OracleBudgetError, bfs_component, distance,
                            export_csv, is_reconfigurable_bruteforce,
                            state_count)
from trigrid.placement import Placement, legal_moves, slide

from conftest import random_placement
from corpus import degree6_corpus, locally_connected_corpus


def test_triangle_component():
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    comp = bfs_component(g, Placement.make(g, [(1, 2)]))
    assert comp.size == 3
    assert comp.eccentricity == 1
    assert comp.size == state_count(g)


def test_pentagon_component_covers_everything(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    comp = bfs_component(pentagon, p)
    npm = len(enumerate_near_perfect_matchings(pentagon))
    assert comp.size == npm * math.factorial(2)
    assert comp.size == state_count(pentagon)
    assert comp.eccentricity <= 8
    assert is_reconfigurable_bruteforce(pentagon)


def test_distance_symmetric(pentagon, rng):
    p = random_placement(pentagon, rng)
    q = random_placement(pentagon, rng)
    assert distance(pentagon, p, q) == distance(pentagon, q, p)
    assert distance(pentagon, p, p) == 0


def test_chord_cycle_splits():
    g = chord_cycle_graph(5, 3)          # n and m both odd: not reconfigurable
    assert not is_reconfigurable_bruteforce(g)
    p = random_placement(g, __import__("random").Random(7))
    comp = bfs_component(g, p)
    assert comp.size < state_count(g)
    # some relabeling of p lies outside its component
    outside = next(q for q in (Placement.make(g, pieces)
                               for pieces in permutations(p.pieces))
                   if not comp.contains(q))
    assert distance(g, p, outside) is None
    assert distance(g, outside, p) is None


@pytest.mark.parametrize("m, verdict", [(2, True), (3, False), (4, True),
                                        (5, False), (6, True)])
def test_chord_cycle_parity_rule_at_n7(m, verdict):
    """chord_cycle(n, m) is reconfigurable exactly when n and m are not
    both odd. At n = 7 the BFS separates that rule from gcd(n-1, m-1) = 1,
    which predicts False at m = 4."""
    g = chord_cycle_graph(7, m)
    assert is_reconfigurable_bruteforce(g, vertex_bound=15) is verdict
    assert verdict == (7 % 2 == 0 or m % 2 == 0)


def test_diamond_cycle_reconfigurable():
    assert is_reconfigurable_bruteforce(diamond_cycle_graph(3))


def test_budget_guard():
    g = chord_cycle_graph(8, 2)          # 17 vertices > default bound
    with pytest.raises(OracleBudgetError):
        is_reconfigurable_bruteforce(g)


def test_ranked_searches_refuse_more_than_nine_pieces():
    """`para21` has 10 pieces: past the 9-piece limit of the ranked BFS's
    labeling table, both searches that rank labelings refuse it even at a
    vertex bound of 21, before any labeling is built. `distance` ranks
    none, so the vertex bound alone governs it."""
    g = _oracle_host("para21")
    p = random_placement(g, random.Random(1))
    for search in (lambda: bfs_component(g, p, vertex_bound=21),
                   lambda: is_reconfigurable_bruteforce(g, vertex_bound=21)):
        with pytest.raises(OracleBudgetError, match="10 pieces exceed the 9-piece limit"):
            search()
    assert "labelings" not in vars(g.slide_space) and "rank" not in vars(g.slide_space)
    assert distance(g, p, p, vertex_bound=21) == 0


def test_export_csv(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    comp = bfs_component(pentagon, p)
    buf = io.StringIO()
    export_csv(comp, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "state_key,distance"
    assert len(lines) == comp.size + 2          # header + rows + summary


def _reference_distances(p):
    """Plain BFS over `legal_moves`/`slide`, keyed on (pieces, exposed)."""
    dist = {(p.pieces, p.exposed): 0}
    frontier = deque([p])
    while frontier:
        cur = frontier.popleft()
        d = dist[(cur.pieces, cur.exposed)]
        for mv in legal_moves(cur):
            nxt = slide(cur, mv)
            if (nxt.pieces, nxt.exposed) not in dist:
                dist[(nxt.pieces, nxt.exposed)] = d + 1
                frontier.append(nxt)
    return dist


def _random_host(size, rnd):
    """chord_cycle(5, 3) for size 0, else a connected lattice point set of
    `size` points grown from the origin."""
    if size == 0:
        return chord_cycle_graph(5, 3)
    pts = {(0, 0)}
    while len(pts) < size:
        x, y = rnd.choice(sorted(pts))
        dx, dy = rnd.choice(DIRS)
        pts.add((x + dx, y + dy))
    try:
        return build_graph(sorted(pts))
    except GridError:
        assume(False)


def _random_placements(g, rnd, count):
    ms = enumerate_near_perfect_matchings(g)
    assume(ms)
    out = []
    for _ in range(count):
        edges = sorted(rnd.choice(ms).edges)
        rnd.shuffle(edges)
        out.append(Placement.make(g, edges))
    return out


@settings(max_examples=150, deadline=None)
@given(size=st.sampled_from([0, 5, 7, 9]), rnd=st.randoms(use_true_random=False))
def test_oracle_matches_reference_bfs(size, rnd):
    """The byte-encoded BFS finds the reference BFS's component and
    distances, and `distance` agrees with both, None included for pairs
    in different components."""
    g = _random_host(size, rnd)
    p, *qs = _random_placements(g, rnd, 4)
    ref = _reference_distances(p)
    comp = bfs_component(g, p)
    assert {comp.decode(s): d for s, d in comp.distances.items()} == ref
    for q in qs:
        assert comp.distance_to(q) == ref.get((q.pieces, q.exposed))
        assert distance(g, p, q) == comp.distance_to(q)


def test_oracle_matches_reference_bfs_on_hex11():
    """Beyond the hypothesis hosts: the 11-vertex host of the benchmark,
    7,680 states, from a seeded start."""
    g = build_graph(hexagon_points(1) + [(2, -1), (2, 0), (-1, -1), (0, -2)])
    p = random_placement(g, random.Random(11))
    comp = bfs_component(g, p)
    assert comp.size == 7680
    assert {comp.decode(s): d for s, d in comp.distances.items()} == _reference_distances(p)


def test_placement_off_the_host_is_not_in_the_component(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    comp = bfs_component(pentagon, p)
    off = Placement(pentagon, ((2, 3), (4, 99)), 1)
    assert comp.distance_to(off) is None
    assert not comp.contains(off)
    with pytest.raises(ValueError):
        bfs_component(pentagon, off)
    # host edges, but two pieces on one edge, or one piece short
    for bad in (Placement(pentagon, ((2, 3), (2, 3)), 1),
                Placement(pentagon, ((2, 3),), 1)):
        with pytest.raises(ValueError, match="disjoint host edges"):
            bfs_component(pentagon, bad)
        with pytest.raises(ValueError, match="disjoint host edges"):
            distance(pentagon, bad, p)


def _oracle_host(name):
    if name == "diamond_cycle6":
        return diamond_cycle_graph(6)
    corpus = degree6_corpus() if name.startswith("deg6") else locally_connected_corpus()
    return next(g for g in corpus if g.name == name)


@pytest.mark.parametrize("host, eccentricity", [("hex11", None), ("deg6-11v-5", None),
                                                ("diamond_cycle6", 129), ("hex13", None)])
def test_distance_matches_the_component_on_the_oracle_hosts(host, eccentricity):
    """The meet-in-the-middle search against the whole component, on the
    hosts whose distances the benchmark certifies: seeded pairs, the
    component's farthest state and p itself."""
    g = _oracle_host(host)
    rnd = random.Random(host)
    for _ in range(3):
        p = random_placement(g, rnd)
        comp = bfs_component(g, p)
        for _ in range(4):
            q = random_placement(g, rnd)
            assert distance(g, p, q) == comp.distance_to(q)
        far = max(comp.distances, key=comp.distances.get)
        assert distance(g, p, Placement(g, *comp.decode(far))) == comp.eccentricity
        assert eccentricity in (None, comp.eccentricity)
        assert distance(g, p, p) == 0


def _on(g, p):
    """p on the equal graph object g."""
    return Placement(g, p.pieces, p.exposed)


@pytest.mark.parametrize("host", ["hex11", "diamond_cycle6"])
def test_searches_on_a_warm_host_match_a_fresh_one(host):
    """The slide space outlives a search: on one graph object every
    search after the first finds its moves built. Seeded `distance` and
    `bfs_component` results there equal those on a fresh, equal graph
    object, on which `distance` runs first, so from an empty memo. Prints
    a cold and a warm `distance` time; nothing asserts on time."""
    warm = _oracle_host(host)
    rnd = random.Random(host)
    cold_s, warm_s = [], []
    for _ in range(4):
        p, q = random_placement(warm, rnd), random_placement(warm, rnd)
        comp = bfs_component(warm, p)
        t0 = time.perf_counter()
        d = distance(warm, p, q)
        warm_s.append(time.perf_counter() - t0)
        fresh = _oracle_host(host)
        assert fresh == warm and fresh is not warm
        t0 = time.perf_counter()
        assert distance(fresh, _on(fresh, p), _on(fresh, q)) == d
        cold_s.append(time.perf_counter() - t0)
        assert d == comp.distance_to(q)
        comp2 = bfs_component(fresh, _on(fresh, p))
        assert list(comp2.distances.items()) == list(comp.distances.items())
    print(f"\n{host}: distance cold {statistics.median(cold_s) * 1e3:.2f} ms, "
          f"warm {statistics.median(warm_s) * 1e3:.2f} ms (medians of 4 pairs)")


def test_the_oracle_keeps_no_state_beyond_the_host():
    """The slide space lives on its graph object only: a search leaves an
    equal graph object untouched and changes no field, equality or hash,
    and nothing keeps a searched graph alive."""
    fields = dataclasses.fields(TriGridGraph)
    g, g2 = _oracle_host("hex11"), _oracle_host("hex11")
    assert g == g2 and hash(g) == hash(g2)
    rnd = random.Random(1)
    p, q = random_placement(g, rnd), random_placement(g, rnd)
    d = distance(g, p, q)
    assert bfs_component(g, p).distance_to(q) == d
    assert "slide_space" not in vars(g2)
    assert distance(g2, _on(g2, p), _on(g2, q)) == d
    assert g.slide_space is g.slide_space is not g2.slide_space
    assert g == g2 and hash(g) == hash(g2)
    assert dataclasses.fields(TriGridGraph) == fields
    ref = weakref.ref(g)
    del g, p, q                          # a placement holds its graph
    gc.collect()
    assert ref() is None


def test_distance_to_malformed_or_unreachable_targets(hex7):
    """A target that is no placement of the host is unreachable, not an
    error; a start with a piece off the host is an error."""
    p = Placement.make(hex7, [(1, 2), (3, 4), (5, 7)])
    assert distance(hex7, p, Placement(hex7, ((1, 2), (3, 4), (5, 99)), 6)) is None
    # host edges, but overlapping: the search from q must not step it
    assert distance(hex7, p, Placement(hex7, ((1, 2), (1, 2), (3, 4)), 5)) is None
    # one piece short
    assert distance(hex7, p, Placement(hex7, ((1, 2), (3, 4)), 5)) is None
    with pytest.raises(ValueError):
        distance(hex7, Placement(hex7, ((1, 2), (3, 4), (5, 99)), 6), p)
    # the ranked lookup meets a repeated edge id, a short key and an
    # edge off the host
    comp = bfs_component(hex7, p)
    for q in (Placement(hex7, ((1, 2), (1, 2), (3, 4)), 5),
              Placement(hex7, ((1, 2), (3, 4)), 5),
              Placement(hex7, ((1, 2), (3, 4), (5, 99)), 6)):
        assert comp.distance_to(q) is None
        assert not comp.contains(q)


def _traced(fn, *args):
    """The result of one call of fn and its `tracemalloc` peak in MB."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_bfs_component_memory_on_hex13():
    """One BFS over `hex13`'s 132,480 states on a fresh host, its slide
    space included, peaks under 4 MB: a state costs one slot in its
    configuration's row of distances, not a dict entry and a key."""
    g = _oracle_host("hex13")
    p = random_placement(g, random.Random(1))
    comp, peak = _traced(bfs_component, g, p)
    print(f"\nhex13: bfs_component traced peak {peak:.1f} MB")
    assert comp.size == state_count(g) == 132480
    assert peak < 4


def test_para15_distances_at_vertex_bound_15():
    """15 vertices, past the default bound: the distances to three seeded
    targets match one full BFS from p, which they do not need to run."""
    g = next(g for g in locally_connected_corpus() if g.name == "para15")
    rnd = random.Random(1)
    p = random_placement(g, rnd)
    t0 = time.perf_counter()
    comp = bfs_component(g, p, vertex_bound=15)
    secs = time.perf_counter() - t0
    _, peak = _traced(bfs_component, g, p, 15)
    print(f"\npara15: bfs_component {comp.size} states, {secs:.2f} s, "
          f"traced peak {peak:.1f} MB (a second, traced run)")
    for _ in range(3):
        q = random_placement(g, rnd)
        t0 = time.perf_counter()
        d = distance(g, p, q, vertex_bound=15)
        print(f"para15: distance {d}, {time.perf_counter() - t0:.2f} s")
        assert d == comp.distance_to(q)
    with pytest.raises(OracleBudgetError):
        distance(g, p, p)
