import functools
import itertools
import random
import sys
import time

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigrid.grid import (DIRS, GridError, TriGridGraph, build_abstract, build_graph,
                          cartesian, chord_cycle_graph, diamond_cycle_graph, edge_key,
                          hexagon_points, is_locally_connected, is_star_of_david,
                          star_of_david_points)
from trigrid.hamilton import (HamiltonCycle, HamiltonError, _hamilton_search, _normalize,
                              find_hamilton, find_local_structure, parity_diamonds,
                              validate_cycle)

from corpus import locally_connected_corpus
from dual_forests import dual_forests
from support import (CROSSING_ARCS_EDGES, arc, best_parity_diamond,
                     enumerate_hamilton_cycles, induces_connected, parity_key,
                     reference_hamilton_search, scan_parity_diamonds, select_parity)


def _brute_cycles(g):
    """Independent Hamilton-cycle enumeration by raw permutation search."""
    vs = sorted(g.vertex_ids)
    first = vs[0]
    found = set()
    for perm in itertools.permutations(vs[1:]):
        order = (first,) + perm
        if all(g.has_edge(order[i], order[(i + 1) % len(order)])
               for i in range(len(order))):
            key = min(order, tuple([order[0]] + list(reversed(order[1:]))))
            found.add(key)
    return found


def test_find_hamilton_triangle():
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    h = find_hamilton(g)
    validate_cycle(g, h)
    assert set(h.order) == {1, 2, 3}


def test_find_hamilton_hex7(hex7):
    h = find_hamilton(hex7)
    validate_cycle(hex7, h)
    assert len(h) == 7


def test_find_hamilton_refuses_star_of_david():
    g = build_graph(star_of_david_points())
    with pytest.raises(GridError):
        find_hamilton(g)


def test_enumerate_matches_brute_force(pentagon, hex7):
    for g in (pentagon, hex7):
        mine = {min(h.order, tuple([h.order[0]] + list(reversed(h.order[1:]))))
                for h in enumerate_hamilton_cycles(g)}
        assert mine == _brute_cycles(g)


def _full_check_search(g):
    """The Hamilton search with the prune checking every unvisited vertex
    after every step, as a reference for the search that checks only the
    vertices a step can make fail; both run the same connectivity
    prune."""
    start = min(g.vertex_ids, key=lambda v: (g.degree(v), v))
    visited, path = {start}, [start]

    def usable(w, tail):
        return sum(1 for x in g.adj[w] if x == tail or x == start or x not in visited)

    def extend():
        tail = path[-1]
        if len(path) == g.num_vertices:
            if g.has_edge(tail, start):
                yield tuple(path)
            return
        for w in sorted((w for w in g.adj[tail] if w not in visited),
                        key=lambda w: (g.degree(w), w)):
            visited.add(w)
            path.append(w)
            if (all(usable(x, w) >= 2 for x in g.vertex_ids if x not in visited)
                    and induces_connected(g, set(g.vertex_ids) - visited | {w, start})):
                yield from extend()
            path.pop()
            visited.discard(w)

    yield from extend()


def test_search_matches_full_check_reference(monkeypatch):
    """The reference search over sets, which checks only the vertices a
    step can make fail, finds the same paths in the same order as the
    full-check search, through the same nodes: the log of `degree` calls,
    made for the unvisited neighbours of every path either search extends,
    is the same too. The first twenty paths on every locally-connected
    corpus host, and every path on the smallest hosts. On a path of three
    vertices only the first step's full check prunes: its far end has one
    neighbour."""
    calls = []
    degree = TriGridGraph.degree
    monkeypatch.setattr(TriGridGraph, "degree",
                        lambda g, v: calls.append(v) or degree(g, v))
    line = build_graph([(0, 0), (1, 0), (2, 0)], name="line3")
    for g in locally_connected_corpus() + [line]:
        count = None if g.num_vertices <= 9 else 20
        runs = []
        for search in (reference_hamilton_search, _full_check_search):
            calls.clear()
            runs.append((list(itertools.islice(search(g), count)), list(calls)))
        assert runs[0] == runs[1], g.name
        assert bool(runs[0][0]) == (g is not line)


def _reference_cycles(g):
    """`enumerate_hamilton_cycles` on the reference search."""
    seen = set()
    for order in reference_hamilton_search(g):
        h = HamiltonCycle(_normalize(g, order))
        key = min(h.order, (h.order[0],) + h.order[1:][::-1])
        if key not in seen:
            seen.add(key)
            yield h


def _float_shoelace_normalize(g, order):
    """`_normalize` on a lattice host by the float shoelace sum of the
    cartesian points: reversed when that sum is negative, then rotated to
    start at the minimum id."""
    pts = [cartesian(g.point_of(v)) for v in order]
    area = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))
    order = list(order)[::-1] if area < 0 else list(order)
    i = order.index(min(order))
    return tuple(order[i:] + order[:i])


def test_normalize_orients_as_the_cartesian_shoelace():
    """On every locally-connected corpus host, the first 50 Hamilton
    cycles, each given in both directions from several start vertices,
    are oriented and rotated as the float shoelace sum of the cartesian
    points orients them: anti-clockwise, from the minimum id."""
    for g in locally_connected_corpus():
        for h in itertools.islice(enumerate_hamilton_cycles(g), 50):
            n = len(h.order)
            for order in (h.order, h.order[::-1]):
                for s in sorted({0, 1, n // 2, n - 1}):
                    rotated = order[s:] + order[:s]
                    expected = _float_shoelace_normalize(g, rotated)
                    assert _normalize(g, rotated) == expected == h.order, (g.name, rotated)


def _assert_same_search(g, count):
    """The bit-mask search yields the reference search's first `count`
    paths, in the same order, and `enumerate_hamilton_cycles` its first
    `count` distinct cycles."""
    for mine, ref in ((_hamilton_search, reference_hamilton_search),
                      (enumerate_hamilton_cycles, _reference_cycles)):
        assert (list(itertools.islice(mine(g), count))
                == list(itertools.islice(ref(g), count))), g.name


def _extend_frames(search, g, count):
    """How many times the search's `extend` generator is entered or
    resumed while it yields its first `count` paths: one entry per path
    that passes the prune, and one resume per level for each yield."""
    calls = 0

    def tracer(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "extend":
            calls += 1

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        list(itertools.islice(search(g), count))
    finally:
        sys.settrace(previous)
    return calls


@functools.lru_cache(maxsize=None)
def _hex37():
    return build_graph(hexagon_points(3), name="hex37")


@pytest.mark.parametrize("name", [g.name for g in locally_connected_corpus()]
                         + ["hex37", "diamond_cycle(6)", "chord_cycle(7,4)", "line3"])
def test_bitmask_search_matches_the_reference(name):
    """The first 300 paths and cycles on every locally-connected corpus
    host, `hex37`, two abstract hosts and a path of three vertices, through
    as many nodes as the reference: the same prune, not only the same
    order, since a weaker prune yields the same paths after more dead
    ends. On the path only the first step's full check prunes."""
    hosts = {g.name: g for g in locally_connected_corpus()}
    hosts.update({"hex37": _hex37(), "diamond_cycle(6)": diamond_cycle_graph(6),
                  "chord_cycle(7,4)": chord_cycle_graph(7, 4),
                  "line3": build_graph([(0, 0), (1, 0), (2, 0)], name="line3")})
    g = hosts[name]
    _assert_same_search(g, 300)
    assert (_extend_frames(_hamilton_search, g, 300)
            == _extend_frames(reference_hamilton_search, g, 300))


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 12).map(lambda h: 2 * h + 1), seed=st.integers(0, 2 ** 32))
def test_bitmask_search_matches_the_reference_on_random_hosts(size, seed):
    """The first 50 paths and cycles on random locally-connected hosts of
    3-25 vertices, grown from an edge one triangle at a time: each new
    point neighbours two adjacent points of the host."""
    rnd = random.Random(seed)
    pts = {(0, 0), (1, 0)}
    turns = list(zip(DIRS, DIRS[1:] + DIRS[:1]))
    while len(pts) < size:
        front = sorted({(x + dx, y + dy) for x, y in pts for dx, dy in DIRS} - pts)
        pts.add(rnd.choice([(x, y) for x, y in front
                            if any((x + a, y + b) in pts and (x + c, y + d) in pts
                                   for (a, b), (c, d) in turns)]))
    g = build_graph(sorted(pts))
    assume(is_locally_connected(g) and not is_star_of_david(g))
    _assert_same_search(g, 50)


def test_hex7_has_six_cycles(hex7):
    assert len(list(enumerate_hamilton_cycles(hex7))) == 6


def test_validate_cycle_rejects_non_cycle(pentagon):
    with pytest.raises(HamiltonError, match=r"^cycle uses a non-edge \("):
        validate_cycle(pentagon, HamiltonCycle((1, 2, 5, 4, 3)))
    with pytest.raises(HamiltonError, match="^cycle does not span the vertex set$"):
        validate_cycle(pentagon, HamiltonCycle((1, 2, 3)))


def test_dual_forests_triangle():
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    h = find_hamilton(g)
    df = dual_forests(g, h)
    sizes = sorted([df.side1.number_of_nodes(), df.side2.number_of_nodes()])
    assert sizes == [0, 1]
    assert df.cut_edges == frozenset()


def test_dual_forests_invariants():
    for g in locally_connected_corpus():
        h = find_hamilton(g)
        df = dual_forests(g, h)
        for side in (df.side1, df.side2):
            assert side.number_of_nodes() == 0 or nx.is_forest(side)
            assert all(d <= 3 for _, d in side.degree())
        total = df.side1.number_of_nodes() + df.side2.number_of_nodes()
        assert total == len(df.triangles)
        if g.n >= 5:
            comps = [c for s in (df.side1, df.side2)
                     for c in nx.connected_components(s)]
            assert any(len(c) >= 2 for c in comps)


def test_select_parity_hex7(hex7):
    from trigrid.grid import enumerate_diamonds
    h = find_hamilton(hex7)
    pd = None
    for diamond in enumerate_diamonds(hex7):
        try:
            pd = select_parity(h, diamond)
            break
        except HamiltonError:
            continue
    assert pd is not None
    assert pd.case in ("i", "ii")
    # ring edges present, diagonal configuration correct
    assert edge_key(pd.a, pd.b) in h.edges
    assert edge_key(pd.a, pd.c) not in h.edges
    assert len(pd.p1) % 2 == 1          # even number of edges -> odd vertices
    assert len(pd.p2) % 2 == 0          # odd number of edges -> even vertices
    if pd.case == "ii":
        assert len(pd.p2) == 2


def _arcs_on(pd, h):
    """The diamond lies on h: p1 from d to a, the edge (a, b) and p2 from
    b to c are one path along it."""
    path = pd.p1 + pd.p2
    return all(edge_key(u, v) in h.edges for u, v in zip(path, path[1:]))


def test_find_local_structure_corpus():
    for g in locally_connected_corpus():
        h = find_hamilton(g)
        pd = find_local_structure(g, h)
        validate_cycle(g, h)
        assert _arcs_on(pd, h)
        ring = [(pd.a, pd.b), (pd.b, pd.c), (pd.c, pd.d), (pd.d, pd.a)]
        assert all(g.has_edge(u, v) for u, v in ring)
        assert g.has_edge(pd.a, pd.c)
        assert edge_key(pd.a, pd.b) in h.edges
        assert edge_key(pd.a, pd.c) not in h.edges
        assert pd.p1[0] == pd.d and pd.p1[-1] == pd.a and pd.b not in pd.p1
        assert pd.p2[0] == pd.b and pd.p2[-1] == pd.c and pd.a not in pd.p2
        assert pd.c not in pd.p1 and pd.d not in pd.p2
        assert len(pd.p1) % 2 == 1 and len(pd.p2) % 2 == 0
        assert (pd.case == "ii") == (len(pd.p2) == 2)


def test_find_local_structure_rejects_crossing_arcs():
    """A labeling whose p1 passes through c cannot carry the cycle
    planner's swaps (its plans failed `rotate`'s alignment check); the
    host is refused instead."""
    g = build_abstract(9, CROSSING_ARCS_EDGES)
    h = find_hamilton(g)
    assert h.order == (1, 7, 5, 6, 3, 2, 4, 8, 9)
    with pytest.raises(HamiltonError, match="no parity diamond"):
        find_local_structure(g, h)


def test_find_local_structure_rejects_tiny():
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    h = find_hamilton(g)
    with pytest.raises(HamiltonError):
        find_local_structure(g, h)


def test_local_structure_keeps_cycle(hex7):
    # every Hamilton cycle of hex7 carries a parity diamond of its own
    for h in enumerate_hamilton_cycles(hex7):
        assert _arcs_on(find_local_structure(hex7, h), h)


def test_find_local_structure_equals_the_labeling_scan():
    """On up to 300 Hamilton cycles of every corpus host of at most 19
    vertices, and on the crossing-arcs host, `parity_diamonds` lists every
    diamond that the scan over every diamond labeling finds, in the order
    of `parity_key`, and `find_local_structure` returns the one the scan
    picks, or all three find none."""
    hosts = [g for g in locally_connected_corpus() if g.num_vertices <= 19]
    hosts += [build_abstract(9, CROSSING_ARCS_EDGES)]
    for g in hosts:
        for h in itertools.islice(enumerate_hamilton_cycles(g), 300):
            cands = scan_parity_diamonds(g, h)
            if not cands:
                for find in (parity_diamonds, find_local_structure):
                    with pytest.raises(HamiltonError, match="no parity diamond"):
                        find(g, h)
                continue
            assert parity_diamonds(g, h) == sorted(cands, key=parity_key)
            assert find_local_structure(g, h) == best_parity_diamond(cands), (g.name, h)


def _arc_walk(order, frm, to, avoid):
    """Walk the cycle from `frm` forwards, then backwards, until `to`;
    the first walk that misses `avoid`, or None."""
    n = len(order)
    for step in (1, -1):
        path = [frm]
        j = order.index(frm)
        while path[-1] != to:
            j = (j + step) % n
            path.append(order[j])
        if avoid not in path:
            return tuple(path)
    return None


def test_arc_matches_walk_on_corpus_cycles():
    """Every (from, to, avoid) triple on the Hamilton cycle of every corpus
    host: the sliced arc is the walked one, and both fail together."""
    for g in locally_connected_corpus():
        order = find_hamilton(g).order
        for frm, to, avoid in itertools.product(order, repeat=3):
            want = _arc_walk(order, frm, to, avoid)
            if want is None:
                with pytest.raises(HamiltonError):
                    arc(order, frm, to, avoid)
            else:
                assert arc(order, frm, to, avoid) == want


# a locally-connected host of 33 vertices on which the search without the
# connectivity prune took seconds to find its first cycle
STALL_POINTS = [(-5, 4), (-4, 1), (-4, 3), (-4, 4), (-3, 0), (-3, 1), (-3, 2), (-3, 3),
                (-2, -1), (-2, 0), (-2, 1), (-2, 2), (-2, 3), (-1, -1), (-1, 0), (-1, 1),
                (-1, 2), (-1, 3), (0, -2), (0, -1), (0, 0), (0, 1), (0, 2), (1, -2),
                (1, -1), (1, 0), (1, 1), (2, -2), (2, -1), (3, -3), (3, -2), (3, -1),
                (4, -3)]


def test_find_hamilton_and_auto_plan_on_the_33_vertex_host(tmp_path, capsys):
    """On a 33-vertex locally-connected host whose unvisited vertices the
    path cuts off again and again, `find_hamilton` and a default (`auto`)
    `trigrid plan` each finish within 1 s, and the plan verifies. Prints
    both times."""
    from trigrid import formats
    from trigrid.cli import main

    from conftest import random_placement

    g = build_graph(STALL_POINTS, name="stall33")
    assert g.num_vertices == 33 and is_locally_connected(g) and not is_star_of_david(g)
    t0 = time.perf_counter()
    h = find_hamilton(g)
    search_s = time.perf_counter() - t0
    validate_cycle(g, h)
    rng = random.Random(1)
    paths = []
    for name, text in (("g.graph", formats.serialize_graph(g)),
                       ("s.p", formats.serialize_placement(random_placement(g, rng))),
                       ("t.p", formats.serialize_placement(random_placement(g, rng)))):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(text)
    t0 = time.perf_counter()
    assert main(["plan", *paths, "--out", str(tmp_path / "out.plan")]) == 0
    plan_s = time.perf_counter() - t0
    assert "(hamilton)" in capsys.readouterr().err
    assert main(["verify", paths[0], str(tmp_path / "out.plan"), "--target", paths[2]]) == 0
    assert "ok True" in capsys.readouterr().out
    with capsys.disabled():
        print(f"\n33-vertex host: find_hamilton {search_s * 1e3:.1f} ms, "
              f"auto plan {plan_s * 1e3:.1f} ms")
    assert search_s < 1.0 and plan_s < 1.0
