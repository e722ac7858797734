import itertools

import networkx as nx
import pytest

from trigrid.corpus import locally_connected_corpus
from trigrid.grid import (GridError, TriGridGraph, build_graph, edge_key,
                          star_of_david_points)
from trigrid.hamilton import (HamiltonCycle, HamiltonError, _arc, _hamilton_search,
                              enumerate_hamilton_cycles, find_hamilton,
                              find_local_structure, select_parity, validate_cycle)

from dual_forests import dual_forests


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
    vertices a step can make fail."""
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
            if all(usable(x, w) >= 2 for x in g.vertex_ids if x not in visited):
                yield from extend()
            path.pop()
            visited.discard(w)

    yield from extend()


def test_search_matches_full_check_reference(monkeypatch):
    """The same paths in the same order as the full-check search, through
    the same nodes: the log of `degree` calls, made for the unvisited
    neighbours of every path either search extends, is the same too. The
    first twenty paths on every locally-connected corpus host, and every
    path on the smallest hosts. On a path of three vertices only the first
    step's full check prunes: its far end has one neighbour."""
    calls = []
    degree = TriGridGraph.degree
    monkeypatch.setattr(TriGridGraph, "degree",
                        lambda g, v: calls.append(v) or degree(g, v))
    line = build_graph([(0, 0), (1, 0), (2, 0)], name="line3")
    for g in locally_connected_corpus() + [line]:
        count = None if g.num_vertices <= 9 else 20
        runs = []
        for search in (_hamilton_search, _full_check_search):
            calls.clear()
            runs.append((list(itertools.islice(search(g), count)), list(calls)))
        assert runs[0] == runs[1], g.name
        assert bool(runs[0][0]) == (g is not line)


def test_hex7_has_six_cycles(hex7):
    assert len(list(enumerate_hamilton_cycles(hex7))) == 6


def test_validate_cycle_rejects_non_cycle(pentagon):
    with pytest.raises(HamiltonError):
        validate_cycle(pentagon, HamiltonCycle((1, 2, 5, 4, 3)))


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
    from trigrid.ears import enumerate_diamonds
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


def test_find_local_structure_corpus():
    for g in locally_connected_corpus():
        h = find_hamilton(g)
        pd = find_local_structure(g, h)
        validate_cycle(g, pd.cycle)
        assert pd.cycle == h
        ring = [(pd.a, pd.b), (pd.b, pd.c), (pd.c, pd.d), (pd.d, pd.a)]
        assert all(g.has_edge(u, v) for u, v in ring)
        assert g.has_edge(pd.a, pd.c)
        assert edge_key(pd.a, pd.b) in pd.cycle.edges
        assert edge_key(pd.a, pd.c) not in pd.cycle.edges
        assert pd.p1[0] == pd.d and pd.p1[-1] == pd.a and pd.b not in pd.p1
        assert pd.p2[0] == pd.b and pd.p2[-1] == pd.c and pd.a not in pd.p2
        assert len(pd.p1) % 2 == 1 and len(pd.p2) % 2 == 0
        assert (pd.case == "ii") == (len(pd.p2) == 2)


def test_find_local_structure_rejects_tiny():
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    h = find_hamilton(g)
    with pytest.raises(HamiltonError):
        find_local_structure(g, h)


def test_local_structure_keeps_cycle(hex7):
    # every Hamilton cycle of hex7 carries a parity diamond of its own
    for h in enumerate_hamilton_cycles(hex7):
        assert find_local_structure(hex7, h).cycle == h


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
                    _arc(order, frm, to, avoid)
            else:
                assert _arc(order, frm, to, avoid) == want
