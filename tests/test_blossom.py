"""The in-house matching search against networkx, its reference.

`max_cardinality_matching` is Edmonds' cardinality search with Gabow's path
labels. It takes its candidates in the order of networkx's
`max_weight_matching` (unit weights, maximum cardinality), and must return
the very matching networkx returns for the same insertion order: the
benchmark's placements and the ear planner's plans depend on which maximum
matching comes back. Every answer that leaves two or more vertices single
passes the Tutte-Berge barrier check of the search's last stage, which
raises otherwise; `check_barrier` is also tested on its own.
"""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigrid.blossom import check_barrier, max_cardinality_matching
from trigrid.corpus import degree6_corpus, locally_connected_corpus
from trigrid.ears import find_admissible
from trigrid.grid import (_lattice_edges, build_graph, edge_key, hexagon_points,
                          star_of_david_points, triangles)
from trigrid.matching import near_perfect_matching

from support import is_central


def _networkx_matching(nodes, edges):
    """networkx's matching of the graph built from `nodes` and `edges` in
    the order given, as a set of vertex pairs."""
    h = nx.Graph()
    h.add_nodes_from(nodes)
    h.add_edges_from(edges)
    return {frozenset(e) for e in nx.max_weight_matching(h, maxcardinality=True)}


def _search_matching(nodes, edges):
    adj = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    mate = max_cardinality_matching(adj)
    assert all(mate[w] == v for v, w in mate.items())
    return {frozenset(e) for e in mate.items()}


@st.composite
def _ordered_graphs(draw):
    """A simple graph on 0-26 vertices as a node insertion order and an edge
    insertion order, each edge in a drawn orientation. Sparse draws leave
    many vertices exposed, so the barrier check runs."""
    n = draw(st.integers(0, 26))
    nodes = draw(st.permutations(range(1, n + 1)))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if not pairs:
        return nodes, []
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return nodes, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]


def _lattice_graphs(count=60, seed=38):
    """Seeded planner-sized hosts for the networkx comparison: induced
    subgraphs of `hexagon_points(3..6)` on 37-127 points, as a node
    insertion order and an edge insertion order, both shuffled, each edge in
    a random orientation. Their searches nest blossoms deeper than the
    hypothesis draws' do."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        pts = hexagon_points(rng.randint(3, 6))
        pts = rng.sample(pts, rng.randint(37, len(pts)))
        ids = {p: i for i, p in enumerate(pts, 1)}
        edges = [(ids[p], ids[q]) for p, q in sorted(_lattice_edges(pts))]
        rng.shuffle(edges)
        nodes = list(ids.values())
        rng.shuffle(nodes)
        graphs.append((nodes, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]))
    return graphs


def _with_lattice_examples(test):
    for graph in _lattice_graphs():
        test = example(graph)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(_ordered_graphs())
@_with_lattice_examples
@example(([1, 2, 3, 4, 5, 6], [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)]))
@example(([3, 1, 2, 6, 4, 5], [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]))
@example(([1, 2, 3], []))
# the greedy stages match 1-2 and stop at 3, whose neighbours are matched;
# the full stage finds the augmenting path 3-2=1-4 through the pendant 4
@example(([4, 2, 3, 1], [(1, 2), (2, 3), (3, 1), (1, 4)]))
# after 1-2, vertex 3 meets 2 and its mate 1 before the single 4: a blossom
# based at 3, and the augmenting path 3-4 through it
@example(([4, 3, 2, 1], [(1, 2), (3, 2), (1, 3), (3, 4)]))
# the last vertex is isolated, so the full stages start from no matching
@example(([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4)]))
def test_port_returns_the_networkx_matching(graph):
    nodes, edges = graph
    assert _search_matching(nodes, edges) == _networkx_matching(nodes, edges)


def test_barrier_refuses_a_matching_that_is_not_maximum():
    """On the path 1-2-3-4 with only 2-3 matched, no vertex set certifies
    the matching; on the star with centre 1, the centre certifies 1-2, and
    the empty set does not."""
    path = {1: [2], 2: [1, 3], 3: [2, 4], 4: [3]}
    for k in range(5):
        for barrier in itertools.combinations(path, k):
            with pytest.raises(AssertionError):
                check_barrier(path, {2: 3, 3: 2}, barrier)
    star = {1: [2, 3, 4], 2: [1], 3: [1], 4: [1]}
    check_barrier(star, {1: 2, 2: 1}, {1})
    with pytest.raises(AssertionError):
        check_barrier(star, {1: 2, 2: 1}, set())
    # a mate dict that is not a matching of the graph
    with pytest.raises(AssertionError):
        check_barrier(star, {3: 4, 4: 3}, {1})


def _networkx_perfect(g, skip=(), within=None, edges=None):
    """The perfect matching networkx finds on the subgraph, built as the
    library built its networkx graph: nodes in the kept set's order, edges
    in the pool's order; None if it has none."""
    keep = set(g.vertex_ids if within is None else within)
    keep -= set(skip)
    pool = g.edges if edges is None else {edge_key(*e) for e in edges}
    m = _networkx_matching(keep, [(u, v) for u, v in pool if u in keep and v in keep])
    if 2 * len(m) != len(keep):
        return None
    return frozenset(edge_key(*e) for e in m)


def _hosts():
    sod = build_graph(star_of_david_points(), name="star_of_david")
    return locally_connected_corpus() + degree6_corpus() + [sod]


def test_matching_verdicts_equal_networkx_on_the_corpus():
    """On every corpus host and the Star of David, for every vertex:
    `near_perfect_matching` returns networkx's matching (or None with it),
    and `is_central` gives networkx's verdict on the vertex and on each
    triangle face."""
    nones = falses = 0
    for g in _hosts():
        for v in g.vertex_ids:
            m = near_perfect_matching(g, v)
            ref = _networkx_perfect(g, skip=(v,), within=set(g.vertex_ids))
            assert (m and m.edges) == ref, (g.name, v)
            nones += m is None
            assert is_central(g, (v,)) == (_networkx_perfect(g, skip={v}) is not None)
        for tri in triangles(g):
            central = is_central(g, tri)
            assert central == (_networkx_perfect(g, skip=set(tri)) is not None), (g.name, tri)
            falses += not central
    assert nones and falses


def test_level_matchings_equal_networkx():
    """The ear planner's level tables ask for matchings of edge subgraphs:
    on each degree-6 corpus host, every level of its admissible core and
    every vertex of that level get networkx's matching."""
    for g in degree6_corpus():
        d = find_admissible(g)
        for i in range(1, d.levels + 1):
            vs, es = d.region(i)
            for v in sorted(vs):
                m = near_perfect_matching(g, v, within=vs, edges=es)
                ref = _networkx_perfect(g, skip=(v,), within=set(vs), edges=es)
                assert (m and m.edges) == ref, (g.name, i, v)
