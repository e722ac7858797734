import itertools
import random

import pytest

from trigrid.grid import (build_abstract, build_graph, chord_cycle_graph,
                          diamond_cycle_graph, edge_key, hexagon_points, star_of_david_points)
from trigrid.matching import (Matching, MatchingError, alternating_path_to,
                              enumerate_near_perfect_matchings,
                              is_factor_critical, near_perfect_matching)

from corpus import degree6_corpus, locally_connected_corpus
from support import (factor_critical_by_definition, is_alternating_cycle, is_central,
                     odd_alternating_cycle_through, random_abstract, random_polyhex)


def _cycle_graph(n):
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return build_abstract(n, edges)


def test_matching_searches_refuse_bad_vertices(pentagon):
    """A vertex to expose must be a host vertex inside `within`, and an
    alternating cycle must start at a vertex the matching leaves exposed."""
    with pytest.raises(MatchingError, match="^vertex 6 out of range$"):
        near_perfect_matching(pentagon, 6)
    with pytest.raises(MatchingError, match="^vertex 1 outside the subgraph$"):
        near_perfect_matching(pentagon, 1, within={2, 3, 4})
    g = _cycle_graph(5)
    m = near_perfect_matching(g, 1)
    with pytest.raises(MatchingError, match="^vertex 2 is covered by the matching$"):
        odd_alternating_cycle_through(g, m, 2, (1, 2))


def test_triangle_matching():
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    m = near_perfect_matching(g, 3)
    assert m.edges == frozenset({(1, 2)})


def test_pentagon_matchings(pentagon):
    for v in pentagon.vertex_ids:
        m = near_perfect_matching(pentagon, v)
        assert m is not None and len(m.edges) == 2
        assert not m.covers(v)
    assert len(enumerate_near_perfect_matchings(pentagon)) == 7


def test_exhaustive_cross_check():
    # the matching engine agrees with brute-force enumeration
    for g in (build_graph([(0, 0), (1, 0), (0, 1)]),
              _cycle_graph(7), diamond_cycle_graph(3)):
        ms = enumerate_near_perfect_matchings(g)
        exposed_by_enum = {next(iter(set(g.vertex_ids) - m.covered))
                           for m in ms}
        for v in g.vertex_ids:
            m = near_perfect_matching(g, v)
            assert (m is not None) == (v in exposed_by_enum)


def test_factor_critical():
    assert is_factor_critical(_cycle_graph(5))
    assert is_factor_critical(_cycle_graph(9))
    sod = build_graph(star_of_david_points())
    assert not is_factor_critical(sod)
    assert any(near_perfect_matching(sod, v) is None for v in sod.vertex_ids)


def test_factor_critical_matches_the_definition():
    """`is_factor_critical`, one maximum matching and one more search stage
    from the vertex it leaves single, agrees with the definition, a
    nearly perfect matching exposing each vertex in turn, on both
    corpora, `diamond_cycle`, `chord_cycle`, random polyhexes and random
    abstract hosts. Both answers occur among the random hosts."""
    rnd = random.Random(26)
    hosts = (locally_connected_corpus() + degree6_corpus()
             + [diamond_cycle_graph(n) for n in range(3, 8)]
             + [chord_cycle_graph(n, m) for n in range(3, 8) for m in range(2, n)])
    named = len(hosts)
    hosts += [random_polyhex(rnd, rnd.choice(range(3, 24, 2))) for _ in range(300)]
    hosts += [random_abstract(rnd, rnd.choice(range(3, 16, 2))) for _ in range(300)]
    answers = [factor_critical_by_definition(g) for g in hosts]
    assert [is_factor_critical(g) for g in hosts] == answers
    assert set(answers[named:named + 300]) == set(answers[named + 300:]) == {False, True}


def test_alternating_path(pentagon):
    m = Matching(frozenset({(2, 3), (4, 5)}))
    path = alternating_path_to(m, near_perfect_matching(pentagon, 3), 1, 3)
    assert path[0] == 1 and path[-1] == 3
    assert len(path) % 2 == 1                  # even number of edges
    # flipping along the path yields a matching exposing 3
    flipped = set(m.edges)
    for a, b in zip(path, path[1:]):
        e = edge_key(a, b)
        flipped ^= {e}
    cover = [v for e in flipped for v in e]
    assert len(cover) == len(set(cover)) and 3 not in cover


def test_alternating_path_trivial(pentagon):
    m = Matching(frozenset({(2, 3), (4, 5)}))
    assert alternating_path_to(m, near_perfect_matching(pentagon, 1), 1, 1) == [1]


def test_is_central(pentagon):
    assert is_central(pentagon, pentagon.vertex_ids)
    assert not is_central(pentagon, [1, 2])      # odd remainder
    g = build_graph([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, -1), (1, -1)])
    # removing a 5-subset leaving a matchable pair
    for sub in itertools.combinations(g.vertex_ids, 5):
        rest = sorted(set(g.vertex_ids) - set(sub))
        expect = g.has_edge(*rest)
        assert is_central(g, sub) == expect


def test_odd_alternating_cycle():
    g = _cycle_graph(7)
    m = near_perfect_matching(g, 1)
    cyc = odd_alternating_cycle_through(g, m, 1, edge_key(1, 2))
    assert len(cyc) == 7
    assert is_alternating_cycle(m, cyc)


def test_odd_alternating_cycle_pentagon(pentagon):
    m = Matching(frozenset({(2, 3), (4, 5)}))
    cyc = odd_alternating_cycle_through(pentagon, m, 1, edge_key(1, 2))
    assert len(cyc) % 2 == 1
    assert is_alternating_cycle(m, cyc)
    assert edge_key(1, 2) in {edge_key(a, b)
                              for a, b in zip(cyc, cyc[1:] + cyc[:1])}


def test_odd_alternating_cycle_avoid():
    # 7-cycle 1..7 with the diamond 8, 9 hung on its edge (6, 7)
    g = diamond_cycle_graph(4)
    m = Matching(frozenset({(2, 3), (4, 5), (6, 9), (7, 8)}))
    through_diamond = (1, 2, 3, 4, 5, 6, 9, 8, 7)
    assert odd_alternating_cycle_through(g, m, 1, (8, 9)) == through_diamond
    assert odd_alternating_cycle_through(g, m, 1, (4, 5)) == through_diamond
    assert odd_alternating_cycle_through(g, m, 1, (4, 5), avoid=(8, 9)) is None
    m2 = Matching(frozenset({(2, 3), (4, 5), (6, 7), (8, 9)}))
    assert odd_alternating_cycle_through(g, m2, 1, (4, 5), avoid=(8, 9)) \
        == (1, 2, 3, 4, 5, 6, 7)


def test_matching_partner_map():
    """Partners come from the map built in the disjointness check; it is
    no field, so equality, hashing and repr see only the edges."""
    m = Matching(frozenset({(2, 3), (4, 5)}))
    assert [m._mate.get(v) for v in range(1, 6)] == [None, 3, 2, 5, 4]
    assert m.covered == {2, 3, 4, 5}
    assert m.covers(4) and not m.covers(1)
    same = Matching(frozenset({(4, 5), (2, 3)}))
    assert m == same and hash(m) == hash(same)
    assert repr(m) == f"Matching(edges={m.edges!r})"
    with pytest.raises(MatchingError):
        Matching(frozenset({(1, 2), (2, 3)}))


def _component_path(m1, m2, start):
    """Reference: the component of M1 Δ M2 at `start` from an adjacency of
    the whole symmetric difference, walked from `start`; None when `start`
    meets two of its edges."""
    adj = {}
    for u, v in m1.edges ^ m2.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if len(adj.get(start, ())) > 1:
        return None
    path, prev = [start], None
    while True:
        nxt = [w for w in adj.get(path[-1], ()) if w != prev]
        if not nxt:
            return path
        prev = path[-1]
        path.append(nxt[0])


def test_alternating_path_equals_component_walk():
    """On every pair of nearly perfect matchings of small hosts and every
    start, the path from m1's exposed vertex equals the reference walk,
    and every start m1 covers is refused."""
    hosts = (build_graph([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]),
             _cycle_graph(7), build_graph(hexagon_points(1)))
    refused = 0
    for g in hosts:
        ms = enumerate_near_perfect_matchings(g)
        for m1, m2 in itertools.product(ms, repeat=2):
            (to,) = set(g.vertex_ids) - m2.covered
            for v in g.vertex_ids:
                if m1.covers(v):
                    refused += 1
                    with pytest.raises(MatchingError, match="is not exposed"):
                        alternating_path_to(m1, m2, v, to)
                else:
                    assert alternating_path_to(m1, m2, v, to) == _component_path(m1, m2, v)
    assert refused


def test_alternating_path_ear_growth_roles():
    """The case the ear growth uses: the walk starts at the vertex a second
    matching exposes and leaves by the host matching's edge, ending at the
    host matching's exposed vertex; with the roles swapped it runs back."""
    m1 = Matching(frozenset({(2, 3), (4, 5), (6, 7)}))    # exposes 1
    m2 = Matching(frozenset({(3, 4), (5, 6), (1, 7)}))    # exposes 2
    assert alternating_path_to(m2, m1, 2, 1) == [2, 3, 4, 5, 6, 7, 1]
    assert alternating_path_to(m1, m2, 1, 2) == [1, 7, 6, 5, 4, 3, 2]
