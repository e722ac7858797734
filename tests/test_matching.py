import itertools

import pytest

from trigrid.grid import (build_abstract, build_graph, diamond_cycle_graph,
                          edge_key, star_of_david_points)
from trigrid.matching import (Matching, alternating_path_to,
                              enumerate_near_perfect_matchings,
                              is_alternating_cycle, is_central,
                              is_factor_critical, near_perfect_matching,
                              odd_alternating_cycle_through)


def _cycle_graph(n):
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return build_abstract(n, edges)


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


def test_alternating_path(pentagon):
    m = Matching(frozenset({(2, 3), (4, 5)}))
    path = alternating_path_to(pentagon, m, 1, 3)
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
    assert alternating_path_to(pentagon, m, 1, 1) == [1]


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
