import itertools
import random

import pytest

from trigrid.grid import (build_abstract, build_graph, canonical_point_form, cycle_edges,
                          diamond_cycle_graph, edge_key, enumerate_diamonds,
                          hex_with_hole_graph, star_of_david_points, triangles)
from trigrid.ears import (EarDecomposition, EarError, NoAdmissibleError,
                          LevelMatchings, _diamond_structure, _fans, _pentagon_structure,
                          align_with_ears, ear_settled, find_admissible, grow_ears,
                          is_aligned_with, path_edges, validate_decomposition)
from trigrid.matching import enumerate_near_perfect_matchings, near_perfect_matching
from trigrid.placement import Placement

from conftest import random_placement
from corpus import degree6_corpus, locally_connected_corpus
from support import (ear_decomposition, is_alternating_cycle, label_word, random_abstract,
                     random_polyhex, reference_diamond_structure)


def test_decomposition_regions():
    d = EarDecomposition(base=(1, 2, 3), ears=((1, 4, 5, 2),))
    assert d.levels == 2
    assert d.ear(2) == (1, 4, 5, 2)
    vs, es = d.region(1)
    assert vs == {1, 2, 3} and es == cycle_edges((1, 2, 3))
    vs, es = d.region(2)
    assert vs == {1, 2, 3, 4, 5}
    assert es == cycle_edges((1, 2, 3)) | path_edges((1, 4, 5, 2))


def test_validate_rejects_even_base(pentagon):
    with pytest.raises(EarError):
        validate_decomposition(pentagon, EarDecomposition((1, 2, 4, 3), ()))


@pytest.mark.parametrize("base, ears, message", [
    ((1, 2, 4, 5, 3), ((2, 1, 3),), "has even length"),
    ((1, 2, 4, 5, 3), ((3, 3),), "is not proper"),
    ((1, 2, 3), ((4, 5),), "endpoints not in earlier subgraph"),
    ((1, 2, 4, 5, 3), ((2, 4, 5, 3),), "interior meets earlier subgraph"),
    ((1, 2, 4, 5, 3), ((2, 5),), r"ear edge \(2, 5\) missing from graph"),
    ((1, 2, 4, 5, 3), ((1, 2),), r"ear edge \(1, 2\) repeated"),
    ((1, 2, 4, 5, 3), ((2, 3),), "does not cover the graph exactly"),
], ids=["even", "improper", "endpoint-outside", "interior-inside", "missing-edge",
        "repeated-edge", "uncovered"])
def test_validate_rejects_bad_ears(pentagon, base, ears, message):
    """Each ear check of `validate_decomposition` refuses on its own; the
    pentagon's 5-cycle (1, 2, 4, 5, 3) with the ears (2, 3) and (3, 4) is
    valid."""
    validate_decomposition(pentagon, EarDecomposition((1, 2, 4, 5, 3), ((2, 3), (3, 4))))
    with pytest.raises(EarError, match=message):
        validate_decomposition(pentagon, EarDecomposition(base, ears))


def test_validate_rejects_missing_edge(pentagon):
    with pytest.raises(EarError):
        validate_decomposition(pentagon, EarDecomposition((1, 2, 5), ()))


def test_find_admissible_pentagon(pentagon):
    d = find_admissible(pentagon)
    assert d.kind == "pentagon"
    validate_decomposition(pentagon, d)
    vs, _ = d.region(d.levels)
    assert vs == set(pentagon.vertex_ids)


def test_find_admissible_diamond_cycle():
    g = diamond_cycle_graph(4)
    d = find_admissible(g)
    assert d.kind == "diamond_cycle"
    validate_decomposition(g, d)
    vs, _ = d.region(d.levels)
    assert vs == set(g.vertex_ids)


def test_find_admissible_corpus():
    for g in degree6_corpus():
        d = find_admissible(g)
        assert d.kind in ("pentagon", "diamond_cycle")
        validate_decomposition(g, d)
        vs, _ = d.region(d.levels)
        assert vs == set(g.vertex_ids)


def test_find_admissible_refuses_triangle():
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(NoAdmissibleError):
        find_admissible(g)


def test_find_admissible_refuses_star_of_david():
    g = build_graph(star_of_david_points())
    with pytest.raises(NoAdmissibleError):
        find_admissible(g)


def test_ear_decomposition_from_matching(hex7):
    m = near_perfect_matching(hex7, 4)
    d = ear_decomposition(hex7, m)
    validate_decomposition(hex7, d)
    vs, _ = d.region(d.levels)
    assert vs == set(hex7.vertex_ids)


def test_extend_from_central(hex7):
    d = find_admissible(hex7)
    _, m = _pentagon_structure(hex7)
    vs, es = d.region(1)
    full = EarDecomposition(d.base, tuple(grow_ears(hex7, m, vs, es)), d.kind)
    assert full.base == d.base and full.kind == d.kind
    validate_decomposition(hex7, full)
    vs, _ = full.region(full.levels)
    assert vs == set(hex7.vertex_ids)


def test_align_with_ears(rng):
    """Alignment ends aligned with the decomposition. Aligning an aligned
    placement again slides no piece onto an ear above level 3: each of
    those ears is settled, so only the core's two exposures run."""
    for g in degree6_corpus():
        d = find_admissible(g)
        levels = LevelMatchings(g, d)            # shared, as within one plan
        _, core_edges = d.region(3)
        for _ in range(5):
            p = random_placement(g, rng)
            seq = align_with_ears(p, levels)
            assert seq.start.pieces == p.pieces
            assert is_aligned_with(seq.end, d)
            again = align_with_ears(seq.end, levels)
            assert all(edge_key(kept, dest) in core_edges for _, kept, dest in label_word(again))


def test_ear_settled_reads_the_ear_pattern():
    """An odd ear is settled exactly when its pieces are its interior
    dominoes; a chord is settled exactly when it holds no piece."""
    ear = (1, 2, 3, 4, 5, 6)
    assert ear_settled({(2, 3), (4, 5), (7, 8)}, ear)
    assert not ear_settled({(2, 3)}, ear)                   # (4, 5) missing
    assert not ear_settled({(1, 2), (3, 4), (5, 6)}, ear)   # end edges held
    assert not ear_settled({(2, 3), (4, 5), (5, 6)}, ear)
    assert ear_settled({(2, 3)}, (1, 4))
    assert not ear_settled({(1, 4)}, (4, 1))


def test_level_matchings_are_fresh_matchings():
    """Each table entry is what a fresh `near_perfect_matching` call on the
    level's region returns, and a second lookup returns the same object.
    Each region is built on first use, here from the top level down as a
    plan asks for them, equals `d.region(i)` and lists its vertices and
    edges in the same order, which the blossom's answer depends on."""
    g = degree6_corpus(13, 12)[-1]
    d = find_admissible(g)
    levels = LevelMatchings(g, d)
    for i in range(d.levels, 0, -1):
        vs, es = d.region(i)
        assert levels.region(i) == (vs, es)
        assert [list(x) for x in levels.region(i)] == [list(vs), list(es)]
        assert levels.region(i) is levels.region(i)
        for v in sorted(vs):
            m = levels.exposing(i, v)
            assert m == near_perfect_matching(g, v, within=vs, edges=es)
            assert levels.exposing(i, v) is m


def test_is_aligned_with_every_placement():
    """On every nearly perfect matching of small corpus hosts,
    `is_aligned_with` agrees with a count of the matched base edges and a
    check of each ear's pattern, and each way of failing occurs. The ears
    of a full decomposition fail whenever the base does, so the base alone
    is checked too."""
    seen = set()
    for g in locally_connected_corpus()[:5]:            # pent5 .. hex13
        full = find_admissible(g)
        for d in (full, EarDecomposition(full.base, (), full.kind)):
            for m in enumerate_near_perfect_matchings(g):
                p = Placement.make(g, sorted(m.edges))
                base = (sum(e in m.edges for e in cycle_edges(d.base))
                        == len(d.base) // 2)
                ears = all([edge_key(a, b) in m.edges for a, b in zip(ear, ear[1:])]
                           == [t % 2 == 1 for t in range(len(ear) - 1)]
                           for ear in d.ears)
                if p.exposed not in d.base:
                    why = "exposed off the base"
                elif not base:
                    why = "base does not alternate"
                elif not ears:
                    why = "an ear does not alternate"
                else:
                    why = "aligned"
                assert is_aligned_with(p, d) == (why == "aligned"), (g.name, d, why)
                seen.add(why)
    assert seen == {"exposed off the base", "base does not alternate",
                    "an ear does not alternate", "aligned"}


def _diamonds_all_pairs(g):
    """Every pair of triangles sharing an edge whose outer vertices are not
    adjacent, scanned over all pairs of `triangles` in order."""
    out = []
    tris = triangles(g)
    for i, a in enumerate(tris):
        for b in tris[i + 1:]:
            shared = set(a) & set(b)
            if len(shared) != 2:
                continue
            s1, s2 = sorted(shared)
            (t1,) = set(a) - shared
            (t2,) = set(b) - shared
            if t1 > t2:
                t1, t2 = t2, t1
            vs = [s1, s2, t1, t2]
            if sum(g.has_edge(x, y) for x, y in itertools.combinations(vs, 2)) == 5:
                out.append((s1, s2, t1, t2))
    return out


def test_enumerate_diamonds_matches_all_pairs_scan():
    """Same diamonds in the same order as the all-pairs scan, since
    `_diamond_structure` takes the first that works. The abstract host,
    K5 less one edge, has edges on three triangles."""
    k5_less = build_abstract(5, [e for e in itertools.combinations(range(1, 6), 2)
                                 if e != (4, 5)])
    hosts = (locally_connected_corpus() + degree6_corpus(17, 30)
             + [hex_with_hole_graph(2), diamond_cycle_graph(6), k5_less])
    for g in hosts:
        assert enumerate_diamonds(g) == _diamonds_all_pairs(g), g.name
    assert len(enumerate_diamonds(k5_less)) == 3


def _fans_permutation_scan(g, t):
    """Every ordered 4-tuple of t's neighbours that is a path c1-c2-c3-c4
    with c1 < c4 and makes 7 edges with t, in permutation order."""
    out = []
    for quad in itertools.permutations(sorted(g.adj[t]), 4):
        c1, c2, c3, c4 = quad
        if c1 > c4 or not (g.has_edge(c1, c2) and g.has_edge(c2, c3)
                           and g.has_edge(c3, c4)):
            continue
        vs = (t,) + quad
        if sum(g.has_edge(a, b) for a, b in itertools.combinations(vs, 2)) == 7:
            out.append(quad)
    return out


def test_fans_match_permutation_scan():
    """`_fans` lists the same pentagon fans per apex, in the same order, as
    a scan of all 4-permutations of the apex's neighbours; so
    `_pentagon_structure`, which takes the first fan whose rest has a
    perfect matching, picks the same core. The abstract hosts hold what
    lattice neighbourhoods cannot: K5, the wheel on six spokes, and the
    fan 2-3-4-5 around vertex 1 with each one of its three chords."""
    k5 = build_abstract(5, list(itertools.combinations(range(1, 6), 2)))
    wheel = build_abstract(7, [(1, s) for s in range(2, 8)]
                           + [(s, (s - 1) % 6 + 2) for s in range(2, 8)])
    chorded = [build_abstract(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4),
                                  (4, 5), chord]) for chord in ((2, 4), (3, 5), (2, 5))]
    hosts = (locally_connected_corpus() + degree6_corpus(17, 30)
             + [hex_with_hole_graph(2), diamond_cycle_graph(6), k5, wheel] + chorded)
    fans = 0
    for g in hosts:
        for t in g.vertex_ids:
            assert _fans(g, t) == _fans_permutation_scan(g, t), (g.name, t)
            fans += len(_fans(g, t))
    assert fans and not _fans(k5, 1) and len(_fans(wheel, 1)) == 6
    assert not any(_fans(h, 1) for h in chorded)


def test_diamond_core_matches_the_cycle_search():
    """`_diamond_structure`, two matchings and the alternating walk per
    diamond and outer edge, picks the same diamond, ear u-x-y-v and chord
    as the odd alternating cycle search at every vertex
    (`support.reference_diamond_structure`), or refuses where it refuses.
    Its base is an odd cycle through (u, v) that avoids x and y and
    alternates under its matching, which exposes u. Hosts:
    `diamond_cycle(3..10)`, K5 less an edge, 200 distinct random polyhexes
    of 9-25 vertices and 100 random abstract hosts of 7-15 vertices; both
    outcomes occur."""
    rng = random.Random(44)
    k5_less = build_abstract(5, [e for e in itertools.combinations(range(1, 6), 2)
                                 if e != (1, 2)])
    hosts = [diamond_cycle_graph(n) for n in range(3, 11)] + [k5_less]
    seen = set()
    while len(seen) < 200:
        g = random_polyhex(rng, rng.randrange(9, 26, 2))
        key = canonical_point_form(g.points)
        if key not in seen:
            seen.add(key)
            hosts.append(g)
    hosts += [random_abstract(rng, rng.randrange(7, 16, 2)) for _ in range(100)]
    found = 0
    for g in hosts:
        mine, ref = _diamond_structure(g), reference_diamond_structure(g)
        assert (mine is None) == (ref is None), g.name
        if mine is None:
            continue
        found += 1
        (d, m), (d_ref, _) = mine, ref
        assert d.ears == d_ref.ears and d.kind == "diamond_cycle", g.name
        (u, x, y, v), _ = d.ears
        assert is_alternating_cycle(m, d.base) and not m.covers(u)
        assert edge_key(u, v) in cycle_edges(d.base) and not {x, y} & set(d.base)
    assert 9 < found < len(hosts)
