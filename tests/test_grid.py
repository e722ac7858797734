import pytest

from trigrid.grid import (DisconnectedError, DuplicatePointError,
                          EvenOrderError, build_graph,
                          canonical_point_form, chord_cycle_graph,
                          degree6_vertices, diamond_cycle_graph, generate,
                          hex_with_hole_graph, hexagon_points,
                          is_locally_connected, is_star_of_david,
                          is_two_connected, star_of_david_points)

TRIANGLE = [(0, 0), (1, 0), (0, 1)]


def test_triangle_census():
    g = build_graph(TRIANGLE)
    assert g.num_vertices == 3
    assert len(g.edges) == 3
    assert len(g.faces) == 1
    assert g.holes == ()


def test_pentagon_census(pentagon):
    assert pentagon.num_vertices == 5
    assert len(pentagon.edges) == 7
    assert len(pentagon.faces) == 3
    assert pentagon.holes == ()


def test_holed_instance_census():
    g = hex_with_hole_graph()
    assert len(g.holes) >= 1
    assert all(len(h) >= 6 for h in g.holes)
    # every inner edge lies in exactly two triangles
    for e in g.inner_edges:
        count = sum(1 for tri in g.faces if set(e) <= set(tri))
        assert count == 2


def test_build_errors():
    with pytest.raises(EvenOrderError):
        build_graph([(0, 0), (1, 0)])
    with pytest.raises(DuplicatePointError):
        build_graph([(0, 0), (0, 0), (1, 0)])
    with pytest.raises(DisconnectedError):
        build_graph([(0, 0), (5, 5), (9, 9)])


def test_two_connected():
    assert is_two_connected(build_graph(TRIANGLE))
    # two triangles sharing exactly one vertex
    bowtie = build_graph([(0, 0), (1, 0), (0, 1), (2, -1), (2, 0)])
    assert not is_two_connected(bowtie)
    g = build_graph([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    assert is_two_connected(g)


def test_locally_connected():
    assert is_locally_connected(build_graph(TRIANGLE))
    assert is_locally_connected(build_graph(star_of_david_points()))
    assert is_locally_connected(build_graph(hexagon_points(1)))


def test_star_of_david_detection():
    pts = star_of_david_points()
    assert is_star_of_david(build_graph(pts))
    shifted = [(x + 3, y - 2) for x, y in pts]
    assert is_star_of_david(build_graph(shifted))
    mirrored = [(x + y, -y) for x, y in pts]
    assert is_star_of_david(build_graph(mirrored))
    assert not is_star_of_david(build_graph(TRIANGLE))


def test_degree6():
    assert degree6_vertices(build_graph(TRIANGLE)) == set()
    hexg = build_graph(hexagon_points(1))
    assert degree6_vertices(hexg) == {4}       # center (0,0) in id order
    # no-interior instance
    g = build_graph([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    assert degree6_vertices(g) == set()
    # degree-6 vertices are exactly those off every boundary cycle
    for g in (hexg, hex_with_hole_graph()):
        on_boundary = set()
        for cyc in g.boundary_cycles:
            on_boundary |= set(cyc)
        assert degree6_vertices(g) == set(g.vertex_ids) - on_boundary


def test_generate_families():
    g = generate("pentagon")
    assert g.num_vertices == 5 and len(g.edges) == 7

    d = diamond_cycle_graph(3)
    assert d.num_vertices == 7
    # odd cycle 1..5 plus the diamond on {4, 7, 6, 5}
    for e in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
              (4, 7), (7, 6), (6, 5), (5, 7), (5, 4)]:
        assert d.has_edge(*e)

    c = chord_cycle_graph(4, 2)
    assert c.num_vertices == 9
    assert c.has_edge(1, 5)
    # the chord closes an odd subcycle of length 2m+1 = 5
    assert all(c.has_edge(i, i + 1) for i in range(1, 9))
    assert c.has_edge(9, 1)

    sod = generate("star_of_david")
    assert sod.num_vertices == 13 and is_star_of_david(sod)


def test_abstract_flag():
    c = chord_cycle_graph(4, 2)
    assert not c.is_lattice
    assert build_graph(TRIANGLE).is_lattice


def test_canonical_form_invariance():
    pts = hexagon_points(1) + [(2, -1), (2, 0)]
    rot = [(-y, x + y) for x, y in pts]
    mir = [(x + y, -y) for x, y in pts]
    sh = [(x - 7, y + 4) for x, y in pts]
    base = canonical_point_form(pts)
    assert canonical_point_form(rot) == base
    assert canonical_point_form(mir) == base
    assert canonical_point_form(sh) == base


def test_induced_closure():
    g = build_graph(hexagon_points(2))
    pts = {g.point_of(v): v for v in g.vertex_ids}
    from trigrid.grid import DIRS
    for p, v in pts.items():
        for dx, dy in DIRS:
            q = (p[0] + dx, p[1] + dy)
            if q in pts:
                assert g.has_edge(v, pts[q])


def test_locally_connected_implies_two_connected():
    for pts in (TRIANGLE, hexagon_points(1), hexagon_points(2),
                star_of_david_points()):
        g = build_graph(pts)
        if is_locally_connected(g):
            assert is_two_connected(g)
