import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigrid.grid import (DIRS, DisconnectedError, DuplicatePointError,
                          EvenOrderError, GridError, NotLatticeError, build_abstract,
                          build_graph, canonical_point_form, chord_cycle_graph,
                          degree6_vertices, diamond_cycle_graph, generate,
                          hex_with_hole_graph, hexagon_points, hole_count,
                          is_locally_connected, is_star_of_david,
                          is_two_connected, star_of_david_points, triangles)

from corpus import degree6_corpus, locally_connected_corpus
from support import neighbourhoods_connected

TRIANGLE = [(0, 0), (1, 0), (0, 1)]


def test_triangle_census():
    g = build_graph(TRIANGLE)
    assert g.num_vertices == 3
    assert len(g.edges) == 3
    assert triangles(g) == [(1, 2, 3)]
    assert hole_count(g) == 0


def test_pentagon_census(pentagon):
    assert pentagon.num_vertices == 5
    assert len(pentagon.edges) == 7
    assert len(triangles(pentagon)) == 3
    assert hole_count(pentagon) == 0


def test_holed_instance_census():
    g = hex_with_hole_graph()
    assert len(triangles(g)) == 24 - 2 * 6     # 6 around each removed point
    assert hole_count(g) == 2


@pytest.mark.parametrize("radius", [0, 1, -1])
def test_hex_with_hole_refuses_radius_below_2(radius):
    """Below radius 2 the two removed points are no holes: radius 1 would
    leave a five-vertex host and radius 0 a single vertex."""
    with pytest.raises(GridError, match=r"^hex_with_hole requires radius >= 2$"):
        hex_with_hole_graph(radius)


def _missing_components(points):
    """Holes counted independently of the host's edges: the connected
    components of the lattice points missing from the bounding box (plus a
    margin of 1) that do not reach the box's border. The triangular lattice
    is self-matching, so each hole holds exactly one such component."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x0, x1, y0, y1 = min(xs) - 1, max(xs) + 1, min(ys) - 1, max(ys) + 1
    missing = {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)} - set(points)
    count = 0
    while missing:
        stack = [missing.pop()]
        bounded = True
        while stack:
            x, y = stack.pop()
            bounded &= x0 < x < x1 and y0 < y < y1
            for dx, dy in DIRS:
                q = (x + dx, y + dy)
                if q in missing:
                    missing.remove(q)
                    stack.append(q)
        count += bounded
    return count


def _random_points(rng):
    """Lattice points grown one neighbour at a time from the origin to an
    odd count, or a radius-3 hexagon with random points punched out (which
    can leave it disconnected or even)."""
    if rng.random() < 0.5:
        size = rng.randrange(1, 40, 2)
        pts = {(0, 0)}
        while len(pts) < size:
            x, y = rng.choice(sorted(pts))
            dx, dy = rng.choice(DIRS)
            pts.add((x + dx, y + dy))
        return sorted(pts)
    hexagon = hexagon_points(3)
    return sorted(set(hexagon) - set(rng.sample(hexagon, rng.randrange(1, 13))))


def test_hole_count_equals_missing_components():
    """Euler's count of holes equals the components of missing lattice
    points they enclose, on random grown and punched hosts."""
    rng = random.Random(20261018)
    holed = hosts = 0
    while hosts < 400:
        pts = _random_points(rng)
        try:
            g = build_graph(pts)
        except GridError:
            continue
        holes = hole_count(g)
        assert holes == _missing_components(pts), pts
        hosts += 1
        holed += holes > 0
    assert holed >= 40


@pytest.mark.parametrize("kind, holes", [("triangle", 0), ("pentagon", 0),
                                         ("hexagon", 0), ("hex_with_hole", 2)])
def test_hole_count_of_generated_hosts(kind, holes):
    g = generate(kind)
    assert hole_count(g) == holes == _missing_components(g.points)


def test_hole_count_refuses_abstract_hosts():
    with pytest.raises(NotLatticeError):
        hole_count(chord_cycle_graph(4, 2))


def test_build_errors():
    with pytest.raises(EvenOrderError):
        build_graph([(0, 0), (1, 0)])
    with pytest.raises(DuplicatePointError):
        build_graph([(0, 0), (0, 0), (1, 0)])
    with pytest.raises(DisconnectedError):
        build_graph([(0, 0), (5, 5), (9, 9)])


def test_build_abstract_refuses_a_loop():
    """A loop edge is refused like an out-of-range one; the triangle
    without it builds."""
    assert build_abstract(3, [(1, 2), (2, 3), (1, 3)]).edges == {(1, 2), (2, 3), (1, 3)}
    with pytest.raises(GridError, match=r"edge \(1,1\) is a loop"):
        build_abstract(3, [(1, 1), (1, 2), (2, 3), (1, 3)])


def _lattice_components(points):
    """The number of connected components of the points' lattice graph."""
    unseen, count = set(points), 0
    while unseen:
        count += 1
        stack = [unseen.pop()]
        while stack:
            x, y = stack.pop()
            for dx, dy in DIRS:
                q = (x + dx, y + dy)
                if q in unseen:
                    unseen.remove(q)
                    stack.append(q)
    return count


_WINDOW = [(x, y) for x in range(-1, 3) for y in range(-1, 3)]
# any points of the window, repeats included, or a subset of it in any order,
# each point kept with probability 3/4 so that most subsets are connected
_POINT_LISTS = (st.lists(st.sampled_from(_WINDOW), max_size=11)
                | st.lists(st.sampled_from([True, True, True, False]),
                           min_size=len(_WINDOW), max_size=len(_WINDOW))
                .map(lambda keep: [q for q, k in zip(_WINDOW, keep) if k])
                .flatmap(st.permutations))


@settings(max_examples=300, deadline=None)
@given(pts=_POINT_LISTS)
def test_build_graph_is_the_induced_lattice_graph_or_refuses(pts):
    """Any list of lattice points, duplicates, even sizes and disconnected
    sets included, builds the graph on its points in lexicographic order
    whose edges are exactly the lattice-adjacent pairs, or raises the
    `GridError` for the first thing wrong with it."""
    distinct = sorted(set(pts))
    if not pts:
        expected = GridError
    elif len(distinct) < len(pts):
        expected = DuplicatePointError
    elif len(pts) % 2 == 0:
        expected = EvenOrderError
    elif _lattice_components(pts) > 1:
        expected = DisconnectedError
    else:
        expected = None
    if expected is not None:
        with pytest.raises(GridError) as ei:
            build_graph(pts)
        assert type(ei.value) is expected
        return
    g = build_graph(pts)
    assert g.points == tuple(distinct)
    assert g.edges == {(i, j) for i, a in enumerate(distinct, 1)
                       for j, b in enumerate(distinct, 1)
                       if i < j and (b[0] - a[0], b[1] - a[1]) in DIRS}


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
    # two triangles sharing one vertex, and a hexagon with holes
    assert not is_locally_connected(build_graph([(0, 0), (1, 0), (0, 1), (2, -1), (2, 0)]))
    assert not is_locally_connected(hex_with_hole_graph(2))


def test_locally_connected_refuses_abstract_hosts():
    with pytest.raises(NotLatticeError):
        is_locally_connected(chord_cycle_graph(4, 2))


@settings(max_examples=300, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_locally_connected_equals_neighbourhood_search(rnd):
    """The direction-mask table agrees with a search of each induced
    neighbourhood on random grown and punched polyhexes."""
    try:
        g = build_graph(_random_points(rnd))
    except GridError:
        assume(False)
    assert is_locally_connected(g) == neighbourhoods_connected(g)


def test_star_of_david_detection():
    pts = star_of_david_points()
    assert is_star_of_david(build_graph(pts))
    shifted = [(x + 3, y - 2) for x, y in pts]
    assert is_star_of_david(build_graph(shifted))
    mirrored = [(x + y, -y) for x, y in pts]
    assert is_star_of_david(build_graph(mirrored))
    assert not is_star_of_david(build_graph(TRIANGLE))


def test_star_of_david_verdict_matches_the_canonical_form(monkeypatch):
    """The vertex- and edge-count test leaves the verdict as the canonical
    form gives it, on the Star of David, shifted and mirrored, and on every
    13-vertex corpus host; a host without the hexagram's 24 edges is
    refused before `canonical_point_form` runs."""
    import trigrid.grid as grid

    pts = star_of_david_points()
    sod = canonical_point_form(pts)
    hosts = [build_graph(pts), build_graph([(x + 3, y - 2) for x, y in pts]),
             build_graph([(x + y, -y) for x, y in pts])]
    hosts += [g for g in locally_connected_corpus() + degree6_corpus(13, 40)
              if g.num_vertices == 13]
    assert any(len(g.edges) == 24 for g in hosts[3:])
    assert any(len(g.edges) != 24 for g in hosts[3:])
    for g in hosts:
        assert is_star_of_david(g) == (canonical_point_form(g.points) == sod), g.name
    assert sum(is_star_of_david(g) for g in hosts) == 3

    calls = []
    monkeypatch.setattr(grid, "canonical_point_form",
                        lambda points: calls.append(points) or sod)
    for g in hosts:
        if len(g.edges) != 24:
            assert not is_star_of_david(g)
    assert calls == []


def test_degree6():
    assert degree6_vertices(build_graph(TRIANGLE)) == set()
    hexg = build_graph(hexagon_points(1))
    assert degree6_vertices(hexg) == {4}       # center (0,0) in id order
    # no-interior instance
    g = build_graph([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    assert degree6_vertices(g) == set()


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


@pytest.mark.parametrize("kind, params, message", [
    ("mobius", {}, "unknown instance kind: mobius"),
    ("triangle", {"radius": 3, "n": 3}, "triangle does not take parameter n"),
    ("pentagon", {"m": 1}, "pentagon does not take parameter m"),
    ("hexagon", {"radius": 1}, "hexagon does not take parameter radius"),
    ("star_of_david", {"radius": 2, "a": 0}, "star_of_david does not take parameter a"),
    ("diamond_cycle", {"n": 4, "radius": 2, "m": 3}, "diamond_cycle does not take parameter m"),
    ("diamond_cycle", {"m": 3}, "diamond_cycle does not take parameter m"),
    ("chord_cycle", {"n": 5, "m": 3, "radius": 2, "k": 1},
     "chord_cycle does not take parameter k"),
    ("hex_with_hole", {"removed": 3, "radius": 3, "n": 1},
     "hex_with_hole does not take parameter n"),
    ("diamond_cycle", {}, "diamond_cycle needs parameter n"),
    ("chord_cycle", {}, "chord_cycle needs parameter n"),
    ("chord_cycle", {"m": 3}, "chord_cycle needs parameter n"),
    ("chord_cycle", {"n": 5}, "chord_cycle needs parameter m"),
])
def test_generate_refusals(kind, params, message):
    """`generate` refuses an unknown kind, then a parameter the kind does
    not take (the first in sorted order, before any missing one), then a
    missing parameter (the first in the builder's order), each with its
    exact message."""
    with pytest.raises(GridError) as ei:
        generate(kind, **params)
    assert type(ei.value) is GridError and str(ei.value) == message


def test_generate_hex_with_hole_defaults_to_radius_2():
    g = generate("hex_with_hole")
    assert g.name == "hex_with_hole(r=2)"
    assert (g.points, g.edges) == (hex_with_hole_graph(2).points, hex_with_hole_graph(2).edges)
    assert g.num_vertices == 17


def test_abstract_flag():
    c = chord_cycle_graph(4, 2)
    assert not c.is_lattice
    assert build_graph(TRIANGLE).is_lattice
    # an abstract host has no points, so none is the Star of David, even at 13 vertices
    with pytest.raises(NotLatticeError, match="^abstract graph has no lattice coordinates$"):
        c.point_of(1)
    assert not is_star_of_david(chord_cycle_graph(6, 2))


@pytest.mark.parametrize("build, error, message", [
    (lambda: build_abstract(4, [(1, 2), (2, 3), (3, 4)]), EvenOrderError,
     r"^\|V\| = 4 must be odd$"),
    (lambda: build_abstract(-1, []), GridError, r"^\|V\| = -1 must be positive$"),
    (lambda: build_abstract(3, [(1, 2), (2, 4)]), GridError, r"^edge \(2,4\) out of range$"),
    (lambda: build_abstract(5, [(1, 2), (2, 3), (1, 3), (4, 5)]), DisconnectedError,
     "^abstract graph is disconnected$"),
    (lambda: diamond_cycle_graph(2), GridError, "^diamond_cycle requires n >= 3$"),
    (lambda: chord_cycle_graph(4, 1), GridError, "^chord_cycle requires 2 <= m <= n-1$"),
    (lambda: chord_cycle_graph(4, 4), GridError, "^chord_cycle requires 2 <= m <= n-1$"),
], ids=["even-order", "negative-order", "edge-out-of-range", "disconnected", "diamond-cycle-n2",
        "chord-cycle-m1", "chord-cycle-m-n"])
def test_abstract_builders_refuse_bad_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


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
