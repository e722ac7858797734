"""Enumerated instance families for tests.

Two families: factor-critical 2-connected grids containing a degree-6
vertex (built as a full hexagon plus subsets of its surrounding ring),
and locally-connected grids spanning 5 to 25 vertices.
"""

import itertools
from typing import List, Set, Tuple

from trigrid.grid import (Point, TriGridGraph, build_graph, canonical_point_form, hexagon_points,
                          is_locally_connected, is_star_of_david, is_two_connected)
from trigrid.matching import is_factor_critical


def _ring_points(radius: int) -> List[Point]:
    return [p for p in hexagon_points(radius) if p not in hexagon_points(radius - 1)]


def degree6_corpus(max_vertices: int = 13,
                   max_instances: int = 12) -> List[TriGridGraph]:
    """Factor-critical 2-connected grids with a degree-6 vertex.

    The full 7-point hexagon plus even-sized subsets of the radius-2 ring,
    deduplicated up to lattice symmetry, smallest first. Each is connected
    and odd, and its centre has degree 6.
    """
    core = hexagon_points(1)
    ring = _ring_points(2)
    seen: Set[Tuple[Point, ...]] = set()
    out: List[TriGridGraph] = []
    budget = max_vertices - len(core)
    for size in range(0, budget + 1, 2):
        for extra in itertools.combinations(ring, size):
            pts = core + list(extra)
            key = canonical_point_form(pts)
            if key in seen:
                continue
            seen.add(key)
            g = build_graph(pts, name=f"deg6-{len(pts)}v-{len(out)}")
            if not is_two_connected(g) or not is_factor_critical(g):
                continue
            out.append(g)
            if len(out) >= max_instances:
                return out
    return out


def _lc_point_sets() -> List[Tuple[str, List[Point]]]:
    pentagon = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
    hex7 = hexagon_points(1)
    hex9 = hexagon_points(1) + [(2, -1), (2, 0)]
    hex11 = hexagon_points(1) + [(2, -1), (2, 0), (-1, -1), (0, -2)]
    hex13 = hexagon_points(1) + [(2, -1), (2, 0), (1, 1), (2, -2), (1, -2), (2, -3)]
    para15 = [(x, y) for x in range(5) for y in range(3)]
    hex19 = hexagon_points(2)
    para21 = [(x, y) for x in range(7) for y in range(3)]
    hex23 = hexagon_points(2) + [(3, -1), (3, -2), (2, 1), (3, 0)]
    para25 = [(x, y) for x in range(5) for y in range(5)]
    return [("pent5", pentagon), ("hex7", hex7), ("hex9", hex9),
            ("hex11", hex11), ("hex13", hex13), ("para15", para15),
            ("hex19", hex19), ("para21", para21), ("hex23", hex23),
            ("para25", para25)]


def locally_connected_corpus() -> List[TriGridGraph]:
    """Locally-connected non-Star-of-David grids, 5 to 25 vertices."""
    out = []
    for name, pts in _lc_point_sets():
        g = build_graph(pts, name=name)
        assert is_locally_connected(g), name
        assert not is_star_of_david(g), name
        out.append(g)
    return out
