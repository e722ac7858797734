"""Dual forests of a Hamilton cycle: test support for criterion 8 and
`tests/test_hamilton.py`.

The closed curve of a Hamilton cycle on a lattice host splits the triangle
faces into the two sides of its polygon. On each side, triangles that share
an inner edge the cycle does not use are joined; both dual graphs are
forests of maximum degree three. No planner uses this, so it lives with the
tests, and networkx, a test dependency, holds the two dual graphs.
"""

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import networkx as nx

from trigrid.grid import Edge, GridError, TriGridGraph, cartesian, edge_key
from trigrid.hamilton import HamiltonCycle, validate_cycle


@dataclass(frozen=True, eq=False)
class DualForests:
    """Triangle faces split by the closed curve of a Hamilton cycle.

    ``side1`` holds the triangles outside the cycle polygon (the side of
    the outer face), ``side2`` those inside; nodes are triangle frozensets
    and dual edges connect triangles sharing an inner edge on the same
    side. ``cut_edges`` are the inner edges crossed by the cycle.
    """

    triangles: Tuple[FrozenSet[int], ...]
    side1: nx.Graph = field(repr=False)
    side2: nx.Graph = field(repr=False)
    cut_edges: FrozenSet[Edge] = frozenset()


def _point_in_polygon(pt: Tuple[float, float],
                      poly: Sequence[Tuple[float, float]]) -> bool:
    x, y = pt
    inside = False
    for (x1, y1), (x2, y2) in zip(poly, list(poly[1:]) + [poly[0]]):
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xi:
                inside = not inside
    return inside


def dual_forests(g: TriGridGraph, h: HamiltonCycle) -> DualForests:
    """Partition the triangle faces by the side of the cycle polygon and
    build the two dual graphs; both are forests of maximum degree three."""
    validate_cycle(g, h)
    if not g.is_lattice:
        raise GridError("dual forests need lattice coordinates")
    poly = [cartesian(g.point_of(v)) for v in h.order]
    hedges = h.edges

    outside: Set[FrozenSet[int]] = set()
    for tri in g.faces:
        cx = sum(cartesian(g.point_of(v))[0] for v in tri) / 3.0
        cy = sum(cartesian(g.point_of(v))[1] for v in tri) / 3.0
        if not _point_in_polygon((cx, cy), poly):
            outside.add(tri)

    by_edge: Dict[Edge, List[FrozenSet[int]]] = {}
    for tri in g.faces:
        for u, v in ((a, b) for a in tri for b in tri if a < b):
            if g.has_edge(u, v):
                by_edge.setdefault(edge_key(u, v), []).append(tri)

    side1 = nx.Graph()
    side2 = nx.Graph()
    for tri in g.faces:
        (side1 if tri in outside else side2).add_node(tri)
    cut: Set[Edge] = set()
    for e in g.inner_edges:
        t1, t2 = by_edge[e]
        if e in hedges:
            cut.add(e)
            assert (t1 in outside) != (t2 in outside), \
                "cycle edge with both triangles on one side"
            continue
        assert (t1 in outside) == (t2 in outside), \
            "shared non-cycle edge must keep both triangles on one side"
        (side1 if t1 in outside else side2).add_edge(t1, t2)

    for forest in (side1, side2):
        assert forest.number_of_nodes() == 0 or nx.is_forest(forest)
        assert all(dg <= 3 for _, dg in forest.degree())
    return DualForests(tuple(g.faces), side1, side2, frozenset(cut))
