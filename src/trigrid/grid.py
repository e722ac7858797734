"""Triangular grid graphs: induced subgraphs of the 2-D triangular lattice.

Vertices live at axial coordinates (x, y); the cartesian projection is
(x + y/2, y*sqrt(3)/2).  Vertex ids are assigned 1..|V| in lexicographic
(x, y) order so that all derived artifacts are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

Point = Tuple[int, int]
Edge = Tuple[int, int]

# Neighbor offsets in counter-clockwise angular order (0, 60, ..., 300 degrees).
DIRS: Tuple[Point, ...] = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

SQRT3 = math.sqrt(3.0)


class GridError(Exception):
    """Base error for graph construction problems."""


class DisconnectedError(GridError):
    pass


class EvenOrderError(GridError):
    pass


class DuplicatePointError(GridError):
    pass


class NotLatticeError(GridError):
    """Raised when a lattice-only predicate is applied to an abstract graph."""


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def cartesian(p: Point) -> Tuple[float, float]:
    x, y = p
    return (x + y / 2.0, y * SQRT3 / 2.0)


@dataclass(frozen=True)
class TriGridGraph:
    """An induced triangular grid graph (or an abstract graph stand-in).

    ``points`` is empty for abstract instances (``is_lattice`` False); those
    support matching/placement/oracle machinery but are rejected by the
    lattice-only predicates and by the face census.
    """

    n: int                                   # |V| = 2n + 1
    points: Tuple[Point, ...]                # id i -> points[i-1]; () if abstract
    edges: FrozenSet[Edge]
    adj: Dict[int, Tuple[int, ...]] = field(compare=False)
    faces: Tuple[FrozenSet[int], ...]        # triangle faces
    boundary_cycles: Tuple[Tuple[int, ...], ...]   # holes + outer face walks
    outer_face: Tuple[int, ...]
    holes: Tuple[Tuple[int, ...], ...]
    inner_edges: FrozenSet[Edge]
    is_lattice: bool = True
    name: str = ""

    @property
    def num_vertices(self) -> int:
        return 2 * self.n + 1

    @property
    def vertex_ids(self) -> range:
        return range(1, self.num_vertices + 1)

    def point_of(self, v: int) -> Point:
        if not self.is_lattice:
            raise NotLatticeError("abstract graph has no lattice coordinates")
        return self.points[v - 1]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges


def _lattice_edges(points: Sequence[Point]) -> Set[Tuple[Point, Point]]:
    pset = set(points)
    out = set()
    for p in points:
        for dx, dy in DIRS:
            q = (p[0] + dx, p[1] + dy)
            if q in pset and p < q:
                out.add((p, q))
    return out


def _connected(vertices: Iterable[int], adj: Dict[int, Tuple[int, ...]]) -> bool:
    vs = list(vertices)
    if not vs:
        return True
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def _face_walks(points: Sequence[Point], adj: Dict[int, Tuple[int, ...]],
                id_of: Dict[Point, int]) -> List[Tuple[int, ...]]:
    """Enumerate faces of the planar embedding given by lattice coordinates.

    Around each vertex the incident edges are ordered by lattice direction
    (counter-clockwise); each face is traced by the standard next-half-edge
    rule and reported as a closed walk of vertex ids.
    """
    dir_index = {d: i for i, d in enumerate(DIRS)}
    # ccw[v] = neighbors of v in ccw angular order
    ccw: Dict[int, List[int]] = {}
    for p in points:
        v = id_of[p]
        nbrs = []
        for d in DIRS:
            q = (p[0] + d[0], p[1] + d[1])
            if q in id_of and id_of[q] in adj[v]:
                nbrs.append(id_of[q])
        ccw[v] = nbrs

    def next_half_edge(u: int, v: int) -> Tuple[int, int]:
        # direction of v -> u, then the next neighbor clockwise around v
        pu, pv = points[u - 1], points[v - 1]
        back = (pu[0] - pv[0], pu[1] - pv[1])
        i = dir_index[back]
        # scan clockwise (decreasing ccw index) for the next present neighbor
        for step in range(1, 7):
            d = DIRS[(i - step) % 6]
            q = (pv[0] + d[0], pv[1] + d[1])
            if q in id_of and id_of[q] in adj[v]:
                return (v, id_of[q])
        raise AssertionError("isolated direction scan failed")

    visited: Set[Tuple[int, int]] = set()
    walks: List[Tuple[int, ...]] = []
    for p in points:
        u = id_of[p]
        for v in adj[u]:
            if (u, v) in visited:
                continue
            walk = []
            cur = (u, v)
            while cur not in visited:
                visited.add(cur)
                walk.append(cur[0])
                cur = next_half_edge(*cur)
            walks.append(tuple(walk))
    return walks


def _walk_area(walk: Tuple[int, ...], points: Sequence[Point]) -> int:
    """Twice the signed area of a closed walk in axial lattice units.

    Exact; its sign is that of the cartesian area, since the axial to
    cartesian map has a positive determinant.
    """
    coords = [points[v - 1] for v in walk]
    return sum(x1 * y2 - x2 * y1
               for (x1, y1), (x2, y2) in zip(coords, coords[1:] + coords[:1]))


def build_graph(points: Iterable[Point], name: str = "") -> TriGridGraph:
    """Build the induced triangular grid graph on the given lattice points."""
    pts = list(points)
    if not pts:
        raise GridError("empty point set")
    if len(pts) != len(set(pts)):
        raise DuplicatePointError("duplicate lattice points")
    if len(pts) % 2 == 0:
        raise EvenOrderError(f"|V| = {len(pts)} must be odd")
    pts.sort()
    id_of = {p: i + 1 for i, p in enumerate(pts)}

    edge_pts = _lattice_edges(pts)
    edges = frozenset(edge_key(id_of[a], id_of[b]) for a, b in edge_pts)
    adj_sets: Dict[int, Set[int]] = {i: set() for i in range(1, len(pts) + 1)}
    for u, v in edges:
        adj_sets[u].add(v)
        adj_sets[v].add(u)
    adj = {v: tuple(sorted(s)) for v, s in adj_sets.items()}
    if not _connected(adj, adj):
        raise DisconnectedError("induced graph is disconnected")

    walks = _face_walks(pts, adj, id_of)
    outer = None
    triangles: List[FrozenSet[int]] = []
    holes: List[Tuple[int, ...]] = []
    for w in walks:
        # the outer walk runs clockwise; on a tree it is the only walk and
        # encloses zero area
        if _walk_area(w, pts) <= 0:
            if outer is not None:
                raise AssertionError("two clockwise faces found")
            outer = w
            continue
        if len(w) == 3:
            triangles.append(frozenset(w))
        else:
            # induced triangular grid graphs admit no internal 4- or 5-faces
            assert len(w) >= 6, f"internal face of length {len(w)}"
            holes.append(w)
    if outer is None:  # single vertex, no edges: no faces at all
        outer = tuple(sorted(id_of.values()))[:1]
    boundary = tuple(holes) + (outer,)
    boundary_edges = set()
    for w in boundary:
        for a, b in zip(w, w[1:] + w[:1]):
            if edge_key(a, b) in edges:
                boundary_edges.add(edge_key(a, b))
    inner = frozenset(edges - boundary_edges)
    for e in inner:
        count = sum(1 for t in triangles if e[0] in t and e[1] in t)
        assert count == 2, f"inner edge {e} lies in {count} triangles"

    return TriGridGraph(
        n=(len(pts) - 1) // 2,
        points=tuple(pts),
        edges=edges,
        adj=adj,
        faces=tuple(sorted(triangles, key=sorted)),
        boundary_cycles=boundary,
        outer_face=outer,
        holes=tuple(holes),
        inner_edges=inner,
        is_lattice=True,
        name=name,
    )


def build_abstract(num_vertices: int, edge_list: Iterable[Edge], name: str = "") -> TriGridGraph:
    """Build an abstract (non-lattice) graph usable by matching/placement/oracle."""
    if num_vertices % 2 == 0:
        raise EvenOrderError(f"|V| = {num_vertices} must be odd")
    edges = frozenset(edge_key(u, v) for u, v in edge_list)
    for u, v in edges:
        if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
            raise GridError(f"edge ({u},{v}) out of range")
    adj_sets: Dict[int, Set[int]] = {i: set() for i in range(1, num_vertices + 1)}
    for u, v in edges:
        adj_sets[u].add(v)
        adj_sets[v].add(u)
    adj = {v: tuple(sorted(s)) for v, s in adj_sets.items()}
    if not _connected(adj, adj):
        raise DisconnectedError("abstract graph is disconnected")
    return TriGridGraph(
        n=(num_vertices - 1) // 2,
        points=(),
        edges=edges,
        adj=adj,
        faces=(),
        boundary_cycles=(),
        outer_face=(),
        holes=(),
        inner_edges=frozenset(),
        is_lattice=False,
        name=name,
    )


# ---------------------------------------------------------------------------
# predicates

def is_two_connected(g: TriGridGraph) -> bool:
    """True iff the graph has no cut vertex (and at least 3 vertices)."""
    if g.num_vertices < 3:
        return False
    for v in g.vertex_ids:
        rest = [u for u in g.vertex_ids if u != v]
        sub_adj = {u: tuple(w for w in g.adj[u] if w != v) for u in rest}
        if not _connected(rest, sub_adj):
            return False
    return True


def is_locally_connected(g: TriGridGraph) -> bool:
    """True iff every neighborhood induces a connected subgraph."""
    for v in g.vertex_ids:
        nbrs = set(g.adj[v])
        sub_adj = {u: tuple(w for w in g.adj[u] if w in nbrs) for u in nbrs}
        if not _connected(nbrs, sub_adj):
            return False
    return True


def degree6_vertices(g: TriGridGraph) -> Set[int]:
    return {v for v in g.vertex_ids if g.degree(v) == 6}


# ---------------------------------------------------------------------------
# lattice symmetry canonicalization (12-element dihedral group)

def _rot60(p: Point) -> Point:
    x, y = p
    return (-y, x + y)


def _mirror(p: Point) -> Point:
    x, y = p
    return (x + y, -y)


def canonical_point_form(points: Iterable[Point]) -> Tuple[Point, ...]:
    """Canonical representative of a point set under rotation/reflection/translation."""
    pts = list(points)
    best = None
    for mirrored in (False, True):
        base = [_mirror(p) for p in pts] if mirrored else list(pts)
        for _ in range(6):
            base = [_rot60(p) for p in base]
            # translate so the lexicographic minimum sits at the origin
            m = min(base)
            shifted = tuple(sorted((p[0] - m[0], p[1] - m[1]) for p in base))
            if best is None or shifted < best:
                best = shifted
    return best


def star_of_david_points() -> List[Point]:
    """The 13-vertex hexagram: two opposite side-3 lattice triangles."""
    up = [(x, y) for x in range(4) for y in range(4) if x + y <= 3]
    down = [(x, y) for x in range(-1, 3) for y in range(-1, 3)
            if x <= 2 and y <= 2 and x + y >= 1]
    return sorted(set(up) | set(down))


_SOD_CANON = None


def is_star_of_david(g: TriGridGraph) -> bool:
    global _SOD_CANON
    if not g.is_lattice:
        return False
    if g.num_vertices != 13:
        return False
    if _SOD_CANON is None:
        _SOD_CANON = canonical_point_form(star_of_david_points())
    return canonical_point_form(g.points) == _SOD_CANON


# ---------------------------------------------------------------------------
# named instance generators

def _pentagon_points() -> List[Point]:
    return [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]


def _hexagon_points() -> List[Point]:
    return [(0, 0)] + [d for d in DIRS]


def hexagon_points(radius: int = 1) -> List[Point]:
    """Filled lattice hexagon of the given radius around the origin."""
    pts = []
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            if abs(x + y) <= radius:
                pts.append((x, y))
    return sorted(pts)


def diamond_cycle_graph(n: int) -> TriGridGraph:
    """Odd cycle of length 2n-1 with a diamond attached across one cycle edge.

    Abstract instance: vertices 1..2n-1 form the cycle, vertices 2n and 2n+1
    form the diamond hung on the cycle edge (2n-2, 2n-1), with the diamond
    diagonal (2n-1, 2n+1).
    """
    if n < 3:
        raise GridError("diamond_cycle requires n >= 3")
    m = 2 * n - 1
    edges = [(i, i + 1) for i in range(1, m)] + [(m, 1)]
    edges += [(2 * n - 2, 2 * n + 1), (2 * n + 1, 2 * n), (2 * n, 2 * n - 1),
              (2 * n + 1, 2 * n - 1)]
    return build_abstract(2 * n + 1, edges, name=f"diamond_cycle({n})")


def chord_cycle_graph(n: int, m: int) -> TriGridGraph:
    """Odd cycle of length 2n+1 with one chord cutting off an odd (2m+1)-cycle.

    Abstract instance; the chord runs between vertices 1 and 2m+1.
    """
    if not (2 <= m <= n - 1):
        raise GridError("chord_cycle requires 2 <= m <= n-1")
    k = 2 * n + 1
    edges = [(i, i + 1) for i in range(1, k)] + [(k, 1)]
    edges.append((1, 2 * m + 1))
    return build_abstract(k, edges, name=f"chord_cycle({n},{m})")


def hex_with_hole_graph(radius: int = 2,
                        removed: Sequence[Point] = ((1, -1), (-1, 1))) -> TriGridGraph:
    pts = [p for p in hexagon_points(radius) if tuple(p) not in {tuple(r) for r in removed}]
    return build_graph(pts, name=f"hex_with_hole(r={radius})")


def generate(kind: str, **params) -> TriGridGraph:
    """Named instances: triangle, pentagon, hexagon, diamond_cycle(n),
    chord_cycle(n, m), star_of_david, hex_with_hole(radius, removed)."""
    def need(key: str) -> int:
        if key not in params:
            raise GridError(f"{kind} needs parameter {key}")
        return params[key]

    if kind == "triangle":
        return build_graph([(0, 0), (1, 0), (0, 1)], name="triangle")
    if kind == "pentagon":
        return build_graph(_pentagon_points(), name="pentagon")
    if kind == "hexagon":
        return build_graph(_hexagon_points(), name="hexagon")
    if kind == "star_of_david":
        return build_graph(star_of_david_points(), name="star_of_david")
    if kind == "diamond_cycle":
        return diamond_cycle_graph(need("n"))
    if kind == "chord_cycle":
        return chord_cycle_graph(need("n"), need("m"))
    if kind == "hex_with_hole":
        return hex_with_hole_graph(params.get("radius", 2),
                                   params.get("removed", ((1, -1), (-1, 1))))
    raise GridError(f"unknown instance kind: {kind}")
