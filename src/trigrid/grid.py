"""Triangular grid graphs: induced subgraphs of the 2-D triangular lattice.

Vertices live at axial coordinates (x, y); the cartesian projection is
(x + y/2, y*sqrt(3)/2).  Vertex ids are assigned 1..|V| in lexicographic
(x, y) order so that all derived artifacts are deterministic.

No faces are stored. Triangles are enumerated on demand (`triangles`), and
a host's holes are counted by Euler's formula (`hole_count`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

if TYPE_CHECKING:
    from .oracle import SlideSpace

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
    lattice-only predicates and by `hole_count`. The graph holds its
    vertices and edges only: no faces, boundary walks or holes.
    """

    n: int                                   # |V| = 2n + 1
    points: Tuple[Point, ...]                # id i -> points[i-1]; () if abstract
    edges: FrozenSet[Edge]
    adj: Dict[int, Tuple[int, ...]] = field(compare=False)
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

    @cached_property
    def slide_space(self) -> SlideSpace:
        """The oracle's edge ids, slide tables, labeling ranks and
        per-configuration move memos for this host, built on first use and
        kept as long as this graph object. The memos hold one entry per
        configuration a search has reached, so they are bounded by the
        host's configuration count, its near-perfect matchings; the ranks
        take n! entries and the rank steps at most n^2 lists of n! each.
        It is no dataclass field, so equality and hashing ignore it, and an
        equal graph object has its own."""
        from .oracle import SlideSpace  # oracle imports grid
        return SlideSpace(self)


def _lattice_edges(points: Sequence[Point]) -> Set[Tuple[Point, Point]]:
    pset = set(points)
    out = set()
    for p in points:
        for dx, dy in DIRS:
            q = (p[0] + dx, p[1] + dy)
            if q in pset and p < q:
                out.add((p, q))
    return out


def _adjacency(num_vertices: int, edges: Iterable[Edge]) -> Dict[int, Tuple[int, ...]]:
    """Sorted neighbours of each vertex 1..num_vertices."""
    adj_sets: Dict[int, Set[int]] = {i: set() for i in range(1, num_vertices + 1)}
    for u, v in edges:
        adj_sets[u].add(v)
        adj_sets[v].add(u)
    return {v: tuple(sorted(s)) for v, s in adj_sets.items()}


def _connected(vertices: Iterable[int], adj: Dict[int, Tuple[int, ...]]) -> bool:
    vs = list(vertices)
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def _host(num_vertices: int, edges: FrozenSet[Edge], points: Tuple[Point, ...],
          name: str) -> TriGridGraph:
    """The host on vertices 1..num_vertices, lattice iff it has `points`;
    DisconnectedError if it is disconnected."""
    adj = _adjacency(num_vertices, edges)
    if not _connected(adj, adj):
        raise DisconnectedError(f"{'induced' if points else 'abstract'} graph is disconnected")
    return TriGridGraph(n=(num_vertices - 1) // 2, points=points, edges=edges, adj=adj,
                        is_lattice=bool(points), name=name)


def build_graph(points: Iterable[Point], name: str = "") -> TriGridGraph:
    """Build the induced triangular grid graph on the given lattice points.

    Vertex ids follow lexicographic point order. The edge-order rule: the
    order a builder inserts edges in fixes the iteration order of `edges`,
    the matching search's input, so another order changes matchings, ear
    plans and the benchmark's placements (tests pin it). It depends on the
    point set alone here and on the edge set alone in `build_abstract`, so
    a host read back from its file iterates its edges as the one written."""
    pts = list(points)
    if not pts:
        raise GridError("empty point set")
    if len(pts) != len(set(pts)):
        raise DuplicatePointError("duplicate lattice points")
    if len(pts) % 2 == 0:
        raise EvenOrderError(f"|V| = {len(pts)} must be odd")
    pts.sort()
    id_of = {p: i + 1 for i, p in enumerate(pts)}
    edges = frozenset(edge_key(id_of[a], id_of[b]) for a, b in _lattice_edges(pts))
    return _host(len(pts), edges, tuple(pts), name)


def build_abstract(num_vertices: int, edge_list: Iterable[Edge], name: str = "") -> TriGridGraph:
    """Build an abstract (non-lattice) graph usable by matching/placement/oracle.

    Edges are inserted sorted, as `formats.serialize_graph` writes them
    (the edge-order rule of `build_graph`)."""
    if num_vertices % 2 == 0:
        raise EvenOrderError(f"|V| = {num_vertices} must be odd")
    if num_vertices < 1:
        raise GridError(f"|V| = {num_vertices} must be positive")
    edges = frozenset(sorted(edge_key(u, v) for u, v in edge_list))
    for u, v in edges:
        if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
            raise GridError(f"edge ({u},{v}) out of range")
        if u == v:
            raise GridError(f"edge ({u},{v}) is a loop")
    return _host(num_vertices, edges, (), name)


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


def _one_cyclic_run(mask: int) -> bool:
    """True iff the set bits of a 6-bit mask form at most one cyclic run."""
    return sum(1 for k in range(6) if mask >> k & 1 and not mask >> (k - 1) % 6 & 1) <= 1


# indexed by a vertex's neighbour mask: bit k is set when the lattice point
# in direction DIRS[k] is a vertex
_CONNECTED_NEIGHBOURHOOD = tuple(_one_cyclic_run(mask) for mask in range(64))


def is_locally_connected(g: TriGridGraph) -> bool:
    """True iff every neighborhood induces a connected subgraph.

    Two lattice neighbours of a vertex are adjacent exactly when their
    directions are consecutive in DIRS, cyclically, so a neighbourhood is
    connected exactly when its directions form one cyclic run. Raises
    NotLatticeError on an abstract host.
    """
    if not g.is_lattice:
        raise NotLatticeError("abstract graph has no lattice neighbourhoods")
    pset = set(g.points)
    for x, y in g.points:
        mask = 0
        for k, (dx, dy) in enumerate(DIRS):
            if (x + dx, y + dy) in pset:
                mask |= 1 << k
        if not _CONNECTED_NEIGHBOURHOOD[mask]:
            return False
    return True


def degree6_vertices(g: TriGridGraph) -> Set[int]:
    return {v for v in g.vertex_ids if g.degree(v) == 6}


def triangles(g: TriGridGraph) -> List[Tuple[int, int, int]]:
    """Every triangle (u, v, w), u < v < w, in lexicographic order."""
    out = []
    for u, v in sorted(g.edges):
        for w in sorted(set(g.adj[u]) & set(g.adj[v])):
            if w > v:
                out.append((u, v, w))
    return out


def enumerate_diamonds(g: TriGridGraph) -> List[Tuple[int, int, int, int]]:
    """Diamonds as (s1, s2, t1, t2): shared edge (s1, s2), outer vertices
    t1 < t2, inducing exactly 5 edges, that is, t1 and t2 not adjacent.

    Only triangles on a common edge can form one, so each triangle is
    paired with the later triangles on its three edges. The list is in
    the order of a scan over all pairs of `triangles`, by first triangle
    and then second, which `ears._diamond_structure` relies on: it takes
    the first diamond that works.
    """
    tris = triangles(g)
    on_edge: Dict[Edge, List[int]] = {}
    for i, tri in enumerate(tris):
        for e in itertools.combinations(tri, 2):
            on_edge.setdefault(e, []).append(i)
    out = []
    for i, a in enumerate(tris):
        later = sorted((j, e) for e in itertools.combinations(a, 2)
                       for j in on_edge[e] if j > i)
        for j, (s1, s2) in later:
            # triples sharing (s1, s2) sort by their third vertex, so t1 < t2
            (t1,) = set(a) - {s1, s2}
            (t2,) = set(tris[j]) - {s1, s2}
            if not g.has_edge(t1, t2):
                out.append((s1, s2, t1, t2))
    return out


def cycle_edges(cycle: Sequence[int]) -> Set[Edge]:
    return {edge_key(a, b) for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]])}


def hole_count(g: TriGridGraph) -> int:
    """The number of holes of a lattice host, by Euler's formula.

    A connected plane graph has |E| - |V| + 1 bounded faces. On the
    triangular lattice every 3-cycle bounds a unit-triangle face, so the
    bounded faces are the triangles plus the holes.
    """
    if not g.is_lattice:
        raise NotLatticeError("abstract graph has no holes to count")
    return len(g.edges) - g.num_vertices + 1 - len(triangles(g))


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


_SOD_CANON = canonical_point_form(star_of_david_points())


def is_star_of_david(g: TriGridGraph) -> bool:
    """True iff g is the 13-vertex, 24-edge hexagram up to lattice
    symmetry; the vertex and edge counts settle most hosts before the 12
    transforms of `canonical_point_form` run."""
    if not g.is_lattice or g.num_vertices != 13 or len(g.edges) != 24:
        return False
    return canonical_point_form(g.points) == _SOD_CANON


# ---------------------------------------------------------------------------
# named instance generators

def _pentagon_points() -> List[Point]:
    return [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]


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


def hex_with_hole_graph(radius: int = 2) -> TriGridGraph:
    """The filled hexagon of the given radius without (1, -1) and (-1, 1).
    Those two points are holes only from radius 2 on: radius 1 would leave
    a five-vertex host without a hole, so radius < 2 is refused."""
    if radius < 2:
        raise GridError("hex_with_hole requires radius >= 2")
    pts = [p for p in hexagon_points(radius) if p not in ((1, -1), (-1, 1))]
    return build_graph(pts, name=f"hex_with_hole(r={radius})")


def generate(kind: str, **params) -> TriGridGraph:
    """Named instances: triangle, pentagon, hexagon, diamond_cycle(n),
    chord_cycle(n, m), star_of_david, hex_with_hole(radius). Raises
    GridError for an unknown kind, a missing parameter, or a parameter
    the kind does not take."""
    takes = {"triangle": (), "pentagon": (), "hexagon": (), "star_of_david": (),
             "diamond_cycle": ("n",), "chord_cycle": ("n", "m"),
             "hex_with_hole": ("radius",)}
    if kind not in takes:
        raise GridError(f"unknown instance kind: {kind}")
    extra = sorted(set(params) - set(takes[kind]))
    if extra:
        raise GridError(f"{kind} does not take parameter {extra[0]}")

    def need(key: str) -> int:
        if key not in params:
            raise GridError(f"{kind} needs parameter {key}")
        return params[key]

    if kind == "triangle":
        return build_graph([(0, 0), (1, 0), (0, 1)], name="triangle")
    if kind == "pentagon":
        return build_graph(_pentagon_points(), name="pentagon")
    if kind == "hexagon":
        return build_graph(hexagon_points(1), name="hexagon")
    if kind == "star_of_david":
        return build_graph(star_of_david_points(), name="star_of_david")
    if kind == "diamond_cycle":
        return diamond_cycle_graph(need("n"))
    if kind == "chord_cycle":
        return chord_cycle_graph(need("n"), need("m"))
    return hex_with_hole_graph(params.get("radius", 2))
