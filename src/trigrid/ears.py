"""Odd proper ear decompositions, admissible-core search, and placement
alignment with a decomposition."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .grid import Edge, TriGridGraph, edge_key
from .matching import (Matching, MatchingError, is_alternating_cycle,
                       near_perfect_matching, odd_alternating_cycle_through,
                       perfect_matching, symmetric_difference_path)
from .placement import Placement, SlideSequence, expose


class EarError(Exception):
    pass


class NoAdmissibleError(EarError):
    pass


def cycle_edges(cycle: Sequence[int]) -> Set[Edge]:
    return {edge_key(a, b) for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]])}


def path_edges(path: Sequence[int]) -> Set[Edge]:
    return {edge_key(a, b) for a, b in zip(path, path[1:])}


@dataclass(frozen=True)
class EarDecomposition:
    """Base odd cycle plus ordered ears; G_{i+1} = G_i + P_i.

    Level 1 is the base; level 1 + i adds ears[i-1]. An ear is stored as its
    full vertex path (endpoints first and last, interior in between).
    """

    base: Tuple[int, ...]
    ears: Tuple[Tuple[int, ...], ...]
    kind: str = "none"          # none | pentagon | diamond_cycle

    @property
    def levels(self) -> int:
        return 1 + len(self.ears)

    def ear(self, i: int) -> Tuple[int, ...]:
        """The ear added to reach level i (2 <= i <= levels)."""
        return self.ears[i - 2]

    def region(self, i: int) -> Tuple[Set[int], Set[Edge]]:
        """Vertex and edge set of G_i (level i)."""
        vs = set(self.base)
        es = set(cycle_edges(self.base))
        for ear in self.ears[: i - 1]:
            vs |= set(ear)
            es |= path_edges(ear)
        return vs, es


def validate_decomposition(g: TriGridGraph, d: EarDecomposition) -> None:
    if len(d.base) % 2 == 0 or len(d.base) < 3:
        raise EarError("base is not an odd cycle")
    for e in cycle_edges(d.base):
        if e not in g.edges:
            raise EarError(f"base edge {e} missing from graph")
    vs = set(d.base)
    es = set(cycle_edges(d.base))
    for ear in d.ears:
        if len(ear) < 2 or (len(ear) - 1) % 2 == 0:
            raise EarError(f"ear {ear} has even length")
        if ear[0] == ear[-1]:
            raise EarError(f"ear {ear} is not proper")
        if ear[0] not in vs or ear[-1] not in vs:
            raise EarError(f"ear {ear} endpoints not in earlier subgraph")
        interior = set(ear[1:-1])
        if interior & vs:
            raise EarError(f"ear {ear} interior meets earlier subgraph")
        for e in path_edges(ear):
            if e not in g.edges:
                raise EarError(f"ear edge {e} missing from graph")
            if e in es:
                raise EarError(f"ear edge {e} repeated")
        vs |= interior
        es |= path_edges(ear)
    if vs != set(g.vertex_ids) or es != set(g.edges):
        raise EarError("decomposition does not cover the graph exactly")


def is_aligned_with(p: Placement, d: EarDecomposition) -> bool:
    """Conditions: (a) base is an alternating odd cycle holding the exposed
    vertex; (b) each ear alternates with endpoints uncovered by its own
    matching edges."""
    m = p.matching
    if p.exposed not in d.base or not is_alternating_cycle(m, d.base):
        return False
    for ear in d.ears:
        flags = [edge_key(a, b) in m.edges for a, b in zip(ear, ear[1:])]
        # odd ear, endpoints free: pattern must be 0,1,0,1,...,0
        want = [t % 2 == 1 for t in range(len(flags))]
        if flags != want:
            return False
    return True


# ---------------------------------------------------------------------------
# greedy ear growth from a central core

def _alternating_ear_from(g: TriGridGraph, m: Matching, inside: Set[int],
                          x: int, y: int) -> Optional[List[int]]:
    """An odd alternating ear x, y, ..., w with w in `inside`, w != x, or
    None.

    The only candidate is the symmetric-difference path of m and a matching
    exposing y, cut at its first vertex back in `inside`; it is returned if
    that ear has an odd number of edges and does not end at x.
    """
    n2 = near_perfect_matching(g, y)
    if n2 is not None:
        path = symmetric_difference_path(m, n2, y)
        trunc = []
        for w in path:
            trunc.append(w)
            if w != y and w in inside:
                break
        else:
            trunc = []
        if trunc and trunc[-1] in inside and trunc[-1] != x:
            ok = all(v not in inside for v in trunc[:-1])
            if ok and len(trunc) % 2 == 1:
                return [x] + trunc
    return None


def grow_ears(g: TriGridGraph, m: Matching, base_vs: Set[int],
              base_es: Set[Edge]) -> List[Tuple[int, ...]]:
    """Absorb the rest of the graph with odd proper ears, then chords.

    Invariant kept throughout: no matching edge crosses the current
    subgraph boundary, so every new boundary vertex is matched outward and
    the alternating ear construction applies.
    """
    inside = set(base_vs)
    covered = set(base_es)
    ears: List[Tuple[int, ...]] = []
    while inside != set(g.vertex_ids):
        boundary = sorted((x, y) for x in inside for y in g.adj[x]
                          if y not in inside)
        ear = None
        for x, y in boundary:
            ear = _alternating_ear_from(g, m, inside, x, y)
            if ear is not None:
                break
        if ear is None:
            raise EarError("no alternating ear extends the subgraph")
        ears.append(tuple(ear))
        inside |= set(ear)
        covered |= path_edges(ear)
    for e in sorted(g.edges - covered):
        ears.append(e)
        covered.add(e)
    return ears


def ear_decomposition(g: TriGridGraph, m: Matching) -> EarDecomposition:
    """An odd proper ear decomposition aligned with m.

    The base is an odd alternating cycle through the exposed vertex; further
    ears come from alternating paths, so the placement carrying m stays
    aligned in the ear sense.
    """
    (exposed,) = set(g.vertex_ids) - m.covered
    first = min(g.adj[exposed])
    base = odd_alternating_cycle_through(g, m, exposed, edge_key(exposed, first))
    if base is None:
        raise EarError(f"no odd alternating cycle through ({exposed}, {first})")
    ears = grow_ears(g, m, set(base), cycle_edges(base))
    d = EarDecomposition(tuple(base), tuple(ears))
    validate_decomposition(g, d)
    return d


def extend_from_central(g: TriGridGraph, m: Matching,
                        partial: EarDecomposition) -> EarDecomposition:
    """Complete a decomposition whose prefix is `partial` (over a central
    subgraph) using the greedy alternating-ear growth."""
    vs, es = partial.region(partial.levels)
    ears = grow_ears(g, m, vs, es)
    d = EarDecomposition(partial.base, partial.ears + tuple(ears), partial.kind)
    validate_decomposition(g, d)
    return d


# ---------------------------------------------------------------------------
# admissible cores

def _triangles(g: TriGridGraph) -> List[Tuple[int, int, int]]:
    out = []
    for u, v in sorted(g.edges):
        for w in sorted(set(g.adj[u]) & set(g.adj[v])):
            if w > v:
                out.append((u, v, w))
    return out


def enumerate_pentagons(g: TriGridGraph) -> List[Tuple[int, Tuple[int, int, int, int]]]:
    """Fans of three triangles: apex t with a 4-path c1-c2-c3-c4 of
    neighbors, inducing exactly 7 edges on the 5 vertices."""
    out = []
    for t in g.vertex_ids:
        nbrs = sorted(g.adj[t])
        for quad in itertools.permutations(nbrs, 4):
            c1, c2, c3, c4 = quad
            if c1 > c4:
                continue     # each fan once
            if not (g.has_edge(c1, c2) and g.has_edge(c2, c3) and g.has_edge(c3, c4)):
                continue
            vs = {t, c1, c2, c3, c4}
            if len(vs) != 5:
                continue
            count = sum(1 for a, b in itertools.combinations(sorted(vs), 2)
                        if g.has_edge(a, b))
            if count == 7:
                out.append((t, quad))
    return out


def enumerate_diamonds(g: TriGridGraph) -> List[Tuple[int, int, int, int]]:
    """Diamonds as (s1, s2, t1, t2): shared edge (s1, s2), outer vertices
    t1 < t2, inducing exactly 5 edges, that is, t1 and t2 not adjacent.

    Only triangles on a common edge can form one, so each triangle is
    paired with the later triangles on its three edges. The list is in
    the order of a scan over all pairs of `_triangles`, by first triangle
    and then second, which `_diamond_structure` relies on: it takes the
    first diamond that works.
    """
    tris = _triangles(g)
    on_edge: Dict[Edge, List[int]] = {}
    for i, tri in enumerate(tris):
        for e in itertools.combinations(tri, 2):
            on_edge.setdefault(e, []).append(i)
    out = []
    for i, a in enumerate(tris):
        later = sorted((j, e) for e in itertools.combinations(a, 2)
                       for j in on_edge[e] if j > i)
        for j, (s1, s2) in later:
            (t1,) = set(a) - {s1, s2}
            (t2,) = set(tris[j]) - {s1, s2}
            if t1 > t2:
                t1, t2 = t2, t1
            if not g.has_edge(t1, t2):
                out.append((s1, s2, t1, t2))
    return out


def _pentagon_structure(g: TriGridGraph) -> Optional[Tuple[EarDecomposition, Matching]]:
    for t, (c1, c2, c3, c4) in sorted(enumerate_pentagons(g)):
        rest = set(g.vertex_ids) - {t, c1, c2, c3, c4}
        if rest:
            pm = perfect_matching(g, within=rest)
            if pm is None:
                continue
            outer = pm.edges
        else:
            outer = frozenset()
        cycle_m = {edge_key(c1, c2), edge_key(c3, c4)}
        m = Matching(frozenset(cycle_m) | outer)
        base = (t, c1, c2, c3, c4)
        core = EarDecomposition(base, ((t, c2), (t, c3)), kind="pentagon")
        return core, m
    return None


def _diamond_labelings(d: Tuple[int, int, int, int]) -> List[Tuple[int, int, int, int, Edge]]:
    """For diamond (s1,s2,t1,t2) the outer 4-cycle is t1-s1-t2-s2-t1; each
    outer edge (u,v) yields core path u-x-y-v with (x,y) opposite and the
    shared edge as the diagonal chord."""
    s1, s2, t1, t2 = d
    ring = [t1, s1, t2, s2]
    out = []
    for i in range(4):
        u, v = ring[i], ring[(i + 1) % 4]
        x, y = ring[(i + 3) % 4], ring[(i + 2) % 4]
        out.append((u, v, x, y, edge_key(s1, s2)))
    return out


def _diamond_structure(g: TriGridGraph) -> Optional[Tuple[EarDecomposition, Matching]]:
    for d in enumerate_diamonds(g):
        for u, v, x, y, diag in _diamond_labelings(d):
            # core: cycle C through edge (u,v) avoiding x,y; piece on (x,y)
            for o in g.vertex_ids:
                if o in (x, y):
                    continue
                m0 = near_perfect_matching(g, o, within=set(g.vertex_ids) - {x, y})
                if m0 is None:
                    continue
                m = Matching(m0.edges | {edge_key(x, y)})
                cyc = odd_alternating_cycle_through(g, m, o, edge_key(u, v), (x, y))
                if cyc is None:
                    continue
                core = EarDecomposition(cyc, ((u, x, y, v), diag), kind="diamond_cycle")
                return core, m
    return None


def find_admissible(g: TriGridGraph) -> Tuple[EarDecomposition, Matching]:
    """An admissible decomposition plus a witnessing matching.

    Searches central pentagon cores first, then diamond-plus-odd-cycle
    cores, and completes either with the greedy ear growth.
    """
    found = _pentagon_structure(g)
    if found is None:
        found = _diamond_structure(g)
    if found is None:
        raise NoAdmissibleError("no admissible core found")
    core, m = found
    return extend_from_central(g, m, core), m


# ---------------------------------------------------------------------------
# alignment

class LevelMatchings:
    """One plan's table of the levels of a decomposition: the region G_i of
    every level, built once, and for each (level, vertex) asked for the
    nearly perfect matching of G_i that exposes the vertex, computed on
    first use. The ear planner makes one per plan and drops it with the
    plan; the cycle planner aligns on its cycle's forced dominoes instead.

    Each matching is `near_perfect_matching` on `d.region(i)`, whose sets
    are built in the same order on every call; the blossom algorithm's
    answer depends on that order, so the table returns what a fresh call
    would.
    """

    def __init__(self, g: TriGridGraph, d: EarDecomposition):
        self.g, self.d = g, d
        self.regions = {i: d.region(i) for i in range(1, d.levels + 1)}
        self._exposing: Dict[Tuple[int, int], Matching] = {}

    def exposing(self, i: int, v: int) -> Matching:
        """The nearly perfect matching of G_i that exposes v."""
        m = self._exposing.get((i, v))
        if m is None:
            vs, es = self.regions[i]
            m = near_perfect_matching(self.g, v, within=vs, edges=es)
            if m is None:
                raise MatchingError(f"no matching of level {i} exposes vertex {v}")
            self._exposing[(i, v)] = m
        return m

    def expose(self, p: Placement, i: int, v: int) -> SlideSequence:
        """Expose v by slides inside G_i; no matching is looked up when v
        is exposed already."""
        if p.exposed == v:
            return SlideSequence(p, ())
        return expose(p, v, self.exposing(i, v))


def align_with_ears(p: Placement, levels: LevelMatchings) -> SlideSequence:
    """Expose an endpoint of each ear, last to first, inside the stage
    subgraph; interior degree-2 forcing then aligns every ear and finally
    the base cycle."""
    d = levels.d
    seq = SlideSequence(p, ())
    for i in range(d.levels, 1, -1):
        seq = seq.then(levels.expose(seq.end, i, d.ear(i)[0]))
    assert is_aligned_with(seq.end, d), "alignment postcondition failed"
    return seq
