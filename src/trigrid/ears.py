"""Odd proper ear decompositions, admissible-core search, and placement
alignment with a decomposition.

Past the admissible core, odd ears absorb the factor-critical host, as in
Lovász's ear theorem: each is an alternating path (`alternating_path_to`)
from a vertex just outside, cut where it first comes back in."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, List, Optional, Sequence, Set, Tuple

from .grid import Edge, TriGridGraph, cycle_edges, edge_key, enumerate_diamonds
from .matching import (Matching, MatchingError, alternating_path_to, near_perfect_matching,
                       perfect_matching)
from .placement import Placement, SlideSequence, expose
from .plans import PlanError


class EarError(PlanError):
    pass


class NoAdmissibleError(EarError):
    pass


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


def ear_settled(pieces: Container[Edge], ear: Sequence[int]) -> bool:
    """True iff the pieces on the ear's edges are exactly its interior
    dominoes (ear[1], ear[2]), (ear[3], ear[4]), ...: its end edges hold no
    piece, and a chord holds none. `pieces` is a set of pieces or a
    `Placement`, which answers from its cover map."""
    return all((edge_key(a, b) in pieces) == (t % 2 == 1)
               for t, (a, b) in enumerate(zip(ear, ear[1:])))


def is_aligned_with(p: Placement, d: EarDecomposition) -> bool:
    """Conditions: (a) the placement is aligned with the base cycle
    (`Placement.is_aligned`); (b) every ear is settled (`ear_settled`)."""
    return p.is_aligned(d.base) and all(ear_settled(p, ear) for ear in d.ears)


# ---------------------------------------------------------------------------
# greedy ear growth from a central core

def _alternating_ear_from(g: TriGridGraph, m: Matching, gap: int, inside: Set[int],
                          x: int, y: int) -> Optional[List[int]]:
    """An odd alternating ear x, y, ..., w with w in `inside`, w != x, or
    None.

    The only candidate is the alternating path from y, which a matching n2
    of the host exposes, to m's exposed vertex `gap`, cut at its first
    vertex in `inside` (`gap` is inside, so there is one). It is returned
    if that ear has an odd number of edges and does not end at x.
    """
    n2 = near_perfect_matching(g, y)
    if n2 is None:
        return None
    path = alternating_path_to(n2, m, y, gap)
    cut = next(t for t, w in enumerate(path) if w in inside)
    if cut % 2 == 1 or path[cut] == x:
        return None
    return [x] + path[:cut + 1]


def grow_ears(g: TriGridGraph, m: Matching, base_vs: Set[int],
              base_es: Set[Edge]) -> List[Tuple[int, ...]]:
    """Absorb the rest of the graph with odd proper ears, then chords.

    m is a nearly perfect matching of the host that exposes a vertex of
    the base. Invariant kept throughout: no matching edge crosses the
    current subgraph boundary, so every new boundary vertex is matched
    outward and the alternating ear construction applies.
    """
    (gap,) = set(g.vertex_ids) - m.covered
    assert gap in base_vs, "m must expose a vertex of the base"
    inside = set(base_vs)
    covered = set(base_es)
    ears: List[Tuple[int, ...]] = []
    while inside != set(g.vertex_ids):
        boundary = sorted((x, y) for x in inside for y in g.adj[x]
                          if y not in inside)
        ear = None
        for x, y in boundary:
            ear = _alternating_ear_from(g, m, gap, inside, x, y)
            if ear is not None:
                break
        if ear is None:
            raise EarError("no alternating ear extends the subgraph")
        ears.append(tuple(ear))
        inside |= set(ear)
        covered |= path_edges(ear)
    return ears + sorted(g.edges - covered)


# ---------------------------------------------------------------------------
# admissible cores

def _fans(g: TriGridGraph, t: int) -> List[Tuple[int, int, int, int]]:
    """Pentagon fans at apex t, sorted: 4-paths c1-c2-c3-c4 of neighbours
    of t with c1 < c4 and no chord c1-c3, c2-c4 or c1-c4, so that the five
    vertices induce exactly 7 edges (three triangles on t)."""
    nbrs = set(g.adj[t])
    near = {c: nbrs.intersection(g.adj[c]) for c in nbrs}   # edges among them
    out = []
    for c1 in nbrs:
        for c2 in near[c1]:
            for c3 in near[c2] - near[c1] - {c1}:
                for c4 in near[c3] - near[c1] - near[c2]:
                    if c1 < c4:
                        out.append((c1, c2, c3, c4))
    return sorted(out)


def _pentagon_structure(g: TriGridGraph) -> Optional[Tuple[EarDecomposition, Matching]]:
    """The first pentagon fan, by apex and then by path, whose other
    vertices have a perfect matching, with that matching and the fan's
    two cycle dominoes; None if no fan has one."""
    for t in sorted(g.vertex_ids):
        for c1, c2, c3, c4 in _fans(g, t):
            pm = perfect_matching(g, within=set(g.vertex_ids) - {t, c1, c2, c3, c4})
            if pm is not None:
                m = Matching(pm.edges | {edge_key(c1, c2), edge_key(c3, c4)})
                base = (t, c1, c2, c3, c4)
                return EarDecomposition(base, ((t, c2), (t, c3)), kind="pentagon"), m
    return None


def _diamond_structure(g: TriGridGraph) -> Optional[Tuple[EarDecomposition, Matching]]:
    """For diamond (s1,s2,t1,t2) the outer 4-cycle is t1-s1-t2-s2-t1; each
    outer edge (u,v) yields core path u-x-y-v with (x,y) opposite and the
    shared edge as the diagonal chord. The first core, with its matching
    m: nearly perfect matchings m0 and n of G - {x, y} that expose u and v,
    m = m0 + (x, y), and the odd m-alternating cycle that the path from u
    to v over m Δ n (`alternating_path_to`) closes with (v, u); None if no
    diamond has one. Flipping along an odd alternating cycle through
    (u, v) that avoids x and y exposes any vertex on it, u and v among
    them, so m0 and n exist exactly when such a cycle does."""
    for s1, s2, t1, t2 in enumerate_diamonds(g):
        ring = [t1, s1, t2, s2]
        diag = edge_key(s1, s2)
        for i in range(4):
            u, v = ring[i], ring[(i + 1) % 4]
            x, y = ring[(i + 3) % 4], ring[(i + 2) % 4]
            rest = set(g.vertex_ids) - {x, y}
            m0 = near_perfect_matching(g, u, within=rest)
            n = m0 and near_perfect_matching(g, v, within=rest)
            if n is None:
                continue
            m = Matching(m0.edges | {edge_key(x, y)})
            cyc = tuple(alternating_path_to(m, n, u, v))
            return EarDecomposition(cyc, ((u, x, y, v), diag), kind="diamond_cycle"), m
    return None


def find_admissible(g: TriGridGraph) -> EarDecomposition:
    """An admissible decomposition of g.

    Searches central pentagon cores first, then diamond-plus-odd-cycle
    cores, and completes either with the greedy ear growth.
    """
    found = _pentagon_structure(g)
    if found is None:
        found = _diamond_structure(g)
    if found is None:
        raise NoAdmissibleError("no admissible core found")
    core, m = found
    vs, es = core.region(core.levels)
    d = EarDecomposition(core.base, core.ears + tuple(grow_ears(g, m, vs, es)), core.kind)
    validate_decomposition(g, d)
    return d


# ---------------------------------------------------------------------------
# alignment

class LevelMatchings:
    """One plan's table of the levels of a decomposition: the region G_i of
    each level asked for, built on first use, and for each (level, vertex)
    asked for the nearly perfect matching of G_i that exposes the vertex,
    computed on first use. The ear planner makes one per plan and drops it
    with the plan; the cycle planner aligns on its cycle's forced dominoes
    instead.

    Each region is `d.region(i)`, whose sets are built in the same order on
    every call, and each matching is `near_perfect_matching` on it; the
    blossom algorithm's answer depends on that order, so the table returns
    what a fresh call would.
    """

    def __init__(self, g: TriGridGraph, d: EarDecomposition):
        self.g, self.d = g, d
        self._regions: Dict[int, Tuple[Set[int], Set[Edge]]] = {}
        self._exposing: Dict[Tuple[int, int], Matching] = {}

    def region(self, i: int) -> Tuple[Set[int], Set[Edge]]:
        """The vertex and edge sets of G_i, as `d.region(i)` builds them."""
        r = self._regions.get(i)
        if r is None:
            r = self._regions[i] = self.d.region(i)
        return r

    def exposing(self, i: int, v: int) -> Matching:
        """The nearly perfect matching of G_i that exposes v."""
        m = self._exposing.get((i, v))
        if m is None:
            vs, es = self.region(i)
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
    """Align p with the decomposition, ear by ear from the last: expose the
    first vertex of ear i inside G_i, whose degree-2 interior then forces
    the ear's dominoes, and leave the gap in G_{i-1}. An ear above level 3
    that is settled already (`ear_settled`) is passed over: its interior
    is covered by its own dominoes, so the gap and the rest of G_i's
    pieces lie in G_{i-1} as an exposure would leave them. The core's two
    exposures, at levels 3 and 2, always run; the last one aligns the base
    cycle."""
    d = levels.d
    seq = SlideSequence(p, ())
    for i in range(d.levels, 1, -1):
        if i > 3 and ear_settled(seq.end, d.ear(i)):
            continue
        seq = seq.then(levels.expose(seq.end, i, d.ear(i)[0]))
    assert is_aligned_with(seq.end, d), "alignment postcondition failed"
    return seq
