"""Matching primitives: near-perfect matchings, factor-criticality, and
`alternating_path_to`, the one walk over the symmetric difference of two
matchings (expose, ear cycles, ear growth, the diamond core's cycle).

Every maximum matching here comes from one exact solver,
`blossom.max_cardinality_matching`: Edmonds' cardinality search with
Gabow's path labels, which takes its candidates in the order networkx's
`max_weight_matching` takes them. `perfect_matching` builds each subgraph
for it in a fixed input order: vertices in the iteration order of the kept
set, neighbours in the order their edges appear in the edge pool. Which of
several maximum matchings comes back depends on that order, and with it the
ear planner's plans and the benchmark's placements; as the search runs in
networkx's order, for the same input order it returns networkx's matching.

Two certificates back each answer. A matching that leaves at most one
vertex exposed is maximum by its size alone. Every other one is checked
against a Tutte-Berge barrier read off the search's last, failed stage: its
inner vertices A, with G - A having |A| + (exposed vertices) odd
components, prove that no larger matching exists. The check raises, so it
runs under ``python -O`` too. That covers each None from
`near_perfect_matching` on a subgraph with an even number of vertices left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Protocol, Set

from .blossom import max_cardinality_matching, search
from .grid import Edge, TriGridGraph, edge_key


class MatchingError(Exception):
    pass


@dataclass(frozen=True)
class Matching:
    """A set of disjoint edges. The vertex -> partner map built while
    checking disjointness is kept as ``_mate``, outside the dataclass
    fields, so equality and hashing see only the edges."""

    edges: FrozenSet[Edge]

    def __post_init__(self):
        mate: Dict[int, int] = {}
        for u, v in self.edges:
            if u in mate or v in mate:
                raise MatchingError("edges share an endpoint")
            mate[u] = v
            mate[v] = u
        object.__setattr__(self, "_mate", mate)

    @property
    def covered(self) -> Set[int]:
        return set(self._mate)

    def covers(self, v: int) -> bool:
        return v in self._mate

    def partner(self, v: int) -> Optional[int]:
        """The vertex matched to v, or None if v is exposed."""
        return self._mate.get(v)


class Partnered(Protocol):
    """A matching as its partner map: a `Matching`, or a `Placement`,
    whose cover map gives each vertex's partner in M_p."""

    def partner(self, v: int) -> Optional[int]: ...


def perfect_matching(g: TriGridGraph, skip: Iterable[int] = (),
                     within: Optional[Iterable[int]] = None,
                     edges: Optional[Iterable[Edge]] = None) -> Optional[Matching]:
    """A perfect matching of the subgraph on `within` (or V) minus `skip`,
    over `edges` (or E), or None if it has none.

    The blossom gets the subgraph's vertices in the iteration order of the
    kept set and each vertex's neighbours in the order their edges appear in
    the edge pool; that order decides which perfect matching comes back
    (see the module docstring).
    """
    keep = set(g.vertex_ids if within is None else within)
    keep -= set(skip)
    pool = g.edges if edges is None else {edge_key(*e) for e in edges}
    adj: Dict[int, List[int]] = {v: [] for v in keep}
    for u, v in pool:
        if u in keep and v in keep:
            adj[u].append(v)
            adj[v].append(u)
    mate = max_cardinality_matching(adj)
    if len(mate) != len(adj):
        return None
    return Matching(frozenset((v, w) for v, w in mate.items() if v < w))


def near_perfect_matching(g: TriGridGraph, expose: int,
                          within: Optional[Iterable[int]] = None,
                          edges: Optional[Iterable[Edge]] = None) -> Optional[Matching]:
    """A matching covering all vertices (of `within`, or V) except `expose`.

    `edges`, when given, limits the usable edge set (for edge subgraphs such
    as the stages of an ear decomposition). Returns None if no such matching
    exists.
    """
    if expose not in g.vertex_ids:
        raise MatchingError(f"vertex {expose} out of range")
    scope = set(g.vertex_ids if within is None else within)
    if expose not in scope:
        raise MatchingError(f"vertex {expose} outside the subgraph")
    return perfect_matching(g, skip=(expose,), within=scope, edges=edges)


def is_factor_critical(g: TriGridGraph) -> bool:
    """True iff g - v has a perfect matching for every vertex v, decided by
    one maximum matching of g and one more stage of the search from the
    one vertex it leaves single. That stage finds no augmenting path, and
    its outer vertices are those that some maximum matching leaves single
    (Gallai-Edmonds), so g is factor-critical iff every vertex is outer.
    A neighbour of an outer vertex is outer or inner, and hosts are
    connected, so that holds iff the stage finds no inner vertex."""
    adj = {v: list(g.adj[v]) for v in g.vertex_ids}
    mate = max_cardinality_matching(adj)
    single = [v for v in adj if v not in mate]
    return len(single) == 1 and not search(adj, mate, single)


def alternating_path_to(m: Partnered, target: Partnered, frm: int, to: int) -> List[int]:
    """Even alternating path from the exposed vertex `frm` to `to`.

    `target` is a nearly perfect matching exposing `to`, of the host or of
    a subgraph. The path is the component of M Δ target at `frm`, walked on
    the two partner maps from target's edge at `frm`: its edges alternate
    target/m edges, so every non-matching edge on it is a target edge and
    lies in target's subgraph. It is just [frm] when `frm` is `to`.
    `m` may be a placement, walked on its cover map, so no `Matching` of
    its pieces is built. Callers that need many paths in one subgraph look
    the target matching up once and pass it in.
    """
    if m.partner(frm) is not None:
        raise MatchingError(f"vertex {frm} is not exposed by the matching")
    # each vertex the walk reaches holds the edge it came by in one map and
    # leaves by the other map's edge, which differs, so it lies in M Δ target
    step, other = target.partner, m.partner
    path = [frm]
    nxt = step(frm)
    while nxt is not None:
        path.append(nxt)
        step, other = other, step
        nxt = step(nxt)
    if path[-1] != to:
        # the walk stops where target covers nothing: a vertex outside its
        # subgraph, which m's pieces reach when they leave it
        raise MatchingError(f"the alternating path from {frm} ends at {path[-1]}, not {to}")
    return path


def enumerate_near_perfect_matchings(g: TriGridGraph) -> List[Matching]:
    """All nearly perfect matchings by exhaustive search (test oracle scale)."""
    n = g.n
    out: List[Matching] = []

    def extend(edges: List[Edge], used: Set[int], pool: List[Edge]):
        if len(edges) == n:
            out.append(Matching(frozenset(edges)))
            return
        if len(pool) < n - len(edges):
            return
        for i, (u, v) in enumerate(pool):
            if u in used or v in used:
                continue
            extend(edges + [(u, v)], used | {u, v}, pool[i + 1:])

    extend([], set(), sorted(g.edges))
    return out
