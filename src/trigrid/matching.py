"""Matching primitives: near-perfect matchings, factor-criticality,
alternating paths/cycles, and centrality tests.

Every maximum matching here comes from one exact solver,
`blossom.max_cardinality_matching`: Edmonds' blossom method in Galil's
primal-dual form, ported from networkx's `max_weight_matching` for unit
weights. `perfect_matching` builds each subgraph for it in a fixed input
order: vertices in the iteration order of the kept set, neighbours in the
order their edges appear in the edge pool. Which of several maximum
matchings comes back depends on that order, and with it the ear planner's
plans and the benchmark's placements; for the same order the solver returns
what networkx returned.

Two certificates back each answer. A matching that leaves at most one
vertex exposed is maximum by its size alone. Every other one is checked
against the solver's final duals (networkx's dual-optimality check), which
prove that no larger matching exists. That covers each None from
`near_perfect_matching` on a subgraph with an even number of vertices left,
and each False from `is_central` that parity does not already settle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .blossom import max_cardinality_matching
from .grid import Edge, TriGridGraph, edge_key


class MatchingError(Exception):
    pass


@dataclass(frozen=True)
class Matching:
    edges: FrozenSet[Edge]

    def __post_init__(self):
        seen: Set[int] = set()
        for u, v in self.edges:
            if u in seen or v in seen:
                raise MatchingError("edges share an endpoint")
            seen.add(u)
            seen.add(v)

    @property
    def covered(self) -> Set[int]:
        return {x for e in self.edges for x in e}

    def partner(self, v: int) -> Optional[int]:
        for u, w in self.edges:
            if u == v:
                return w
            if w == v:
                return u
        return None

    def covers(self, v: int) -> bool:
        return self.partner(v) is not None


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
    return all(near_perfect_matching(g, v) is not None for v in g.vertex_ids)


def is_central(g: TriGridGraph, sub: Iterable[int]) -> bool:
    """True iff removing `sub` leaves a graph with a perfect matching."""
    removed = set(sub)
    rest = [v for v in g.vertex_ids if v not in removed]
    if len(rest) % 2 == 1:
        return False
    return perfect_matching(g, skip=removed) is not None


def symmetric_difference_path(m1: Matching, m2: Matching, start: int) -> List[int]:
    """The component of M1 Δ M2 containing `start`, traced as a vertex path.

    With m1 exposing `start` and m2 exposing some other vertex, the component
    is a path that starts with an m2-edge and alternates m2/m1 edges.
    """
    adj: Dict[int, List[Tuple[int, int]]] = {}
    diff = (m1.edges - m2.edges) | (m2.edges - m1.edges)
    for u, v in diff:
        adj.setdefault(u, []).append((v, 1 if edge_key(u, v) in m1.edges else 2))
        adj.setdefault(v, []).append((u, 1 if edge_key(u, v) in m1.edges else 2))
    if start not in adj:
        return [start]
    path = [start]
    prev = None
    cur = start
    while True:
        nxt = [w for w, _ in adj[cur] if w != prev]
        if not nxt:
            return path
        if len(nxt) > 1:
            raise MatchingError("symmetric-difference component is not a path")
        prev, cur = cur, nxt[0]
        path.append(cur)
        if cur == start:
            raise MatchingError("symmetric-difference component is a cycle")


def alternating_path_to(m: Matching, target: Matching, frm: int, to: int) -> List[int]:
    """Even alternating path from the exposed vertex `frm` to `to`.

    `target` is a nearly perfect matching exposing `to`, of the host or of
    a subgraph. The path is the component of M Δ target at `frm`: its
    edges alternate target/m edges, so every non-matching edge on it is a
    target edge and lies in target's subgraph. Callers that need many
    paths in one subgraph look the target matching up once and pass it in.
    """
    if m.covers(frm):
        raise MatchingError(f"vertex {frm} is not exposed by the matching")
    if frm == to:
        return [frm]
    path = symmetric_difference_path(m, target, frm)
    assert path[-1] == to and len(path) % 2 == 1
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


def odd_alternating_cycle_through(g: TriGridGraph, m: Matching, exposed: int, e: Edge,
                                  avoid: Iterable[int] = ()) -> Optional[Tuple[int, ...]]:
    """The first odd m-alternating cycle at the exposed vertex that contains
    e and misses `avoid`, or None.

    Depth-first search from `exposed` over sorted neighbours, leaving it by
    a non-matching edge and alternating matching/non-matching edges until
    it returns; the cycle is listed from `exposed` in search direction.
    """
    if m.covers(exposed):
        raise MatchingError(f"vertex {exposed} is covered by the matching")
    e = edge_key(*e)
    avoid = set(avoid)

    def dfs(path: List[int], need_m: bool) -> Optional[Tuple[int, ...]]:
        cur = path[-1]
        for w in sorted(g.adj[cur]):
            if w in avoid or (edge_key(cur, w) in m.edges) != need_m:
                continue
            if w == exposed:
                if any(edge_key(a, b) == e for a, b in zip(path, path[1:] + path[:1])):
                    return tuple(path)
                continue
            if w in path:
                continue
            found = dfs(path + [w], not need_m)
            if found is not None:
                return found
        return None

    for first in sorted(g.adj[exposed]):
        if first not in avoid:
            found = dfs([exposed, first], True)
            if found is not None:
                return found
    return None


def is_alternating_cycle(m: Matching, cycle: Sequence[int]) -> bool:
    """Check cycle edges alternate in m with the exposed vertex as sole defect."""
    k = len(cycle)
    if k % 2 == 0:
        return False
    flags = [edge_key(cycle[i], cycle[(i + 1) % k]) in m.edges for i in range(k)]
    defects = sum(1 for i in range(k) if flags[i] == flags[i - 1] and not flags[i])
    return flags.count(True) == k // 2 and defects == 1
