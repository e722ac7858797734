"""Matching primitives: near-perfect matchings, factor-criticality,
alternating paths/cycles, and centrality tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

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


def _nx_graph(g: TriGridGraph, skip: Iterable[int] = (),
              within: Optional[Iterable[int]] = None,
              edges: Optional[Iterable[Edge]] = None) -> nx.Graph:
    keep = set(g.vertex_ids if within is None else within)
    keep -= set(skip)
    pool = g.edges if edges is None else {edge_key(*e) for e in edges}
    h = nx.Graph()
    h.add_nodes_from(keep)
    h.add_edges_from((u, v) for u, v in pool if u in keep and v in keep)
    return h


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
    h = _nx_graph(g, skip=(expose,), within=scope, edges=edges)
    m = nx.max_weight_matching(h, maxcardinality=True)
    if 2 * len(m) != len(scope) - 1:
        return None
    return Matching(frozenset(edge_key(u, v) for u, v in m))


def is_factor_critical(g: TriGridGraph) -> bool:
    return all(near_perfect_matching(g, v) is not None for v in g.vertex_ids)


def is_central(g: TriGridGraph, sub: Iterable[int]) -> bool:
    """True iff removing `sub` leaves a graph with a perfect matching."""
    removed = set(sub)
    rest = [v for v in g.vertex_ids if v not in removed]
    if len(rest) % 2 == 1:
        return False
    h = _nx_graph(g, skip=removed)
    m = nx.max_weight_matching(h, maxcardinality=True)
    return 2 * len(m) == len(rest)


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


def alternating_path_to(g: TriGridGraph, m: Matching, frm: int, to: int,
                        within: Optional[Iterable[int]] = None,
                        edges: Optional[Iterable[Edge]] = None) -> List[int]:
    """Even alternating path from the exposed vertex `frm` to `to`.

    Built from M Δ M' where M' is a nearly perfect matching exposing `to`;
    consecutive edges alternate non-matching/matching relative to m. With
    `within`/`edges` the path stays inside that subgraph and m is taken
    restricted to it.
    """
    if within is not None or edges is not None:
        scope = set(g.vertex_ids if within is None else within)
        pool = g.edges if edges is None else {edge_key(*e) for e in edges}
        m = Matching(frozenset(e for e in m.edges
                               if e in pool and e[0] in scope and e[1] in scope))
    if m.covers(frm):
        raise MatchingError(f"vertex {frm} is not exposed by the matching")
    if frm == to:
        return [frm]
    m2 = near_perfect_matching(g, to, within=within, edges=edges)
    if m2 is None:
        raise MatchingError(f"no matching exposes vertex {to}")
    path = symmetric_difference_path(m, m2, frm)
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
