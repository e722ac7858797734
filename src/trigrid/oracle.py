"""Exhaustive ground truth over the labeled-placement state space.

Breadth-first search over every placement reachable by single slides;
usable for instances up to roughly thirteen vertices, where a component
holds up to about 10^5 states (matchings times label orderings).

A state is a `bytes` of length n, the number of pieces: byte i is the
index, in the host's sorted edge list, of the edge under label i + 1. The
sorted bytes of a state are its configuration, the unlabeled matching.
A slide is label-blind: with x exposed, each neighbour w of x gives one
slide, which moves the piece on (w, u) onto (w, x), whatever its label.
It rewrites exactly one byte value, the id of (w, u) to that of (w, x),
so a successor is `s.translate(table)` with a 256-byte table that depends
only on those two ids. No `Placement` is built during a search. Edge
ids must fit in a byte, so hosts with more than 256 edges are refused.

`bfs_component` runs a level-synchronous BFS from one placement. Its
frontier is grouped by configuration; the tables and next configurations
of each configuration are built once per host, in the `SlideSpace` that
the graph object owns (`TriGridGraph.slide_space`), and shared by every
state of its group and by every later search on the same graph object.
`_level` steps the states one by one.

`distance` meets in the middle with the same level step: one search from
p and one from q, since the inverse of a slide is a slide. Each round
expands the side with fewer frontier states by one whole level and stops
at the first new state the other side already holds. Each side then goes
about half the distance deep, so a reachable q costs a small part of the
component. An unreachable q costs up to both components, more than one
`bfs_component`: the search ends only when one side runs out.
"""

import csv
import math
from dataclasses import dataclass
from typing import Callable, Dict, IO, List, Optional, Tuple

from .grid import Edge, TriGridGraph, edge_key
from .matching import enumerate_near_perfect_matchings
from .placement import Placement

DEFAULT_VERTEX_BOUND = 13

# Largest host the byte encoding can hold: edge ids are stored in bytes.
_MAX_ENCODED_EDGES = 256


class OracleBudgetError(Exception):
    pass


_Moves = List[Tuple[bytes, bytes]]


class SlideSpace:
    """The slides of one host over its configurations, built on demand and
    kept: the host owns one as `TriGridGraph.slide_space`, so every search
    on the same graph object shares it.

    `edges` is the host's sorted edge list, which maps the edge ids in a
    state back to edges, and `index` maps them forth. `moves_of(cfg)`
    gives (table, next configuration) for every slide from a
    configuration, built once per configuration. A table depends only on
    the two edge ids of the slide, so one is kept per pair, not one per
    move: on `hex13` that is 156 tables instead of 684. The space holds
    the host's adjacency, not the host, so it keeps no graph alive."""

    def __init__(self, g: TriGridGraph):
        self.edges: Tuple[Edge, ...] = tuple(sorted(g.edges))
        self.index: Dict[Edge, int] = {e: i for i, e in enumerate(self.edges)}
        # the id of edge (w, x) under both orders of its ends
        self._ids = {(w, x): i for i, (u, v) in enumerate(self.edges)
                     for w, x in ((u, v), (v, u))}
        self._vertices = frozenset(g.vertex_ids)
        self._adj = g.adj
        self._tables: Dict[Tuple[int, int], bytes] = {}
        self._moves: Dict[bytes, _Moves] = {}

    def moves_of(self, cfg: bytes) -> _Moves:
        out = self._moves.get(cfg)
        if out is not None:
            return out
        edges, ids, tables = self.edges, self._ids, self._tables
        cover = {}
        for i in cfg:
            u, v = edges[i]
            cover[u] = cover[v] = i
        (x,) = self._vertices.difference(cover)
        out = self._moves[cfg] = []
        for w in self._adj[x]:
            old, new = cover[w], ids[w, x]
            table = tables.get((old, new))
            if table is None:
                table = bytearray(range(256))
                table[old] = new
                table = tables[old, new] = bytes(table)
            out.append((table, bytes(sorted(cfg.translate(table)))))
        return out


@dataclass(frozen=True)
class Component:
    """One connected component of the slide graph, with BFS distances keyed
    on encoded states. The edge ids in a state are those of the start's
    host, `start.graph.slide_space`."""

    start: Placement
    distances: Dict[bytes, int]

    @property
    def size(self) -> int:
        return len(self.distances)

    @property
    def eccentricity(self) -> int:
        return max(self.distances.values(), default=0)

    def contains(self, p: Placement) -> bool:
        return self.distance_to(p) is not None

    def distance_to(self, p: Placement) -> Optional[int]:
        key = _key(p, self.start.graph.slide_space.index)
        return None if key is None else self.distances.get(key)

    def decode(self, s: bytes) -> Tuple[Tuple[Edge, ...], int]:
        """The (pieces, exposed) pair of state s, each piece as (min, max)."""
        nv = self.start.graph.num_vertices
        edges = self.start.graph.slide_space.edges
        pieces = tuple(edges[i] for i in s)
        # every vertex but the exposed one is covered exactly once
        return pieces, nv * (nv + 1) // 2 - sum(map(sum, pieces))


def _key(p: Placement, index: Dict[Edge, int]) -> Optional[bytes]:
    """Encode p: byte i is the edge id of label i + 1's piece. None if a
    piece is not a host edge."""
    ids = [index.get(edge_key(*e)) for e in p.pieces]
    return None if None in ids else bytes(ids)


def _start_key(p: Placement, index: Dict[Edge, int]) -> bytes:
    start = _key(p, index)
    if start is None:
        raise ValueError("the start placement has a piece that is not a host edge")
    return start


_Frontier = Dict[bytes, List[bytes]]


def _level(frontier: _Frontier, dist: Dict[bytes, int], d: int,
           moves_of: Callable[[bytes], _Moves],
           other: Optional[Dict[bytes, int]] = None
           ) -> Tuple[_Frontier, Optional[int]]:
    """One BFS level. `frontier` holds the states at depth d - 1, grouped
    by configuration: every state in a group takes the same slides, each
    one `bytes.translate` with a shared table. Each successor not yet in
    dist goes into dist at depth d and into the returned frontier, in the
    order the loop meets it. If `other` holds a new state s, the level
    stops there and returns d + other[s] as well."""
    nxt: _Frontier = {}
    for cfg, states in frontier.items():
        for table, cfg2 in moves_of(cfg):
            for s in states:
                t = s.translate(table)
                if t in dist:
                    continue
                dist[t] = d
                if other and t in other:
                    return nxt, d + other[t]
                nxt.setdefault(cfg2, []).append(t)
    return nxt, None


def _check_budget(g: TriGridGraph, bound: int) -> None:
    if g.num_vertices > bound:
        raise OracleBudgetError(
            f"{g.num_vertices} vertices exceed the oracle bound of {bound}")
    if len(g.edges) > _MAX_ENCODED_EDGES:
        raise OracleBudgetError(
            f"{len(g.edges)} edges exceed the {_MAX_ENCODED_EDGES}-edge "
            "limit of the oracle's state encoding")


def bfs_component(g: TriGridGraph, p: Placement,
                  vertex_bound: int = DEFAULT_VERTEX_BOUND) -> Component:
    """All placements reachable from p, each with its shortest slide count."""
    _check_budget(g, vertex_bound)
    space = g.slide_space
    start = _start_key(p, space.index)
    dist = {start: 0}
    frontier = {bytes(sorted(start)): [start]}
    d = 0
    while frontier:
        d += 1
        frontier, _ = _level(frontier, dist, d, space.moves_of)
    return Component(p, dist)


def state_count(g: TriGridGraph) -> int:
    """Total number of labeled placements on the graph."""
    n = (g.num_vertices - 1) // 2
    return len(enumerate_near_perfect_matchings(g)) * math.factorial(n)


def is_reconfigurable_bruteforce(g: TriGridGraph,
                                 vertex_bound: int = DEFAULT_VERTEX_BOUND) -> bool:
    """True iff every labeled placement is reachable from every other."""
    _check_budget(g, vertex_bound)
    ms = enumerate_near_perfect_matchings(g)
    if not ms:
        return False
    start = Placement.make(g, sorted(ms[0].edges))
    comp = bfs_component(g, start, vertex_bound)
    n = (g.num_vertices - 1) // 2
    return comp.size == len(ms) * math.factorial(n)


def distance(g: TriGridGraph, p: Placement, q: Placement,
             vertex_bound: int = DEFAULT_VERTEX_BOUND) -> Optional[int]:
    """Shortest slide count from p to q: 0 if p == q, None if q is not a
    placement of the host (a piece off it, or pieces that are not a
    near-perfect matching) or lies in another component.

    Meets in the middle: a search from p and one from q share one
    `_level` step and the host's `SlideSpace`. Each round expands the side
    with fewer frontier states by one whole level d and stops at the first
    new state s the other side holds, returning d + other[s]. That is a
    shortest path: before this level, no state of this side at depth
    <= d - 1 was in the other side, which has searched every depth up to
    its own k, so the distance is at least d + k, and other[s] <= k.

    A reachable q costs the states within about half the distance of p
    and of q. An unreachable q costs up to both components, since the
    search ends only when one side runs out: on `chord_cycle(5, 3)` about
    twice one `bfs_component`."""
    _check_budget(g, vertex_bound)
    space = g.slide_space
    start = _start_key(p, space.index)
    goal = _key(q, space.index)
    # q's side takes slides only if q is n disjoint host edges, as p is
    if (goal is None or len(goal) != len(start)
            or len({v for i in goal for v in space.edges[i]}) != 2 * len(goal)):
        return None
    if goal == start:
        return 0
    dists = ({start: 0}, {goal: 0})
    frontiers = [{bytes(sorted(s)): [s]} for s in (start, goal)]
    depths = [0, 0]
    while all(frontiers):
        sizes = [sum(map(len, f.values())) for f in frontiers]
        i = int(sizes[1] < sizes[0])
        depths[i] += 1
        frontiers[i], met = _level(frontiers[i], dists[i], depths[i],
                                   space.moves_of, dists[1 - i])
        if met is not None:
            return met
    return None


def export_csv(comp: Component, out: IO[str]) -> None:
    """Rows `state_key,distance` plus a summary line."""
    w = csv.writer(out)
    w.writerow(["state_key", "distance"])
    rows = sorted((d, comp.decode(s)) for s, d in comp.distances.items())
    for d, (pieces, exposed) in rows:
        text = " ".join(f"{u}-{v}" for u, v in pieces) + f" /{exposed}"
        w.writerow([text, d])
    w.writerow([f"# component_size={comp.size} eccentricity={comp.eccentricity}",
                ""])
