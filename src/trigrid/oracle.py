"""Exhaustive ground truth over the labeled-placement state space.

Breadth-first search over every placement reachable by single slides;
usable for instances up to roughly thirteen vertices, where a component
holds up to about 10^5 states (matchings times label orderings).

A state is a `bytes` of length |V| + 1: byte 0 holds the exposed vertex and
byte v the label of the piece covering v (0 at the exposed vertex). Every
neighbour w of the exposed vertex x is covered, so each one gives exactly
one slide: the piece on w and its partner u moves onto (w, x), and u
becomes exposed. A successor is therefore a copy of the state with three
bytes rewritten, and no `Placement` is built during a search. Vertex ids
and labels must fit in a byte, so hosts above 255 vertices are refused.

`bfs_component` runs a level-synchronous BFS from one placement, and
`distance` looks q up in the component of p.
"""

import csv
import math
from dataclasses import dataclass
from typing import Dict, IO, List, Optional, Sequence, Tuple

from .grid import Edge, TriGridGraph
from .matching import enumerate_near_perfect_matchings
from .placement import Placement

DEFAULT_VERTEX_BOUND = 13

# Largest host the byte encoding can hold: vertex ids are stored in byte 0.
_MAX_ENCODED_VERTICES = 255


class OracleBudgetError(Exception):
    pass


@dataclass(frozen=True)
class Component:
    """One connected component of the slide graph, with BFS distances keyed
    on encoded states."""

    start: Placement
    distances: Dict[bytes, int]

    @property
    def size(self) -> int:
        return len(self.distances)

    @property
    def eccentricity(self) -> int:
        return max(self.distances.values(), default=0)

    def contains(self, p: Placement) -> bool:
        return _key(p) in self.distances

    def distance_to(self, p: Placement) -> Optional[int]:
        return self.distances.get(_key(p))


def _key(p: Placement) -> bytes:
    """Encode p: byte 0 is the exposed vertex, byte v the label covering v."""
    b = bytearray(p.graph.num_vertices + 1)
    b[0] = p.exposed
    for label, (u, v) in enumerate(p.pieces, 1):
        b[u] = b[v] = label
    return bytes(b)


def _decode(s: bytes) -> Tuple[Tuple[Edge, ...], int]:
    """Inverse of `_key`: (pieces, exposed) with each piece as (min, max)."""
    pieces = []
    for label in range(1, (len(s) - 2) // 2 + 1):
        u = s.find(label, 1)
        pieces.append((u, s.find(label, u + 1)))
    return tuple(pieces), s[0]


def _adjacency(g: TriGridGraph) -> List[Tuple[int, ...]]:
    return [()] + [g.adj[v] for v in g.vertex_ids]


def _successors(s: bytes, adj: Sequence[Tuple[int, ...]]) -> List[bytes]:
    """Every state one slide away from s: the same moves as `legal_moves`."""
    x = s[0]
    out = []
    for w in adj[x]:
        label = s[w]
        u = s.find(label, 1)
        if u == w:
            u = s.find(label, w + 1)
        b = bytearray(s)
        b[0] = u
        b[x] = label
        b[u] = 0
        out.append(bytes(b))
    return out


def _check_budget(g: TriGridGraph, bound: int) -> None:
    if g.num_vertices > bound:
        raise OracleBudgetError(
            f"{g.num_vertices} vertices exceed the oracle bound of {bound}")
    if g.num_vertices > _MAX_ENCODED_VERTICES:
        raise OracleBudgetError(
            f"{g.num_vertices} vertices exceed the {_MAX_ENCODED_VERTICES}-vertex "
            "limit of the oracle's state encoding")


def bfs_component(g: TriGridGraph, p: Placement,
                  vertex_bound: int = DEFAULT_VERTEX_BOUND) -> Component:
    """All placements reachable from p, each with its shortest slide count."""
    _check_budget(g, vertex_bound)
    adj = _adjacency(g)
    start = _key(p)
    dist: Dict[bytes, int] = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for s in frontier:
            for t in _successors(s, adj):
                if t not in dist:
                    dist[t] = d
                    nxt.append(t)
        frontier = nxt
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
    """Shortest slide count from p to q, or None if unreachable.

    Runs the whole `bfs_component` from p, so a call costs the same for
    every q in the component."""
    return bfs_component(g, p, vertex_bound).distance_to(q)


def export_csv(comp: Component, out: IO[str]) -> None:
    """Rows `state_key,distance` plus a summary line."""
    w = csv.writer(out)
    w.writerow(["state_key", "distance"])
    rows = sorted((d, _decode(s)) for s, d in comp.distances.items())
    for d, (pieces, exposed) in rows:
        text = " ".join(f"{u}-{v}" for u, v in pieces) + f" /{exposed}"
        w.writerow([text, d])
    w.writerow([f"# component_size={comp.size} eccentricity={comp.eccentricity}",
                ""])
