"""Exhaustive ground truth over the labeled-placement state space.

Breadth-first search over every placement reachable by single slides;
usable for instances up to roughly thirteen vertices, where the state
count (matchings times label orderings) stays in the low millions.
"""

import csv
import math
from dataclasses import dataclass
from typing import Dict, IO, Optional, Tuple

from .grid import Edge, TriGridGraph
from .matching import enumerate_near_perfect_matchings
from .placement import Placement, legal_moves, slide

DEFAULT_VERTEX_BOUND = 13

StateKey = Tuple[Tuple[Edge, ...], int]


class OracleBudgetError(Exception):
    pass


@dataclass(frozen=True)
class Component:
    """One connected component of the slide graph, with BFS distances."""

    start: Placement
    distances: Dict[StateKey, int]

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


def _key(p: Placement) -> StateKey:
    return (p.pieces, p.exposed)


def _check_budget(g: TriGridGraph, bound: int) -> None:
    if g.num_vertices > bound:
        raise OracleBudgetError(
            f"{g.num_vertices} vertices exceed the oracle bound of {bound}")


def bfs_component(g: TriGridGraph, p: Placement,
                  vertex_bound: int = DEFAULT_VERTEX_BOUND) -> Component:
    """All placements reachable from p, each with its shortest slide count."""
    _check_budget(g, vertex_bound)
    from collections import deque
    dist: Dict[StateKey, int] = {_key(p): 0}
    frontier = deque([p])
    while frontier:
        cur = frontier.popleft()
        d = dist[_key(cur)]
        for mv in legal_moves(cur):
            nxt = slide(cur, mv)
            k = _key(nxt)
            if k not in dist:
                dist[k] = d + 1
                frontier.append(nxt)
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
    """Shortest slide count from p to q, or None if unreachable."""
    comp = bfs_component(g, p, vertex_bound)
    return comp.distance_to(q)


def export_csv(comp: Component, out: IO[str]) -> None:
    """Rows `state_key,distance` plus a summary line."""
    w = csv.writer(out)
    w.writerow(["state_key", "distance"])
    for key, d in sorted(comp.distances.items(), key=lambda kv: (kv[1], kv[0])):
        pieces, exposed = key
        text = " ".join(f"{u}-{v}" for u, v in pieces) + f" /{exposed}"
        w.writerow([text, d])
    w.writerow([f"# component_size={comp.size} eccentricity={comp.eccentricity}",
                ""])
