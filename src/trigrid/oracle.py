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
of each configuration are built once per search, and each group takes a
move in one C-level pass over its states. `distance` looks q up in the
component of p.
"""

import csv
import math
from dataclasses import dataclass, field
from itertools import filterfalse, repeat
from typing import Dict, IO, List, Optional, Tuple

from .grid import Edge, TriGridGraph, edge_key
from .matching import enumerate_near_perfect_matchings
from .placement import Placement

DEFAULT_VERTEX_BOUND = 13

# Largest host the byte encoding can hold: edge ids are stored in bytes.
_MAX_ENCODED_EDGES = 256


class OracleBudgetError(Exception):
    pass


@dataclass(frozen=True)
class Component:
    """One connected component of the slide graph, with BFS distances keyed
    on encoded states. `edges` is the host's sorted edge list, which maps
    the edge ids in a state back to edges."""

    start: Placement
    distances: Dict[bytes, int]
    edges: Tuple[Edge, ...] = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.distances)

    @property
    def eccentricity(self) -> int:
        return max(self.distances.values(), default=0)

    def contains(self, p: Placement) -> bool:
        return self.distance_to(p) is not None

    def distance_to(self, p: Placement) -> Optional[int]:
        key = _key(p, {e: i for i, e in enumerate(self.edges)})
        return None if key is None else self.distances.get(key)

    def decode(self, s: bytes) -> Tuple[Tuple[Edge, ...], int]:
        """The (pieces, exposed) pair of state s, each piece as (min, max)."""
        nv = self.start.graph.num_vertices
        pieces = tuple(self.edges[i] for i in s)
        # every vertex but the exposed one is covered exactly once
        return pieces, nv * (nv + 1) // 2 - sum(map(sum, pieces))


def _key(p: Placement, index: Dict[Edge, int]) -> Optional[bytes]:
    """Encode p: byte i is the edge id of label i + 1's piece. None if a
    piece is not a host edge."""
    ids = [index.get(edge_key(*e)) for e in p.pieces]
    return None if None in ids else bytes(ids)


def _moves(g: TriGridGraph, cfg: bytes, edges: Tuple[Edge, ...],
           index: Dict[Edge, int],
           tables: Dict[Tuple[int, int], bytes]) -> List[Tuple[bytes, bytes]]:
    """(table, next configuration) for every slide from configuration cfg.
    A table depends only on the two edge ids of the slide, so `tables`
    keeps one per pair for the whole search, not one per move: on `hex13`
    that is 156 tables instead of 684."""
    cover = {}
    for i in cfg:
        u, v = edges[i]
        cover[u] = cover[v] = i
    (x,) = set(g.vertex_ids).difference(cover)
    out = []
    for w in g.adj[x]:
        old, new = cover[w], index[edge_key(w, x)]
        if (old, new) not in tables:
            table = bytearray(range(256))
            table[old] = new
            tables[old, new] = bytes(table)
        nxt = bytes(sorted(cfg.replace(bytes([old]), bytes([new]))))
        out.append((tables[old, new], nxt))
    return out


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
    edges = tuple(sorted(g.edges))
    index = {e: i for i, e in enumerate(edges)}
    start = _key(p, index)
    if start is None:
        raise ValueError("the start placement has a piece that is not a host edge")
    dist: Dict[bytes, int] = {start: 0}
    # the frontier grouped by configuration: every state in a group takes
    # the same slides, each one `bytes.translate` with a shared table
    frontier = {bytes(sorted(start)): [start]}
    moves: Dict[bytes, List[Tuple[bytes, bytes]]] = {}
    tables: Dict[Tuple[int, int], bytes] = {}
    d = 0
    while frontier:
        d += 1
        nxt: Dict[bytes, List[bytes]] = {}
        for cfg, states in frontier.items():
            if cfg not in moves:
                moves[cfg] = _moves(g, cfg, edges, index, tables)
            for table, cfg2 in moves[cfg]:
                # A table is injective on one configuration's states, so a
                # group yields no duplicates, and dist takes each group's
                # new states before the next group runs. Probing dist per
                # successor is the cheap side: a set's
                # difference_update(dist) would walk all of dist.
                new = list(filterfalse(dist.__contains__,
                                       map(bytes.translate, states, repeat(table))))
                if new:
                    dist.update(dict.fromkeys(new, d))
                    nxt.setdefault(cfg2, []).extend(new)
        frontier = nxt
    return Component(p, dist, edges)


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
    rows = sorted((d, comp.decode(s)) for s, d in comp.distances.items())
    for d, (pieces, exposed) in rows:
        text = " ".join(f"{u}-{v}" for u, v in pieces) + f" /{exposed}"
        w.writerow([text, d])
    w.writerow([f"# component_size={comp.size} eccentricity={comp.eccentricity}",
                ""])
