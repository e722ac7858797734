"""Exhaustive ground truth over the labeled-placement state space.

Breadth-first search over every placement reachable by single slides;
usable for instances up to roughly fifteen vertices (thirteen by
default), where a component holds up to about 1.4 * 10^6 states
(matchings times label orderings).

A state is a `bytes` of length n, the number of pieces: byte i is the
index, in the host's sorted edge list, of the edge under label i + 1. The
sorted bytes of a state are its configuration, the unlabeled matching.
A slide is label-blind: with x exposed, each neighbour w of x gives one
slide, which moves the piece on (w, u) onto (w, x), whatever its label.
It rewrites exactly one byte value, the id of (w, u) to that of (w, x),
so a successor is `s.translate(table)` with a 256-byte table that depends
only on those two ids. No `Placement` is built during a search. Edge
ids must fit in a byte, so hosts with more than 256 edges are refused.

The two searches store states differently, because they touch different
parts of the space:

- `bfs_component` reaches a whole component, so it keeps one dense row
  of n! distances per configuration it reaches. A state there is its
  configuration and its labeling: the position of each label's piece in
  the sorted configuration, a permutation of range(n). A row is indexed by
  the labeling's rank in the host's one list of the n! permutations
  (`SlideSpace.labelings`, ranked through one dict, `SlideSpace.rank`).
  The labelings reached at one configuration form one coset of a label
  group (Wilson, JCTB 1974), so the rows of a reconfigurable host fill
  up. A host of more than 9 pieces (19 vertices) is refused before the
  table is built, whatever the vertex bound: 10! labelings would take
  gigabytes before the first level. A slide moves the piece at one
  position of the sorted configuration to another, whatever its label,
  so it maps labeling ranks to labeling ranks through one list of n!
  ranks that depends only on those two positions. The BFS runs level by
  level on ranks, with its frontier grouped by configuration, and steps
  each rank with one list index. A state costs one list slot, not a
  `bytes` key and a dict entry.

- `distance` meets in the middle and touches a small part of a
  component, spread over many configurations: over seeded pairs a call
  has a median of 586-3,984 states over 64-184 configurations on
  `deg6-11v-5`, `hex11` and `hex13`. A row per configuration would cost
  more than it saves, so it keeps byte states in one dict per side and
  steps them with the edge-id tables. Each round expands the
  side with fewer frontier states by one whole level and stops at the
  first new state the other side already holds. Each side then goes
  about half the distance deep, so a reachable q costs a small part of
  the component. An unreachable q costs up to both components, more than
  one `bfs_component`: the search ends only when one side runs out.

Both searches take a configuration's slides, tables included, from the
`SlideSpace` that the graph object owns (`TriGridGraph.slide_space`),
built once per configuration and shared by every later search on the
same graph object.
"""

import csv
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, IO, List, Optional, Tuple

from .grid import Edge, TriGridGraph, edge_key
from .matching import enumerate_near_perfect_matchings
from .placement import Placement

DEFAULT_VERTEX_BOUND = 13

# Largest host the byte encoding can hold: edge ids are stored in bytes.
_MAX_ENCODED_EDGES = 256
# Most pieces whose n! labelings `bfs_component` ranks: 9! = 362,880, and
# each further piece multiplies the table and every row by n + 1.
_MAX_RANKED_PIECES = 9


class OracleBudgetError(Exception):
    pass


_Moves = List[Tuple[bytes, bytes]]
# (rank step, next configuration) of each slide
_RankedMoves = List[Tuple[List[int], bytes]]


class SlideSpace:
    """The slides of one host over its configurations, built on demand and
    kept: the host owns one as `TriGridGraph.slide_space`, so every search
    on the same graph object shares it.

    `edges` is the host's sorted edge list, which maps the edge ids in a
    state back to edges, and `index` maps them forth. `moves_of(cfg)`
    gives (table, next configuration) for every slide from a
    configuration, built once per configuration. A table depends only on
    the two edge ids of the slide, so one is kept per pair, not one per
    move: on `hex13` that is 156 tables instead of 684.

    `labelings` lists the n! labelings, the permutations of range(n), in
    rank order, and `rank` maps each to its index. `ranked_moves_of(cfg)`
    gives (rank step, next configuration) for every slide from a
    configuration, built once per configuration. A slide takes the piece
    at position a of the sorted configuration to position b of the next
    one, and the pieces between shift by one. Its rank step is a list of
    n! ranks, the rank of each labeling after the slide, which a 256-byte
    position table steps. A rank step depends only on (a, b), so a host
    keeps at most n^2 of them. These are built on first use by
    `bfs_component`; `distance` needs none. The space holds the host's
    adjacency, not the host, so it keeps no graph alive."""

    def __init__(self, g: TriGridGraph):
        self.n = g.n
        self.edges: Tuple[Edge, ...] = tuple(sorted(g.edges))
        self.index: Dict[Edge, int] = {e: i for i, e in enumerate(self.edges)}
        # the id of edge (w, x) under both orders of its ends
        self._ids = {(w, x): i for i, (u, v) in enumerate(self.edges)
                     for w, x in ((u, v), (v, u))}
        self._vertices = frozenset(g.vertex_ids)
        self._adj = g.adj
        self._tables: Dict[Tuple[int, int], bytes] = {}
        self._moves: Dict[bytes, _Moves] = {}
        self._rank_steps: Dict[Tuple[int, int], List[int]] = {}
        self._ranked_moves: Dict[bytes, _RankedMoves] = {}

    @cached_property
    def labelings(self) -> Tuple[bytes, ...]:
        """Every permutation of range(n) as bytes, in lexicographic order."""
        return tuple(map(bytes, itertools.permutations(range(self.n))))

    @cached_property
    def rank(self) -> Dict[bytes, int]:
        return {lab: r for r, lab in enumerate(self.labelings)}

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

    def ranked_moves_of(self, cfg: bytes) -> _RankedMoves:
        out = self._ranked_moves.get(cfg)
        if out is None:
            out = self._ranked_moves[cfg] = []
            for _, cfg2 in self.moves_of(cfg):
                (old,) = set(cfg).difference(cfg2)
                (new,) = set(cfg2).difference(cfg)
                step = self._rank_step(cfg.index(old), cfg2.index(new))
                out.append((step, cfg2))
        return out

    def _rank_step(self, a: int, b: int) -> List[int]:
        step = self._rank_steps.get((a, b))
        if step is None:
            order = list(range(self.n))      # order[k]: the old position now at k
            order.insert(b, order.pop(a))
            position = bytearray(range(256))
            for k, j in enumerate(order):
                position[j] = k
            rank = self.rank
            step = self._rank_steps[a, b] = [rank[lab.translate(position)]
                                             for lab in self.labelings]
        return step


def _split(s: bytes) -> Tuple[bytes, bytes]:
    """(configuration, labeling) of state s. The labeling is no
    permutation if s repeats an edge id."""
    cfg = bytes(sorted(s))
    position = bytearray(256)
    for j, i in enumerate(cfg):
        position[i] = j
    return cfg, s.translate(position)


@dataclass(frozen=True)
class Component:
    """One connected component of the slide graph: per configuration, a
    row of n! distances indexed by labeling rank, None where a labeling
    lies outside the component; the number of states and the largest
    distance, both counted during the search. The edge ids in a
    configuration are those of the start's host, `start.graph.slide_space`."""

    start: Placement
    rows: Dict[bytes, List[Optional[int]]]
    size: int
    eccentricity: int

    @property
    def distances(self) -> Dict[bytes, int]:
        """Every state's distance, keyed on encoded states. Built anew on
        each access: rows in the order the search reached their
        configurations, each in rank order."""
        labelings = self.start.graph.slide_space.labelings
        out = {}
        for cfg, row in self.rows.items():
            edge_of = cfg.ljust(256, b"\0")     # position -> edge id
            for r, d in enumerate(row):
                if d is not None:
                    out[labelings[r].translate(edge_of)] = d
        return out

    def contains(self, p: Placement) -> bool:
        return self.distance_to(p) is not None

    def distance_to(self, p: Placement) -> Optional[int]:
        space = self.start.graph.slide_space
        key = _key(p, space.index)
        if key is None:
            return None
        cfg, lab = _split(key)
        row = self.rows.get(cfg)
        r = space.rank.get(lab)
        return None if row is None or r is None else row[r]

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


def _is_state(key: Optional[bytes], space: SlideSpace) -> bool:
    """True iff key is n pieces on disjoint host edges, so that slides
    step it."""
    return (key is not None and len(key) == space.n
            and len({v for i in key for v in space.edges[i]}) == 2 * space.n)


def _start_key(p: Placement, space: SlideSpace) -> bytes:
    start = _key(p, space.index)
    if not _is_state(start, space):
        raise ValueError(f"the start placement is not {space.n} pieces "
                         "on disjoint host edges")
    return start


_Frontier = Dict[bytes, List[bytes]]


def _level(frontier: _Frontier, dist: Dict[bytes, int], d: int,
           moves_of: Callable[[bytes], _Moves],
           other: Optional[Dict[bytes, int]] = None
           ) -> Tuple[_Frontier, Optional[int]]:
    """One level of `distance`'s search over byte states. `frontier`
    holds the states at depth d - 1, grouped by configuration: every state
    in a group takes the same slides, each one `bytes.translate` with a
    shared table. Each successor not yet in dist goes into dist at depth d
    and into the returned frontier, in the order the loop meets it. If
    `other` holds a new state s, the level stops there and returns
    d + other[s] as well."""
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


def _check_ranked_budget(g: TriGridGraph, bound: int) -> None:
    """`_check_budget`, then the ranked BFS's piece limit."""
    _check_budget(g, bound)
    if g.n > _MAX_RANKED_PIECES:
        raise OracleBudgetError(
            f"{g.n} pieces exceed the {_MAX_RANKED_PIECES}-piece limit of the "
            f"oracle's labeling table ({g.n}! labelings)")


def bfs_component(g: TriGridGraph, p: Placement,
                  vertex_bound: int = DEFAULT_VERTEX_BOUND) -> Component:
    """All placements reachable from p, each with its shortest slide count.

    Level by level, with the frontier's labeling ranks grouped by
    configuration: each slide of a configuration steps every rank of its
    group through one rank step, and a rank is new where its slot in the
    next configuration's row is still None."""
    _check_ranked_budget(g, vertex_bound)
    space = g.slide_space
    cfg, lab = _split(_start_key(p, space))
    width = len(space.labelings)
    r = space.rank[lab]
    rows = {cfg: [None] * width}
    rows[cfg][r] = 0
    frontier = {cfg: [r]}
    size, d = 1, 0
    while frontier:
        d += 1
        nxt: Dict[bytes, List[int]] = {}
        for cfg, ranks in frontier.items():
            for step, cfg2 in space.ranked_moves_of(cfg):
                row = rows.get(cfg2)
                if row is None:
                    row = rows[cfg2] = [None] * width
                new = []
                for r in ranks:
                    r = step[r]
                    if row[r] is None:
                        row[r] = d
                        new.append(r)
                if new:
                    size += len(new)
                    group = nxt.get(cfg2)
                    if group is None:
                        nxt[cfg2] = new
                    else:
                        group += new
        frontier = nxt
    return Component(p, rows, size, d - 1)


def state_count(g: TriGridGraph) -> int:
    """Total number of labeled placements on the graph."""
    return len(enumerate_near_perfect_matchings(g)) * math.factorial(g.n)


def is_reconfigurable_bruteforce(g: TriGridGraph,
                                 vertex_bound: int = DEFAULT_VERTEX_BOUND) -> bool:
    """True iff every labeled placement is reachable from every other."""
    _check_ranked_budget(g, vertex_bound)
    ms = enumerate_near_perfect_matchings(g)
    if not ms:
        return False
    start = Placement.make(g, sorted(ms[0].edges))
    comp = bfs_component(g, start, vertex_bound)
    return comp.size == len(ms) * math.factorial(g.n)


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
    start = _start_key(p, space)
    goal = _key(q, space.index)
    # q's side takes slides only if q is n disjoint host edges, as p is
    if not _is_state(goal, space):
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
