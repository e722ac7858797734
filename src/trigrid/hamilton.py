"""Hamilton cycles and the diamond local structure used by the cycle planner.

Provides exact backtracking search for Hamilton cycles, on bit masks,
and the diamonds on a cycle whose subpath parities allow swapping
adjacent pieces along it: every one of them, each a window of the cycle
planner's sort.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterator, List, Sequence, Tuple

from .grid import Edge, GridError, TriGridGraph, cartesian, cycle_edges, is_star_of_david
from .plans import PlanError


class HamiltonError(PlanError):
    pass


@dataclass(frozen=True)
class HamiltonCycle:
    """A spanning cycle, stored anti-clockwise from the minimum vertex id
    (for lattice graphs; abstract graphs keep the lexicographic direction)."""

    order: Tuple[int, ...]

    @cached_property
    def edges(self) -> FrozenSet[Edge]:
        return frozenset(cycle_edges(self.order))

    def __len__(self) -> int:
        return len(self.order)


def validate_cycle(g: TriGridGraph, h: HamiltonCycle) -> None:
    order = h.order
    if len(order) != g.num_vertices or set(order) != set(g.vertex_ids):
        raise HamiltonError("cycle does not span the vertex set")
    for u, v in zip(order, order[1:] + order[:1]):
        if not g.has_edge(u, v):
            raise HamiltonError(f"cycle uses a non-edge ({u}, {v})")


def _signed_area(g: TriGridGraph, order: Sequence[int]) -> float:
    pts = [cartesian(g.point_of(v)) for v in order]
    area = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        area += x1 * y2 - x2 * y1
    return area / 2.0


def _normalize(g: TriGridGraph, order: Sequence[int]) -> Tuple[int, ...]:
    """Rotate to start at the minimum id; orient anti-clockwise when the
    graph carries lattice coordinates, else take the lexicographically
    smaller direction."""
    order = list(order)
    if g.is_lattice:
        if _signed_area(g, order) < 0:
            order.reverse()
    i = order.index(min(order))
    order = order[i:] + order[:i]
    if not g.is_lattice and order[1] > order[-1]:
        order = [order[0]] + order[1:][::-1]
    return tuple(order)


def _hamilton_search(g: TriGridGraph) -> Iterator[Tuple[int, ...]]:
    """Backtracking over simple paths with two sound prunes: every
    unvisited vertex must keep two usable neighbors (unvisited, the tail
    or the start), and the unvisited vertices, the tail and the start must
    induce a connected subgraph, as the rest of a Hamilton cycle runs from
    the tail through every unvisited vertex back to the start.

    Extending the path from tail t to w takes a usable neighbor only from
    the unvisited neighbors of t, and none when t is the start; every
    other unvisited vertex keeps the count it had, which the check one
    level up passed. So each step checks t's unvisited neighbors alone,
    except the first, which checks every unvisited vertex because the
    root runs no check.

    Whichever w a step takes, the new tail, the vertices left unvisited
    and the start are t's unvisited vertices and the start: one set for
    all of t's steps, checked once before them. That set and t were
    connected one level up (at the root they are the host, which the
    graph builders keep connected), so it is connected when t's
    neighbors in it are; only when they are not does a flood fill over
    the whole set decide.

    Vertex sets are int bit masks, bit v for vertex v: x keeps two usable
    neighbors when its neighbor mask meets the usable set in two bits or
    more, m & (m - 1) != 0, and a flood fill grows its set by the
    neighbor masks of its vertices. The path starts at the vertex of least
    (degree, id), and each tail tries its unvisited neighbors in that
    order. Neither prune drops a path that closes into a Hamilton cycle,
    so the cycles come in the order of the search without them."""
    rank = [(0, 0)] + [(g.degree(v), v) for v in g.vertex_ids]
    start = min(g.vertex_ids, key=rank.__getitem__)
    nbrs = [()] + [sorted(g.adj[v], key=rank.__getitem__) for v in g.vertex_ids]
    mask = [0] + [sum(1 << w for w in g.adj[v]) for v in g.vertex_ids]
    s = 1 << start
    path = [start]

    def connected(region: int) -> bool:
        """True iff the vertices of `region` induce a connected subgraph."""
        seen = frontier = region & -region
        while frontier:
            x = frontier & -frontier
            frontier ^= x
            new = mask[x.bit_length() - 1] & region & ~seen
            seen |= new
            frontier |= new
        return seen == region

    def extend(tail: int, unvisited: int) -> Iterator[Tuple[int, ...]]:
        if not unvisited:
            if mask[tail] & s:
                yield tuple(path)
            return
        usable = unvisited | s
        if not connected(mask[tail] & usable) and not connected(usable):
            return
        for w in nbrs[tail]:
            b = 1 << w
            if not unvisited & b:
                continue
            rest = unvisited ^ b
            at_risk = rest if tail == start else rest & mask[tail]
            while at_risk:
                x = at_risk & -at_risk
                m = mask[x.bit_length() - 1] & usable
                if not m & (m - 1):
                    break
                at_risk ^= x
            else:
                path.append(w)
                yield from extend(w, rest)
                path.pop()

    yield from extend(start, sum(1 << v for v in g.vertex_ids) ^ s)


def find_hamilton(g: TriGridGraph) -> HamiltonCycle:
    """First Hamilton cycle found by exact search.

    The Star of David graph is rejected upfront: it is the one
    locally-connected triangular grid graph with no spanning cycle.
    """
    if is_star_of_david(g):
        raise GridError("the Star of David graph has no Hamilton cycle")
    for order in _hamilton_search(g):
        h = HamiltonCycle(_normalize(g, order))
        validate_cycle(g, h)
        return h
    raise HamiltonError("no Hamilton cycle found")


# ---------------------------------------------------------------------------
# the parity diamond

@dataclass(frozen=True)
class ParityDiamond:
    """A diamond (two triangles sharing the edge (a, c); outer vertices b
    and d) positioned on a Hamilton cycle so that the cycle contains
    (a, b) but not (a, c), the subpath p1 from d to a avoiding b has even
    length, and the subpath p2 from b to c avoiding a has odd length. The
    arcs do not cross: c is not on p1, nor d on p2.
    """

    a: int
    b: int
    c: int
    d: int
    case: str                    # "i" or "ii"
    p1: Tuple[int, ...]          # vertex path d -> a, even edge count
    p2: Tuple[int, ...]          # vertex path b -> c, odd edge count


def find_local_structure(g: TriGridGraph, h: HamiltonCycle) -> ParityDiamond:
    """The parity diamond on the given Hamilton cycle with the shortest p1,
    then the shortest p2 (ties broken by vertex labels): the first of
    `parity_diamonds`, which raises HamiltonError below five vertices and
    when no diamond on h meets the parity conditions."""
    return parity_diamonds(g, h)[0]


def parity_diamonds(g: TriGridGraph, h: HamiltonCycle) -> List[ParityDiamond]:
    """Every parity diamond on the given Hamilton cycle, the shortest p1
    first, then the shortest p2, ties broken by vertex labels. Each is a
    window where the cycle planner can swap two adjacent pieces with the
    gap at its corner c, by a gadget that rotates over p1: 5 slides for a
    p1 of three vertices, 2m + 4 for m > 3.

    Every labeling is walked from its cycle edge (a, b): c is a common
    neighbour of a and b, and d a common neighbour of a and c other than b
    and not adjacent to b. With r(v) the steps from a to v along the cycle
    in b's direction, p2 is the arc r = 1 .. r(c) from b to c and p1 the
    arc r = r(d) .. k from d round to a, on a cycle of k vertices (k odd).
    So p2 has r(c) - 1 edges and p1 k - r(d): r(c) must be even and r(d)
    odd. Case ii is r(c) = 2, p2 the edge (b, c); case i is (c, d) on the
    cycle with the arcs apart, r(d) = r(c) + 1. Both put d after c, so
    the arcs never cross (they cross exactly when r(d) < r(c)), and (a, c)
    is on the cycle only at r(c) = k - 1, with no room for d after it.

    Raises HamiltonError below five vertices and when no diamond on h
    meets the parity conditions.
    """
    if g.num_vertices < 5:
        raise HamiltonError("graph too small for the diamond structure")
    validate_cycle(g, h)
    order = h.order
    k = len(order)
    pos = {v: i for i, v in enumerate(order)}
    nbrs = {v: set(g.adj[v]) for v in order}
    found = []
    for i, a in enumerate(order):
        for s in (1, -1):
            b = order[(i + s) % k]
            for c in nbrs[a] & nbrs[b]:
                rc = (pos[c] - i) * s % k
                if rc % 2:                              # p2 needs an odd edge count
                    continue
                for d in nbrs[a] & nbrs[c]:
                    if d == b or d in nbrs[b]:
                        continue
                    rd = (pos[d] - i) * s % k
                    if rd == rc + 1 or (rc == 2 and rd % 2):
                        found.append((k - rd, rc, (a, b, c, d), s))
    if not found:
        raise HamiltonError("no parity diamond on the Hamilton cycle")
    found.sort()
    twice = order + order                      # arcs sliced from i to i + k
    out = []
    for p1_edges, rc, (a, b, c, d), s in found:
        i = pos[a]
        if s == 1:
            p1, p2 = twice[i + k - p1_edges:i + k + 1], twice[i + 1:i + rc + 1]
        else:
            p1, p2 = twice[i:i + p1_edges + 1][::-1], twice[i + k - rc:i + k][::-1]
        out.append(ParityDiamond(a, b, c, d, "ii" if rc == 2 else "i", p1, p2))
    return out
