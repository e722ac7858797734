"""Hamilton cycles and the diamond local structure used by the cycle planner.

Provides exact backtracking search for Hamilton cycles and extraction of a
diamond whose subpath parities allow swapping adjacent pieces along the
cycle.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .grid import Edge, GridError, TriGridGraph, cartesian, edge_key, is_star_of_david
from .ears import cycle_edges, enumerate_diamonds


class HamiltonError(Exception):
    pass


class NoLocalStructureError(HamiltonError):
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
    """Backtracking over simple paths with a connectivity-style prune:
    every unvisited vertex must keep two usable neighbors (unvisited, the
    tail or the start).

    Extending the path from tail t to w takes a usable neighbor only from
    the unvisited neighbors of t, and none when t is the start; every
    other unvisited vertex keeps the count it had, which the check one
    level up passed. So each step checks t's unvisited neighbors alone,
    except the first, which checks every unvisited vertex because the
    root runs no check."""
    nvert = g.num_vertices
    start = min(g.vertex_ids, key=lambda v: (g.degree(v), v))
    visited = {start}
    path = [start]

    def usable(w: int, tail: int) -> int:
        cnt = 0
        for x in g.adj[w]:
            if x == tail or x == start or x not in visited:
                cnt += 1
        return cnt

    def extend() -> Iterator[Tuple[int, ...]]:
        tail = path[-1]
        if len(path) == nvert:
            if g.has_edge(tail, start):
                yield tuple(path)
            return
        nbrs = sorted((w for w in g.adj[tail] if w not in visited),
                      key=lambda w: (g.degree(w), w))
        at_risk = g.vertex_ids if tail == start else g.adj[tail]
        for w in nbrs:
            visited.add(w)
            path.append(w)
            if all(usable(x, w) >= 2 for x in at_risk if x not in visited):
                yield from extend()
            path.pop()
            visited.discard(w)

    yield from extend()


def find_hamilton(g: TriGridGraph) -> HamiltonCycle:
    """First Hamilton cycle found by exact search.

    The Star of David graph is rejected upfront: it is the one
    locally-connected triangular grid graph with no spanning cycle.
    """
    if g.is_lattice and is_star_of_david(g):
        raise GridError("the Star of David graph has no Hamilton cycle")
    for order in _hamilton_search(g):
        h = HamiltonCycle(_normalize(g, order))
        validate_cycle(g, h)
        return h
    raise HamiltonError("no Hamilton cycle found")


def enumerate_hamilton_cycles(g: TriGridGraph) -> Iterator[HamiltonCycle]:
    """All distinct Hamilton cycles (deduplicated up to rotation and
    direction), in search order."""
    seen: Set[Tuple[int, ...]] = set()
    for order in _hamilton_search(g):
        h = HamiltonCycle(_normalize(g, order))
        key = min(h.order, (h.order[0],) + h.order[1:][::-1])
        if key in seen:
            continue
        seen.add(key)
        validate_cycle(g, h)
        yield h


# ---------------------------------------------------------------------------
# the parity diamond

@dataclass(frozen=True)
class ParityDiamond:
    """A diamond (two triangles sharing the edge (a, c); outer vertices b
    and d) positioned on a Hamilton cycle so that the cycle contains
    (a, b) but not (a, c), the subpath p1 from d to a avoiding b has even
    length, and the subpath p2 from b to c avoiding a has odd length.
    """

    a: int
    b: int
    c: int
    d: int
    cycle: HamiltonCycle
    case: str                    # "i" or "ii"
    p1: Tuple[int, ...]          # vertex path d -> a, even edge count
    p2: Tuple[int, ...]          # vertex path b -> c, odd edge count


def _arc(order: Sequence[int], frm: int, to: int, avoid: int) -> Tuple[int, ...]:
    """The cycle arc from `frm` to `to` not passing through `avoid`: the
    forward arc if it avoids it, else the backward one, both sliced from
    the cycle turned to start at `frm`."""
    i = order.index(frm)
    ring = tuple(order[i:]) + tuple(order[:i])
    j = ring.index(to)
    for path in (ring[:j + 1], ring[:1] + ring[:j - 1:-1]):
        if avoid not in path:
            return path
    raise HamiltonError("both arcs pass through the avoided vertex")


def _classify(h: HamiltonCycle, a: int, b: int, c: int, d: int) -> Optional[str]:
    """Lemma-condition case for the labeling, or None if neither holds."""
    he = h.edges
    if edge_key(a, c) in he:
        return None
    if edge_key(a, b) in he and edge_key(b, c) in he:
        return "ii"
    if edge_key(a, b) in he and edge_key(c, d) in he:
        return "i"
    return None


def _parity_labelings(h: HamiltonCycle,
                      diamond: Tuple[int, int, int, int]) -> List[ParityDiamond]:
    """All labelings of the diamond satisfying the parity conditions."""
    s1, s2, t1, t2 = diamond
    out = []
    for a, c in ((s1, s2), (s2, s1)):
        for b, d in ((t1, t2), (t2, t1)):
            he = h.edges
            if edge_key(a, b) not in he or edge_key(a, c) in he:
                continue
            p1 = _arc(h.order, d, a, avoid=b)
            p2 = _arc(h.order, b, c, avoid=a)
            if (len(p1) - 1) % 2 != 0 or (len(p2) - 1) % 2 != 1:
                continue
            case = "ii" if len(p2) == 2 else _classify(h, a, b, c, d)
            if case is None:
                continue
            out.append(ParityDiamond(a, b, c, d, h, case, p1, p2))
    return out


def _scan(g: TriGridGraph, h: HamiltonCycle) -> List[ParityDiamond]:
    found = []
    for diamond in enumerate_diamonds(g):
        found.extend(_parity_labelings(h, diamond))
    return found


def _best(cands: List[ParityDiamond]) -> ParityDiamond:
    return min(cands, key=lambda pd: (len(pd.p1), len(pd.p2), (pd.a, pd.b, pd.c, pd.d)))


def select_parity(h: HamiltonCycle,
                  diamond: Tuple[int, int, int, int]) -> ParityDiamond:
    """Orient a qualifying diamond so the two cycle subpaths have the
    required parities; exactly the right orientation exists because the
    cycle has odd length."""
    cands = _parity_labelings(h, diamond)
    if not cands:
        raise HamiltonError("diamond does not meet the parity conditions")
    return _best(cands)


def find_local_structure(g: TriGridGraph, h: HamiltonCycle) -> ParityDiamond:
    """The parity diamond on the given Hamilton cycle with the shortest p1,
    then the shortest p2 (ties broken by vertex labels); its `cycle` is h.
    Each adjacent swap of the cycle planner rotates over p1, and a p1 of
    three vertices makes the swap a five-vertex search.

    Raises HamiltonError below five vertices and NoLocalStructureError when
    no diamond on h meets the parity conditions.
    """
    if g.num_vertices < 5:
        raise HamiltonError("graph too small for the diamond structure")
    validate_cycle(g, h)
    cands = _scan(g, h)
    if not cands:
        raise NoLocalStructureError("no parity diamond on the Hamilton cycle")
    return _best(cands)
