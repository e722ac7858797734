"""Labeled placements, the slide move, rotation along odd cycles, and
vertex exposure."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .grid import Edge, TriGridGraph, edge_key
from .matching import Matching, alternating_path_to, is_alternating_cycle


class PlacementError(Exception):
    pass


class IllegalMoveError(PlacementError):
    pass


@dataclass(frozen=True)
class Placement:
    """Injective map label -> edge whose image is a nearly perfect matching."""

    graph: TriGridGraph = field(compare=False, repr=False)
    pieces: Tuple[Edge, ...] = ()          # label i occupies pieces[i-1]
    exposed: int = 0

    @staticmethod
    def make(graph: TriGridGraph, pieces: Iterable[Edge]) -> "Placement":
        norm = tuple(edge_key(u, v) for u, v in pieces)
        if len(norm) != graph.n:
            raise PlacementError(f"expected {graph.n} pieces, got {len(norm)}")
        covered: Set[int] = set()
        for e in norm:
            if e not in graph.edges:
                raise PlacementError(f"piece edge {e} not in graph")
            if e[0] in covered or e[1] in covered:
                raise PlacementError("pieces overlap")
            covered |= set(e)
        (exposed,) = set(graph.vertex_ids) - covered
        return Placement(graph, norm, exposed)

    @property
    def n(self) -> int:
        return len(self.pieces)

    def piece(self, label: int) -> Edge:
        return self.pieces[label - 1]

    @property
    def matching(self) -> Matching:
        return Matching(frozenset(self.pieces))

    def label_at(self, e: Edge) -> Optional[int]:
        e = edge_key(*e)
        for i, pe in enumerate(self.pieces):
            if pe == e:
                return i + 1
        return None

    def label_covering(self, v: int) -> Optional[int]:
        for i, (a, b) in enumerate(self.pieces):
            if v in (a, b):
                return i + 1
        return None

    def key(self) -> Tuple[Edge, ...]:
        return self.pieces


@dataclass(frozen=True)
class SlideMove:
    label: int
    kept_vertex: int
    dest_vertex: int


@dataclass(frozen=True)
class SlideSequence:
    start: Placement
    moves: Tuple[SlideMove, ...] = ()

    def __len__(self) -> int:
        return len(self.moves)

    @property
    def end(self) -> Placement:
        return apply_sequence(self.start, self.moves)

    def then(self, other: "SlideSequence") -> "SlideSequence":
        assert other.start.pieces == self.end.pieces
        return SlideSequence(self.start, self.moves + other.moves)


@dataclass(frozen=True)
class RotationSpec:
    """Rotation target along an aligned odd cycle.

    Exactly one goal: `target_exposed` retargets the exposed vertex;
    `target_pieces` (label -> edge, for the labels on the cycle) demands an
    exact landing state, optionally together with `target_exposed`.
    """

    cycle: Tuple[int, ...]
    target_exposed: Optional[int] = None
    target_pieces: Optional[Tuple[Tuple[int, Edge], ...]] = None


def slide(p: Placement, move: SlideMove) -> Placement:
    if not (1 <= move.label <= p.n):
        raise IllegalMoveError(f"label {move.label} absent")
    u, v = p.piece(move.label)
    if move.kept_vertex == v:
        abandoned = u
    elif move.kept_vertex == u:
        abandoned = v
    else:
        raise IllegalMoveError(f"vertex {move.kept_vertex} not an endpoint of piece {move.label}")
    if move.dest_vertex != p.exposed:
        raise IllegalMoveError(f"destination {move.dest_vertex} is not the exposed vertex")
    if not p.graph.has_edge(move.kept_vertex, p.exposed):
        raise IllegalMoveError(f"({move.kept_vertex},{p.exposed}) is not an edge")
    new_pieces = list(p.pieces)
    new_pieces[move.label - 1] = edge_key(move.kept_vertex, p.exposed)
    return Placement(p.graph, tuple(new_pieces), abandoned)


def legal_moves(p: Placement) -> List[SlideMove]:
    out = []
    for w in p.graph.adj[p.exposed]:
        label = p.label_covering(w)
        if label is not None:
            out.append(SlideMove(label, w, p.exposed))
    out.sort(key=lambda m: (m.label, m.kept_vertex))
    return out


def apply_sequence(p: Placement, moves: Iterable[SlideMove]) -> Placement:
    for mv in moves:
        p = slide(p, mv)
    return p


def is_aligned(p: Placement, cycle: Sequence[int]) -> bool:
    """True iff cycle is an odd M_p-alternating cycle containing v_p."""
    if p.exposed not in cycle:
        return False
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        if not p.graph.has_edge(a, b):
            return False
    return is_alternating_cycle(p.matching, cycle)


def aligned_cycle_state(k: int, j: int, h: int) -> Dict[int, Edge]:
    """Landing state of a rotation: label -> edge on the canonical cycle.

    The cycle has vertices 1..2k+1 in anti-clockwise order; the returned map
    places labels 1..k so that vertex j is exposed and the labels are offset
    by h (j and h must agree mod 2). Comparisons use the un-reduced index
    h+2i-1 against j; vertex names reduce into 1..2k+1.
    """
    if (j - h) % 2 != 0:
        raise PlacementError("j and h must have the same parity")
    mod = 2 * k + 1
    # Label offsets repeat with period k; reduce h into the window (j-2k, j]
    # so the un-reduced comparison below leaves exactly vertex j uncovered.
    h = j - 2 * (((j - h) // 2) % k)

    def red(x: int) -> int:
        return (x - 1) % mod + 1

    out = {}
    for i in range(1, k + 1):
        t = h + 2 * i - 1
        if t < j:
            out[i] = edge_key(red(t - 1), red(t))
        else:
            out[i] = edge_key(red(t), red(t + 1))
    return out


def shortest_slides_within(p: Placement, edges: Set[Edge],
                           goal: Callable[[Placement], bool]) -> Optional[SlideSequence]:
    """Breadth-first search for a shortest slide sequence from p to a state
    meeting `goal`, or None if none is reachable.

    Only slides whose piece and landing edge both lie in `edges` are
    expanded, in `legal_moves` order, so pieces off `edges` never move and
    the first goal state found is the one returned.
    """
    if goal(p):
        return SlideSequence(p, ())
    seen = {p.pieces}
    frontier: deque = deque([(p, ())])
    while frontier:
        cur, moves = frontier.popleft()
        for mv in legal_moves(cur):
            if (edge_key(mv.kept_vertex, mv.dest_vertex) not in edges
                    or cur.piece(mv.label) not in edges):
                continue
            nxt = slide(cur, mv)
            if nxt.pieces in seen:
                continue
            seen.add(nxt.pieces)
            path = moves + (mv,)
            if goal(nxt):
                return SlideSequence(p, path)
            frontier.append((nxt, path))
    return None


def rotate(p: Placement, spec: RotationSpec) -> SlideSequence:
    """Shortest rotation along the aligned cycle reaching the target.

    A breadth-first search (`shortest_slides_within`) over slides whose
    piece and landing edge lie on the cycle; the reachable states are the
    gap positions crossed with the label phases, at most (2k'+1)k' of them
    for cycle length 2k'+1. Raises PlacementError if p is not aligned with
    the cycle or the target is unreachable along it.
    """
    cyc = spec.cycle
    if not is_aligned(p, cyc):
        raise PlacementError("placement is not aligned with the rotation cycle")
    cycle_edges = {edge_key(a, b) for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]])}
    want_pieces = dict(spec.target_pieces) if spec.target_pieces is not None else None

    def done(q: Placement) -> bool:
        if spec.target_exposed is not None and q.exposed != spec.target_exposed:
            return False
        if want_pieces is not None:
            for label, e in want_pieces.items():
                if q.piece(label) != edge_key(*e):
                    return False
        return True

    seq = shortest_slides_within(p, cycle_edges, done)
    if seq is None:
        raise PlacementError("rotation target unreachable along the cycle")
    return seq


def expose(p: Placement, v: int,
           within: Optional[Iterable[int]] = None,
           edges: Optional[Iterable[Edge]] = None) -> SlideSequence:
    """Slide pieces along an alternating path until v is exposed.

    Uses the symmetric difference of M_p with a matching exposing v; the
    move count is half the path length, at most n. With `within`/`edges`,
    both the path and every slide stay inside that subgraph.
    """
    scope = None if within is None else set(within)
    if scope is not None and (v not in scope or p.exposed not in scope):
        raise PlacementError("expose target or exposed vertex outside subgraph")
    path = alternating_path_to(p.graph, p.matching, p.exposed, v,
                               within=scope, edges=edges)
    moves = []
    cur = p
    for t in range(1, len(path), 2):
        kept, far = path[t], path[t + 1]
        label = cur.label_at(edge_key(kept, far))
        assert label is not None
        mv = SlideMove(label, kept, cur.exposed)
        moves.append(mv)
        cur = slide(cur, mv)
    assert cur.exposed == v
    return SlideSequence(p, tuple(moves))


def invert_sequence(seq: SlideSequence) -> SlideSequence:
    """The reverse reconfiguration: slides are involutions move-by-move."""
    states = [seq.start]
    for mv in seq.moves:
        states.append(slide(states[-1], mv))
    moves = []
    for after, mv in zip(reversed(states[1:]), reversed(seq.moves)):
        moves.append(SlideMove(mv.label, mv.kept_vertex, after.exposed))
    return SlideSequence(states[-1], tuple(moves))


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    move_count: int
    final: Optional[Placement]
    first_bad_index: Optional[int] = None
    message: str = ""
    matches_expected: Optional[bool] = None


def verify_sequence(seq: SlideSequence,
                    expected_end: Optional[Placement] = None) -> VerifyReport:
    cur = seq.start
    for i, mv in enumerate(seq.moves):
        try:
            cur = slide(cur, mv)
        except IllegalMoveError as exc:
            return VerifyReport(False, i, None, first_bad_index=i, message=str(exc))
    matches = None
    if expected_end is not None:
        matches = (cur.pieces == expected_end.pieces
                   and cur.exposed == expected_end.exposed)
    ok = matches is not False
    return VerifyReport(ok, len(seq.moves), cur, matches_expected=matches,
                        message="" if ok else "final placement differs from expected")
