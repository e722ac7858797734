"""Labeled placements, the slide move and its checks (`slide`,
`verify_sequence`), the in-place slide kernel (`Board`, `replay`), an odd
cycle's forced dominoes and rotation along it, vertex exposure and loop
cutting. Nothing here searches over slides: `rotate` solves its goals in
closed form, and the one slide search is the ear planner's pentagon core
(`ear_planner.base_pentagon`)."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Collection, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .grid import Edge, TriGridGraph, edge_key
from .matching import Matching, alternating_path_to


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


class SlideMove(NamedTuple):
    label: int
    kept_vertex: int
    dest_vertex: int


@dataclass(frozen=True)
class SlideSequence:
    """Moves from `start`. Builders that already hold the end placement pass
    it as `_end`; otherwise (an empty sequence excepted) `end` replays the
    moves once on first access and keeps the result."""

    start: Placement
    moves: Tuple[SlideMove, ...] = ()
    _end: Optional[Placement] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self._end is None and not self.moves:
            object.__setattr__(self, "_end", self.start)

    def __len__(self) -> int:
        return len(self.moves)

    @property
    def end(self) -> Placement:
        if self._end is None:
            object.__setattr__(self, "_end", apply_sequence(self.start, self.moves))
        return self._end

    def then(self, other: "SlideSequence") -> "SlideSequence":
        assert other.start.pieces == self.end.pieces
        return SlideSequence(self.start, self.moves + other.moves, other.end)


def _check_slide(pieces: Sequence[Edge], gap: int, edges: Collection[Edge],
                 label: int, kept: int, dest: int) -> Tuple[int, Edge]:
    """The four checks of a slide on `pieces` (by label) exposing `gap`:
    the label exists, `kept` is an endpoint of its piece, `dest` is the
    gap, and (kept, gap) is an edge. Returns the vertex the piece abandons
    and the edge it lands on; raises IllegalMoveError at the first check
    that fails."""
    if not 1 <= label <= len(pieces):
        raise IllegalMoveError(f"label {label} absent")
    u, v = pieces[label - 1]
    if kept == v:
        abandoned = u
    elif kept == u:
        abandoned = v
    else:
        raise IllegalMoveError(f"vertex {kept} not an endpoint of piece {label}")
    if dest != gap:
        raise IllegalMoveError(f"destination {dest} is not the exposed vertex")
    landing = (kept, gap) if kept < gap else (gap, kept)
    if landing not in edges:
        raise IllegalMoveError(f"({kept},{gap}) is not an edge")
    return abandoned, landing


def slide(p: Placement, move: SlideMove) -> Placement:
    """The checked reference slide: a new placement, or IllegalMoveError."""
    label, kept, dest = move
    abandoned, landing = _check_slide(p.pieces, p.exposed, p.graph.edges,
                                      label, kept, dest)
    new_pieces = list(p.pieces)
    new_pieces[label - 1] = landing
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


class Board:
    """A placement stepped in place: the pieces by label, `owner` holding
    the label covering each vertex (0 where none does), and the exposed
    vertex `gap`. A slide is fixed by its kept vertex: the piece covering
    it pivots onto the gap. Pieces enter normalised, (min, max), as every
    library-built `Placement` holds them, and `step` stores each moved
    piece the same way. `step` trusts that the kept vertex neighbours the
    gap; `slide` and `verify_sequence` check every move, by the one
    routine `_check_slide`."""

    __slots__ = ("graph", "pieces", "owner", "gap")

    def __init__(self, p: Placement):
        self.graph = p.graph
        self.pieces = list(p.pieces)
        self.owner = array("H", bytes(2 * (p.graph.num_vertices + 1)))
        for label, (u, v) in enumerate(p.pieces, 1):
            self.owner[u] = self.owner[v] = label
        self.gap = p.exposed

    def step(self, kept: int) -> int:
        """Slide the piece covering `kept` onto the gap and return its
        label; raises PlacementError if no piece covers `kept`."""
        owner, gap = self.owner, self.gap
        label = owner[kept]
        if not label:
            raise PlacementError(f"vertex {kept} is not covered")
        a, b = self.pieces[label - 1]
        far = b if kept == a else a
        self.pieces[label - 1] = (kept, gap) if kept < gap else (gap, kept)
        owner[gap], owner[far] = label, 0
        self.gap = far
        return label

    def placement(self) -> Placement:
        return Placement(self.graph, tuple(self.pieces), self.gap)

    def is_aligned(self, cycle: Sequence[int]) -> bool:
        """True iff cycle is an odd cycle of the host through the gap whose
        forced dominoes are pieces. Only the gap is uncovered, so the two
        ends of a domino share an owner exactly when one piece covers
        both."""
        cycle = tuple(cycle)
        if len(cycle) % 2 == 0 or self.gap not in cycle:
            return False
        edges = self.graph.edges
        if not all(((a, b) if a < b else (b, a)) in edges
                   for a, b in zip(cycle, cycle[1:] + cycle[:1])):
            return False
        owner = self.owner
        return all(owner[a] == owner[b] for a, b in forced_cycle_dominoes(cycle, self.gap))


def forced_cycle_dominoes(cycle: Sequence[int], gap: int) -> List[Edge]:
    """Dominoes of the unique tiling of an odd cycle with the given gap,
    listed in cycle order starting after the gap."""
    i = cycle.index(gap)
    after = cycle[i + 1:] + cycle[:i]
    return [(a, b) if a < b else (b, a) for a, b in zip(after[::2], after[1::2])]


def replay(p: Placement, kept_vertices: Iterable[int]) -> SlideSequence:
    """The slides from p that keep `kept_vertices` in turn, labels read off
    the board; raises PlacementError at a kept vertex no piece covers."""
    board = Board(p)
    moves = []
    for kept in kept_vertices:
        gap = board.gap
        moves.append(SlideMove(board.step(kept), kept, gap))
    return SlideSequence(p, tuple(moves), board.placement())


def rotate(p: Placement, cycle: Tuple[int, ...], exposed: Optional[int] = None,
           pieces: Iterable[Tuple[int, Edge]] = ()) -> SlideSequence:
    """Shortest rotation along the aligned odd `cycle` that exposes
    `exposed`, if given, and lands each (label, edge) of `pieces` on its
    edge, in closed form.

    Let the cycle have n = 2k+1 vertices, ring[0] the gap, and L the
    labels on the k dominoes after it. An aligned state has exactly two
    on-cycle slides: keeping ring[1] moves the gap two places forwards
    and turns L left by one; keeping ring[-1] undoes that. So state u
    (u slides forwards, or -u backwards, u mod n*k) has the gap at
    ring[2u] and L turned left by u, and as n and k are coprime the
    states reachable along the cycle form one cycle of n*k states. Each
    goal is a congruence on u. The gap at ring[e] needs u = e(k+1)
    mod n, as k+1 halves mod n. The label at L[a] on the edge (ring[j],
    ring[j+1]) needs, for one of the k positions i it can hold,
    u = a - i mod k and 2u = j - 1 - 2i mod n: one u mod n*k each.
    The shorter walk to a state meeting every goal wins, ties going to
    the direction whose first slide comes first in `legal_moves` order:
    these are the moves a breadth-first search over `legal_moves`,
    restricted to the cycle's edges, finds first.
    Only the winner's moves are built, the kept vertices sliced from the
    ring and the labels cycled from L, in O(n + moves), and its end
    placement from the forced dominoes at its gap. A label off the cycle
    never moves, so its edge must be the one it holds. Raises
    PlacementError if p is not aligned with the cycle, or if no state
    along it meets every goal.
    """
    board = Board(p)
    if not board.is_aligned(cycle):
        raise PlacementError("placement is not aligned with the rotation cycle")
    n, k = len(cycle), len(cycle) // 2
    g = cycle.index(p.exposed)
    ring = cycle[g:] + cycle[:g]               # from the gap, forwards
    labels = [board.owner[v] for v in ring[1::2]]
    index = {v: i for i, v in enumerate(ring)}
    slot = {lab: i for i, lab in enumerate(labels)}
    # goals as (label position, index j of the edge's first vertex from
    # the gap); the gap goal, first if given, is position None with j its index
    goals = []
    if exposed is not None:
        if exposed not in index:
            raise PlacementError("rotation target unreachable along the cycle")
        goals.append((None, index[exposed]))
    for label, e in pieces:
        e = edge_key(*e)
        if label not in slot:                  # off the cycle: never moves
            if not 1 <= label <= p.n or p.pieces[label - 1] != e:
                raise PlacementError("rotation target unreachable along the cycle")
            continue
        ia, ib = index.get(e[0]), index.get(e[1])
        if ia is None or ib is None or (ia - ib) % n not in (1, n - 1):
            raise PlacementError("rotation target unreachable along the cycle")
        goals.append((slot[label], ia if (ib - ia) % n == 1 else ib))
    if not goals:
        return SlideSequence(p, ())
    half = k + 1                               # the inverse of 2 mod n
    at, j = goals[0]
    if at is None:
        us = [j * half % n + n * r for r in range(k)]
    else:
        us = []
        for i in range(k):                     # u = r mod n and u = at - i mod k;
            r = (j - 1 - 2 * i) * half % n     # n = 1 mod k, so u = r + n*m
            us.append(r + n * ((at - i - r) % k))
    for at, j in goals[1:]:                    # the label sits at L[(at - u) mod k]
        us = [u for u in us if (2 * u + 1 + 2 * ((at - u) % k) - j) % n == 0]
    if not us:
        raise PlacementError("rotation target unreachable along the cycle")
    if 0 in us:
        return SlideSequence(p, ())
    fwd, bwd = min(us), n * k - max(us)
    # the lead direction: its first slide comes first in legal_moves order
    forward_leads = (labels[0], ring[1]) < (labels[-1], ring[-1])
    if fwd < bwd or (fwd == bwd and forward_leads):
        u, t, walk, order = fwd, fwd, ring, labels
    else:
        u, t, walk, order = n * k - bwd, bwd, ring[:1] + ring[:0:-1], labels[::-1]
    # step s keeps walk[2s+1] with the gap at walk[2s] (indices mod n),
    # and moves order[s mod k]
    twice = walk + walk
    laps = t // n + 1
    # tuple.__new__ builds each SlideMove as `SlideMove._make` does, without
    # a Python-level call per move
    moves = tuple(map(tuple.__new__, repeat(SlideMove),
                      zip((order * (t // k + 1))[:t], (twice[1::2] * laps)[:t],
                          (twice[0::2] * laps)[:t])))
    # the end: gap at ring[2u], L turned left by u on the dominoes after it
    gap, turn = ring[2 * u % n], u % k
    end = list(p.pieces)
    for label, e in zip(labels[turn:] + labels[:turn], forced_cycle_dominoes(ring, gap)):
        end[label - 1] = e
    return SlideSequence(p, moves, Placement(p.graph, tuple(end), gap))


def expose(p: Placement, v: int, m: Matching) -> SlideSequence:
    """Slide pieces along an alternating path until v is exposed.

    `m` is a nearly perfect matching exposing v, of the host or of the
    subgraph to stay in, which must hold p's exposed vertex. The path is
    the component of M_p Δ m at p's exposed vertex, and every slide lands
    its piece on an m-edge; the move count is half the path length, at
    most n.
    """
    if m.covers(v) or (p.exposed != v and not m.covers(p.exposed)):
        raise PlacementError("the matching does not expose v, or p's exposed "
                             "vertex lies outside its subgraph")
    path = alternating_path_to(p.matching, m, p.exposed, v)
    return replay(p, path[1::2])


def invert_sequence(seq: SlideSequence) -> SlideSequence:
    """The reverse reconfiguration: a slide is undone by keeping the same
    vertex, so the inverse keeps the kept vertices in reverse order."""
    return replay(seq.end, [mv.kept_vertex for mv in reversed(seq.moves)])


def cut_loops(seq: SlideSequence) -> SlideSequence:
    """The plan with every revisited state cut out: from the start, jump to
    the last visit of each state before taking its next move.

    The result has the same start and end, visits no state twice, and its
    moves are an in-order subsequence of `seq.moves`. One replay on a
    `Board` keys each state by the bytes of its vertex -> label map, two
    writes per slide, so the cut is linear in the plan. The moves are
    assumed legal; `verify_sequence` checks them, as both planners do on
    the cut plan.
    """
    moves, start = seq.moves, seq.start
    board = Board(start)
    pieces, owner, gap = board.pieces, board.owner, board.gap
    keys = [owner.tobytes()]
    for _, kept, _ in moves:                   # `Board.step`, inlined
        label = owner[kept]
        if not label:
            raise PlacementError(f"vertex {kept} is not covered")
        a, b = pieces[label - 1]
        far = b if kept == a else a
        pieces[label - 1] = (kept, gap) if kept < gap else (gap, kept)
        owner[gap], owner[far] = label, 0
        gap = far
        keys.append(owner.tobytes())
    board.gap = gap
    last = {key: i for i, key in enumerate(keys)}
    kept_moves = []
    i = last[keys[0]]
    while i < len(moves):
        kept_moves.append(moves[i])
        i = last[keys[i + 1]]
    if len(kept_moves) == len(moves):
        return seq
    return SlideSequence(start, tuple(kept_moves), board.placement())


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
    """Replay `seq` from its start with `slide`'s checks on every move,
    stepping one list of pieces and the gap in place; the first illegal
    move ends the replay with its index and message. The end placement is
    built once and compared with `expected_end` when one is given."""
    start = seq.start
    pieces, gap, edges = list(start.pieces), start.exposed, start.graph.edges
    for i, (label, kept, dest) in enumerate(seq.moves):
        try:
            gap, pieces[label - 1] = _check_slide(pieces, gap, edges, label, kept, dest)
        except IllegalMoveError as exc:
            return VerifyReport(False, i, None, first_bad_index=i, message=str(exc))
    cur = Placement(start.graph, tuple(pieces), gap)
    matches = None
    if expected_end is not None:
        matches = (cur.pieces == expected_end.pieces
                   and cur.exposed == expected_end.exposed)
    ok = matches is not False
    return VerifyReport(ok, len(seq.moves), cur, matches_expected=matches,
                        message="" if ok else "final placement differs from expected")
