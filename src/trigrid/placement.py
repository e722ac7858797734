"""Labeled placements, the slide move and its checks (`slide`,
`verify_sequence`), the in-place slide kernel (`Board`, `replay`),
rotation along odd cycles, and vertex exposure."""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Collection, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

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
    it pivots onto the gap. `step` trusts that the kept vertex neighbours
    the gap; `slide` and `verify_sequence` check every move, by the one
    routine `_check_slide`."""

    __slots__ = ("graph", "pieces", "owner", "gap")

    def __init__(self, p: Placement):
        self.graph = p.graph
        self.pieces = list(p.pieces)            # unordered ends until `placement`
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
        self.pieces[label - 1] = (kept, gap)
        owner[gap], owner[far] = label, 0
        self.gap = far
        return label

    def placement(self) -> Placement:
        return Placement(self.graph, tuple(edge_key(a, b) for a, b in self.pieces),
                         self.gap)

    def is_aligned(self, cycle: Sequence[int]) -> bool:
        """True iff cycle is an odd cycle of the host through the gap whose
        vertices after the gap pair off, in order, into pieces. Only the
        gap is uncovered, so two vertices of the pairs share an owner
        exactly when one piece covers both."""
        cycle = tuple(cycle)
        if len(cycle) % 2 == 0 or self.gap not in cycle:
            return False
        has_edge = self.graph.has_edge
        if not all(has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])):
            return False
        i = cycle.index(self.gap)
        after, owner = cycle[i + 1:] + cycle[:i], self.owner
        return all(owner[a] == owner[b]
                   for a, b in zip(after[::2], after[1::2]))


def replay(p: Placement, kept_vertices: Iterable[int]) -> SlideSequence:
    """The slides from p that keep `kept_vertices` in turn, labels read off
    the board; raises PlacementError at a kept vertex no piece covers."""
    board = Board(p)
    moves = []
    for kept in kept_vertices:
        gap = board.gap
        moves.append(SlideMove(board.step(kept), kept, gap))
    return SlideSequence(p, tuple(moves), board.placement())


def is_aligned(p: Placement, cycle: Sequence[int]) -> bool:
    """True iff cycle is an odd M_p-alternating cycle containing v_p."""
    return Board(p).is_aligned(cycle)


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
    expanded, so pieces off `edges` never move. Each state carries a
    vertex -> label map of the pieces on `edges`; its slides are read from
    the neighbours of the exposed vertex across `edges`, in `legal_moves`
    order (by label, then kept vertex), so the first goal state found is
    the one a search over `legal_moves` and `slide` returns.
    """
    if goal(p):
        return SlideSequence(p, ())
    g = p.graph
    nbrs: Dict[int, List[int]] = {}
    for a, b in edges:
        if g.has_edge(a, b):
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
    owner = {v: label for label, e in enumerate(p.pieces, 1) if e in edges
             for v in e}
    seen = {p.pieces}
    frontier: deque = deque([(p.pieces, p.exposed, owner, ())])
    while frontier:
        pieces, gap, owner, moves = frontier.popleft()
        for label, kept in sorted((owner[w], w) for w in nbrs.get(gap, ())
                                  if w in owner):
            a, b = pieces[label - 1]
            far = b if kept == a else a
            nxt = pieces[:label - 1] + (edge_key(kept, gap),) + pieces[label:]
            if nxt in seen:
                continue
            seen.add(nxt)
            path = moves + (SlideMove(label, kept, gap),)
            state = Placement(g, nxt, far)
            if goal(state):
                return SlideSequence(p, path, state)
            nowner = dict(owner)
            nowner[gap] = label
            del nowner[far]
            frontier.append((nxt, far, nowner, path))
    return None


def rotate(p: Placement, spec: RotationSpec) -> SlideSequence:
    """Shortest rotation along the aligned cycle reaching the target.

    Every state aligned with the cycle has exactly two on-cycle slides, one
    moving the gap two positions each way, so the states reachable along
    the cycle form one cycle of at most (2k'+1)k' states for cycle length
    2k'+1. The two directions are walked in lockstep, the one whose first
    slide comes first in `legal_moves` order leading. This returns the
    moves of `shortest_slides_within` on the cycle edges, ties included,
    in O(n + moves). Raises PlacementError if p is not aligned with the
    cycle, or if the walks meet before reaching the target.
    """
    cyc = spec.cycle
    start = Board(p)
    if not start.is_aligned(cyc):
        raise PlacementError("placement is not aligned with the rotation cycle")
    want = [(label, edge_key(*e)) for label, e in spec.target_pieces or ()]

    def done(b: Board) -> bool:
        owner = b.owner
        return ((spec.target_exposed is None or b.gap == spec.target_exposed)
                and all(owner[u] == owner[v] == label for label, (u, v) in want))

    if done(start):
        return SlideSequence(p, ())
    n = len(cyc)
    # per direction: the gap -> the kept vertex of its next slide
    aheads = [{cyc[i]: cyc[(i + step) % n] for i in range(n)} for step in (1, -1)]
    aheads.sort(key=lambda ahead: (start.owner[ahead[p.exposed]], ahead[p.exposed]))
    # each walk logs (label, kept, gap) per slide; only the winner's
    # become SlideMoves
    lead, trail = [(board, ahead, []) for board, ahead in zip((start, Board(p)), aheads)]
    while True:
        for (board, ahead, log), other in ((lead, trail[0]), (trail, lead[0])):
            gap = board.gap
            kept = ahead[gap]
            log.append((board.step(kept), kept, gap))
            if board.gap == other.gap and board.owner == other.owner:
                raise PlacementError("rotation target unreachable along the cycle")
            if done(board):
                return SlideSequence(p, tuple(SlideMove(*s) for s in log),
                                     board.placement())


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
    step, owner = board.step, board.owner
    keys = [owner.tobytes()]
    for mv in moves:
        step(mv.kept_vertex)
        keys.append(owner.tobytes())
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
