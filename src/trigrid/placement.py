"""Labeled placements and plans. A `Placement`'s cover map answers which
label covers a vertex or lies on an edge, and so whether it is aligned
with an odd cycle. A slide is fixed by its kept vertex, whose piece
pivots onto the gap, so a plan is a `SlideSequence`: a start, a word of
kept vertices and an end, which each builder writes down unstepped.
`cut_loops` cuts a plan once and labels the slides it keeps as plain
`(label, kept, dest)` triples; `verify_sequence` checks them as `slide`,
the checked reference, checks a `SlideMove`. Also an odd cycle's forced
dominoes, alignment with it, the one reading of its labels
(`Placement.ring`), rotation along it and vertex exposure, the last two
in closed form. Nothing here searches over slides; neither planner does."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Collection, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .grid import Edge, TriGridGraph, edge_key
from .matching import Matching, MatchingError, alternating_path_to

Move = Tuple[int, int, int]    # a plan's (label, kept, dest); a SlideMove is one


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
        covered: Set[int] = set()
        if len(norm) == graph.n:               # else `covering` names the count
            for e in norm:
                if e not in graph.edges:
                    raise PlacementError(f"piece edge {e} not in graph")
                if e[0] in covered or e[1] in covered:
                    raise PlacementError("pieces overlap")
                covered |= set(e)
        return Placement.covering(graph, norm)

    @staticmethod
    def covering(graph: TriGridGraph, pieces: Tuple[Edge, ...]) -> "Placement":
        """A placement of checked disjoint host edges; PlacementError unless there are n."""
        if len(pieces) != graph.n:
            raise PlacementError(f"expected {graph.n} pieces, got {len(pieces)}")
        (exposed,) = set(graph.vertex_ids).difference(*pieces)
        return Placement(graph, pieces, exposed)

    @property
    def n(self) -> int:
        return len(self.pieces)

    def piece(self, label: int) -> Edge:
        return self.pieces[label - 1]

    @cached_property
    def owner(self) -> array:
        """The cover map: the label covering each vertex, 0 at the gap.
        Only the gap is uncovered, so an edge holds a piece exactly when
        its two ends share a nonzero owner."""
        owner = array("H", bytes(2 * (self.graph.num_vertices + 1)))
        for label, (u, v) in enumerate(self.pieces, 1):
            owner[u] = owner[v] = label
        return owner

    def label_at(self, e: Edge) -> Optional[int]:
        """The label on edge e, or None if no piece lies on it."""
        a, b = e
        label = self.owner[a]
        return label if label and label == self.owner[b] else None

    def __contains__(self, e: Edge) -> bool:
        """True iff a piece lies on edge e."""
        return self.label_at(e) is not None

    def partner(self, v: int) -> Optional[int]:
        """The other end of the piece covering v, or None at the gap: the
        partner of v in the matching M_p, read off the cover map."""
        label = self.owner[v]
        if not label:
            return None
        a, b = self.pieces[label - 1]
        return b if v == a else a

    def is_aligned(self, cycle: Sequence[int]) -> bool:
        """True iff cycle is an odd cycle of the host through the gap whose
        forced dominoes are pieces (`_aligned_ring`)."""
        return self._aligned_ring(tuple(cycle)) is not None

    def ring(self, cycle: Sequence[int]) -> Tuple[Tuple[int, ...], List[int]]:
        """The odd `cycle` listed from the gap, and the labels on its forced
        dominoes (ring[1], ring[2]), (ring[3], ring[4]), ... in order; raises
        PlacementError unless p is aligned with it (`_aligned_ring`)."""
        ring = self._aligned_ring(tuple(cycle))
        if ring is None:
            raise PlacementError("placement is not aligned with the cycle")
        owner = self.owner
        return ring, [owner[v] for v in ring[1::2]]

    def _aligned_ring(self, cycle: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        """The cycle listed from the gap, if it is an odd cycle of the host
        through the gap whose forced dominoes are pieces, else None. The
        ring is read once: its forced dominoes are (ring[1], ring[2]),
        (ring[3], ring[4]), ..., none holds the gap, so each is a piece
        exactly when the owners of its two ends agree, and the two owner
        lists, of the odd and the even places, are compared whole."""
        edges = self.graph.edges
        if (len(cycle) % 2 == 0 or self.exposed not in cycle
                or not all(((a, b) if a < b else (b, a)) in edges
                           for a, b in zip(cycle, cycle[1:] + cycle[:1]))):
            return None
        g = cycle.index(self.exposed)
        ring = cycle[g:] + cycle[:g]
        owner = self.owner
        return ring if [owner[v] for v in ring[1::2]] == [owner[v] for v in ring[2::2]] else None


class SlideMove(NamedTuple):
    label: int
    kept_vertex: int
    dest_vertex: int


@dataclass(frozen=True)
class SlideSequence:
    """A plan as a word: from `start`, the slides that keep the vertices of
    `kept` in turn, ending at `end`. The states fix each slide's label and
    destination, so the word does not carry them. Builders pass the end
    placement they hold as `_end`; only an empty word may leave it out.
    `end` is a property because the benchmark's trace wraps it."""

    start: Placement
    kept: Tuple[int, ...] = ()
    _end: Optional[Placement] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self._end is None:
            assert not self.kept, "a non-empty word needs its end placement"
            object.__setattr__(self, "_end", self.start)

    def __len__(self) -> int:
        return len(self.kept)

    @property
    def end(self) -> Placement:
        return self._end

    def then(self, other: "SlideSequence") -> "SlideSequence":
        assert other.start.pieces == self.end.pieces
        return SlideSequence(self.start, self.kept + other.kept, other.end)


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


def slide(p: Placement, move: Move) -> Placement:
    """The checked reference slide: a new placement, or IllegalMoveError."""
    label, kept, dest = move
    abandoned, landing = _check_slide(p.pieces, p.exposed, p.graph.edges,
                                      label, kept, dest)
    new_pieces = list(p.pieces)
    new_pieces[label - 1] = landing
    return Placement(p.graph, tuple(new_pieces), abandoned)


def legal_moves(p: Placement) -> List[SlideMove]:
    """Every slide from p: each neighbour of the gap, the one uncovered vertex, holds a piece."""
    owner, gap = p.owner, p.exposed
    return sorted(SlideMove(owner[w], w, gap) for w in p.graph.adj[gap])


def forced_cycle_dominoes(cycle: Sequence[int], gap: int) -> List[Edge]:
    """Dominoes of the unique tiling of an odd cycle with the given gap,
    listed in cycle order starting after the gap."""
    i = cycle.index(gap)
    after = cycle[i + 1:] + cycle[:i]
    return [(a, b) if a < b else (b, a) for a, b in zip(after[::2], after[1::2])]


def gap_state(e: int, n: int) -> int:
    """The state mod n that puts the gap at ring[e], on a ring of n = 2k + 1
    vertices listed from the gap at state 0: u = e/2 = e(k + 1) mod n."""
    return e * (n // 2 + 1) % n


def ring_target(state: int, p: int, i: int, k: int) -> int:
    """The state, 0 <= t < n*k on a ring of n = 2k + 1 vertices, that
    puts the gap where `state` mod n does and L[p] on domino i after it:
    t = state mod n, and t = p - i mod k as domino i holds L[(i + t) % k].
    As n = 1 mod k, t = state + n*m with m = p - i - state mod k."""
    return state + (2 * k + 1) * ((p - i - state) % k)


def walk_word(ring: Tuple[int, ...], t: int) -> Tuple[int, ...]:
    """The kept vertices of |t| slides along the aligned odd cycle `ring`,
    listed from the gap, forwards for t > 0 and backwards for t < 0: step
    s keeps walk[2s+1], indices mod n, of the ring walked that way."""
    walk = ring if t >= 0 else ring[:1] + ring[:0:-1]
    t = abs(t)
    return ((walk + walk)[1::2] * (t // len(ring) + 1))[:t]


def shorter_walk(ring: Tuple[int, ...], labels: Sequence[int],
                 us: Collection[int]) -> Tuple[int, Tuple[int, ...]]:
    """`rotate`'s choice of direction and its word. `ring` is an aligned
    odd cycle of n = 2k+1 vertices listed from the gap, `labels` the labels
    on its dominoes after the gap, and `us` the states, 0 <= u < n*k, that
    meet every goal. Returns the state the shorter walk reaches and its
    kept vertices (`walk_word`). Walking forwards to u takes u slides and
    backwards n*k - u; ties go to the direction whose first slide comes
    first in `legal_moves` order, (label, kept vertex), as a breadth-first
    search over `legal_moves` would find it."""
    n, k = len(ring), len(ring) // 2
    fwd, bwd = min(us), n * k - max(us)
    if fwd < bwd or (fwd == bwd and (labels[0], ring[1]) < (labels[-1], ring[-1])):
        return fwd, walk_word(ring, fwd)
    return n * k - bwd, walk_word(ring, -bwd)


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
    mod n, as k+1 halves mod n (`gap_state`). The label at L[a] on the
    edge (ring[j], ring[j+1]) needs, for one of the k positions i it can
    hold, u = a - i mod k and 2u = j - 1 - 2i mod n: one u mod n*k each
    (`ring_target`).
    The shorter walk to a state meeting every goal wins, ties going to
    the direction whose first slide comes first in `legal_moves` order
    (`shorter_walk`): these are the moves a breadth-first search over
    `legal_moves`, restricted to the cycle's edges, finds first.
    Only the winner's word is built, its kept vertices sliced from the
    ring, in O(n + moves), and its end placement from the forced dominoes
    at its gap. A label off the cycle never moves, so its edge must be the
    one it holds. Raises PlacementError if p is not aligned with the
    cycle, or if no state along it meets every goal.
    """
    ring, labels = p.ring(cycle)               # from the gap, forwards
    n, k = len(ring), len(labels)
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
    at, j = goals[0]
    if at is None:
        us = [gap_state(j, n) + n * m for m in range(k)]
    else:                                      # the gap at ring[j - 1 - 2i]
        us = [ring_target(gap_state(j - 1 - 2 * i, n), at, i, k) for i in range(k)]
    for at, j in goals[1:]:                    # the label sits at L[(at - u) mod k]
        us = [u for u in us if (2 * u + 1 + 2 * ((at - u) % k) - j) % n == 0]
    if not us:
        raise PlacementError("rotation target unreachable along the cycle")
    if 0 in us:
        return SlideSequence(p, ())
    u, kept = shorter_walk(ring, labels, us)
    # the end: gap at ring[2u], L turned left by u on the dominoes after it
    gap, turn = ring[2 * u % n], u % k
    end = list(p.pieces)
    for label, e in zip(labels[turn:] + labels[:turn], forced_cycle_dominoes(ring, gap)):
        end[label - 1] = e
    return SlideSequence(p, kept, Placement(p.graph, tuple(end), gap))


def expose(p: Placement, v: int, m: Matching) -> SlideSequence:
    """Slide pieces along an alternating path until v is exposed.

    `m` is a nearly perfect matching exposing v, of the host or of the
    subgraph to stay in, which must hold p's exposed vertex. The path is
    the component of M_p Δ m at p's exposed vertex, walked on p's cover
    map (`Placement.partner`) and m's partner map, and every slide lands
    its piece on an m-edge; the move count is half the path length, at
    most n. Each piece on the path x0 ... x2m moves once, so the end is
    written down, not stepped: the label covering x_t, t odd, lands on
    (x_{t-1}, x_t) and the gap on x2m. Raises PlacementError at a kept
    vertex no piece covers, and where p's pieces leave m's subgraph, so
    that the path stops short of v.
    """
    if m.covers(v) or (p.exposed != v and not m.covers(p.exposed)):
        raise PlacementError("the matching does not expose v, or p's exposed "
                             "vertex lies outside its subgraph")
    try:
        path = alternating_path_to(p, m, p.exposed, v)
    except MatchingError as exc:
        raise PlacementError(f"p's pieces leave the matching's subgraph: {exc}") from exc
    pieces, owner, gap = list(p.pieces), p.owner[:], path[-1]
    for prev, kept in zip(path[::2], path[1::2]):
        label = owner[kept]
        if not label:
            raise PlacementError(f"vertex {kept} is not covered")
        pieces[label - 1] = (prev, kept) if prev < kept else (kept, prev)
        owner[prev] = label
    owner[gap] = 0
    end = Placement(p.graph, tuple(pieces), gap)
    end.__dict__["owner"] = owner              # the rewritten map is the end's cover map
    return SlideSequence(p, tuple(path[1::2]), end)


def align_with_cycle(p: Placement, cycle: Tuple[int, ...],
                     chords: Iterable[Edge]) -> SlideSequence:
    """Move every piece of p off the `chords`, edges between two vertices
    of the odd `cycle`, so that p is aligned with the cycle
    (`Placement.is_aligned`). p's gap must lie on the cycle, and each piece
    touching it on a cycle edge or a chord.

    The chords are walked sorted, last to first. A chord that holds a
    piece has its first endpoint exposed through the cycle's forced
    dominoes there, the one nearly perfect matching of the odd cycle that
    exposes it. Every slide lands on one of them, a cycle edge, so an
    emptied chord stays empty: each chord costs at most one `expose`, and
    one that holds no piece costs none.
    """
    seq = SlideSequence(p, ())
    for e in sorted(chords, reverse=True):
        if e in seq.end:
            dominoes = Matching(frozenset(forced_cycle_dominoes(cycle, e[0])))
            seq = seq.then(expose(seq.end, e[0], dominoes))
    assert seq.end.is_aligned(cycle), "alignment postcondition failed"
    return seq


def invert_sequence(seq: SlideSequence) -> SlideSequence:
    """The reverse reconfiguration, from `seq.end` back to `seq.start`: a
    slide is undone by keeping the same vertex, so the inverse is the word
    reversed."""
    return SlideSequence(seq.end, seq.kept[::-1], seq.start)


def cut_loops(seq: SlideSequence) -> Tuple[Move, ...]:
    """The moves of `seq` with every revisited state cut out: from the
    start, jump to the last visit of each state before taking its next
    slide.

    The cut plan has the same start and end, visits no state twice, and
    its slides are an in-order subsequence of `seq`'s. One replay steps
    a copy of the start's cover map, partners and gap in place (a piece's
    far end is the kept vertex's partner), keys each state by the bytes
    of its cover map, and reads each slide's label and gap, so the cut is
    linear in the plan. It marks the slides it keeps and returns them as
    plain `(label, kept, dest)` triples. `plans.finish_plan` cuts each
    full plan once and checks the moves with `verify_sequence`. Raises
    PlacementError at a kept vertex no piece covers.
    """
    word, start = seq.kept, seq.start
    owner, gap = start.owner[:], start.exposed
    mate = [start.partner(v) for v in range(len(owner))]
    keys, labels, gaps = [owner.tobytes()], [], []
    for kept in word:                          # the piece on kept pivots onto the gap
        label = owner[kept]
        if not label:
            raise PlacementError(f"vertex {kept} is not covered")
        labels.append(label)
        gaps.append(gap)
        far = mate[kept]
        mate[kept], mate[gap] = gap, kept
        owner[gap], owner[far] = label, 0
        gap = far
        keys.append(owner.tobytes())
    last = dict(zip(keys, range(len(keys))))
    keep = bytearray(len(word))
    i = last[keys[0]]
    while i < len(word):
        keep[i] = 1
        i = last[keys[i + 1]]
    return tuple(compress(zip(labels, word, gaps), keep))


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    move_count: int
    final: Optional[Placement]
    first_bad_index: Optional[int] = None
    message: str = ""
    matches_expected: Optional[bool] = None


def verify_sequence(start: Placement, moves: Sequence[Move],
                    expected_end: Optional[Placement] = None) -> VerifyReport:
    """Replay `moves` from `start` with `slide`'s checks on every move,
    stepping one list of pieces and the gap in place; the first illegal
    move ends the replay with its index and `_check_slide`'s message. The
    four checks run inline, with no call per move; a move they refuse is
    passed to `_check_slide` for its message. The end placement is built
    once and compared with `expected_end` when one is given."""
    pieces, gap, edges = list(start.pieces), start.exposed, start.graph.edges
    n = len(pieces)
    for i, (label, kept, dest) in enumerate(moves):
        if 1 <= label <= n and dest == gap:
            u, v = pieces[label - 1]
            if kept == v or kept == u:
                landing = (kept, gap) if kept < gap else (gap, kept)
                if landing in edges:
                    pieces[label - 1] = landing
                    gap = u if kept == v else v
                    continue
        try:
            _check_slide(pieces, gap, edges, label, kept, dest)
        except IllegalMoveError as exc:
            return VerifyReport(False, i, None, first_bad_index=i, message=str(exc))
        raise AssertionError("the inline checks refused a move _check_slide passes")
    cur = Placement(start.graph, tuple(pieces), gap)
    matches = None
    if expected_end is not None:
        matches = (cur.pieces == expected_end.pieces
                   and cur.exposed == expected_end.exposed)
    ok = matches is not False
    return VerifyReport(ok, len(moves), cur, matches_expected=matches,
                        message="" if ok else "final placement differs from expected")
