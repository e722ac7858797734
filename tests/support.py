"""Reference helpers that only tests call: the reference replay of moves
and of a word of kept vertices through the checked `slide` (`replay`
steps a word for its end, `label_word` reads its moves), the last-visit
loop cut that `cut_loops` is checked against, a spy on a library
function under every name the library holds it by, canonical
aligned states on a cycle, the matching-based reference of the alignment
check, the restricted slide search over `legal_moves` and `slide` that `rotate`,
the swap gadget and the pentagon core's plans are checked against, the
placement a state of the cycle sort stands for and the swap gadget
built by a slide and two rotations on a placement, which `hc_planner`'s
closed-form words are checked against, the definition of
factor-criticality by one matching per vertex, the
Hamilton search over sets that the bit-mask search in `hamilton` is
checked against and its connectivity test, the enumeration of every
Hamilton cycle on the bit-mask search, the centrality test, the odd alternating
cycle search and the diamond core found with it, the reference for the
alternating walk in `ears`, an ear decomposition grown from a matching,
random polyhex and abstract hosts, the neighbourhood search that defines
local connectivity, the scan over every diamond labeling that defines the
parity diamond, the orientation of one parity diamond, and a host whose
only parity labeling has crossing arcs.
No planner uses them, so they live with the tests.
"""

import sys
from collections import deque
from itertools import compress
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from trigrid.ears import EarDecomposition, EarError, grow_ears, validate_decomposition
from trigrid.grid import (DIRS, Edge, TriGridGraph, build_abstract, build_graph, cycle_edges,
                          edge_key, enumerate_diamonds)
from trigrid.hamilton import (HamiltonCycle, HamiltonError, ParityDiamond, _hamilton_search,
                              _normalize, validate_cycle)
from trigrid.matching import Matching, MatchingError, near_perfect_matching, perfect_matching
from trigrid.placement import (Move, Placement, PlacementError, SlideMove, SlideSequence,
                               VerifyReport, forced_cycle_dominoes, legal_moves, rotate,
                               slide, verify_sequence)


# the 9-vertex host whose Hamilton cycle (1, 7, 5, 6, 3, 2, 4, 8, 9) has one
# parity labeling, a=2, b=4, c=5, d=7, and its p1 (7, 5, 6, 3, 2) passes c
CROSSING_ARCS_EDGES = [(1, 3), (1, 5), (1, 7), (1, 8), (1, 9), (2, 3), (2, 4), (2, 5),
                       (2, 7), (3, 6), (3, 7), (3, 9), (4, 5), (4, 8), (5, 6), (5, 7),
                       (7, 9), (8, 9)]


def apply_sequence(p: Placement, moves: Iterable[SlideMove]) -> Placement:
    """The reference replay: `slide` on each move in turn."""
    for mv in moves:
        p = slide(p, mv)
    return p


def replay(p: Placement, word: Iterable[int]) -> SlideSequence:
    """The word of kept vertices from p, stepped through the checked
    `slide` for its end. Raises IllegalMoveError at a kept vertex that no
    piece covers or that does not neighbour the gap."""
    cur, kept = p, tuple(word)
    for v in kept:
        cur = slide(cur, SlideMove(cur.owner[v], v, cur.exposed))
    return SlideSequence(p, kept, cur)


def label_word(seq: SlideSequence) -> Tuple[SlideMove, ...]:
    """The moves of `seq`'s word: each label and destination read off the
    placement that the checked `slide` has reached. Raises
    IllegalMoveError at a kept vertex that no piece covers or that does
    not neighbour the gap."""
    p, moves = seq.start, []
    for kept in seq.kept:
        mv = SlideMove(p.owner[kept], kept, p.exposed)
        p = slide(p, mv)
        moves.append(mv)
    return tuple(moves)


def verify_word(seq: SlideSequence,
                expected_end: Optional[Placement] = None) -> VerifyReport:
    """`verify_sequence` on the moves `label_word` reads off `seq`, from its
    start, against `expected_end`."""
    return verify_sequence(seq.start, label_word(seq), expected_end)


def reference_cut_loops(seq: SlideSequence) -> Tuple[Move, ...]:
    """The moves of `seq` with every revisited state cut out: from the
    start, jump to the last visit of each state before taking its next
    slide.

    One replay steps a copy of the start's cover map, partners and gap in
    place, keys each state by the bytes of its cover map, and reads each
    slide's label and gap. A dict maps each key to its last visit, and a
    walk from the start marks the slides to keep. Raises PlacementError
    at a kept vertex no piece covers."""
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


def spy_everywhere(monkeypatch, fn: Callable) -> List[tuple]:
    """Wrap the library function `fn` under every name a trigrid module
    holds it by, as `from .placement import fn` copies it; returns the
    list that each call's arguments are appended to."""
    calls: List[tuple] = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("trigrid"):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, spy)
    return calls


def induces_connected(g: TriGridGraph, vertices: Set[int]) -> bool:
    """True iff `vertices`, not empty, induce a connected subgraph of g: a
    depth-first search inside them from one of them reaches them all."""
    first = next(iter(vertices))
    seen, stack = {first}, [first]
    while stack:
        for w in g.adj[stack.pop()]:
            if w in vertices and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def reference_hamilton_search(g: TriGridGraph) -> Iterator[Tuple[int, ...]]:
    """The Hamilton search over sets, the reference for the bit-mask
    search in `hamilton`: backtracking over simple paths from the vertex
    of least (degree, id), each tail's unvisited neighbors tried in that
    order, with the prune that every unvisited vertex keeps two usable
    neighbors (unvisited, the tail or the start) and that the unvisited
    vertices, the tail and the start induce a connected subgraph. Each
    step checks the old tail's unvisited neighbors alone, the first every
    unvisited vertex."""
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
            if (all(usable(x, w) >= 2 for x in at_risk if x not in visited)
                    and induces_connected(g, set(g.vertex_ids) - visited | {w, start})):
                yield from extend()
            path.pop()
            visited.discard(w)

    yield from extend()


def reference_slides_within(p: Placement, edges: Set[Edge],
                            goal: Callable[[Placement], bool]
                            ) -> Optional[Tuple[SlideMove, ...]]:
    """The moves of a shortest slide sequence from p to a state meeting
    `goal` whose pieces and landing edges lie in `edges`, by breadth-first
    search over `legal_moves` and `slide`; None if no such state is
    reachable."""
    if goal(p):
        return ()
    seen = {p.pieces}
    frontier = deque([(p, ())])
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
            if goal(nxt):
                return moves + (mv,)
            frontier.append((nxt, moves + (mv,)))
    return None


def state_placement(g: TriGridGraph, ring: Sequence[int], labels: Sequence[int],
                    u: int = 0) -> Placement:
    """The placement at state u of the cycle sort on the odd cycle
    `ring`, every piece on it: the gap at ring[2u mod n] and label
    labels[(i + u) % k] on the i-th forced domino after the gap."""
    n, k = len(ring), len(labels)
    pieces = [None] * k
    gap = ring[2 * u % n]
    for i, e in enumerate(forced_cycle_dominoes(ring, gap)):
        pieces[labels[(i + u) % k] - 1] = e
    return Placement(g, tuple(pieces), gap)


def reference_gadget(cur: Placement, pd: ParityDiamond) -> SlideSequence:
    """The swap gadget built on a placement, the gap at the diamond's
    corner c: slide the (a, b) piece onto (b, c), `rotate` the p1 + (a, d)
    cycle until the label on p1's last domino, (p1[-3], p1[-2]), sits on
    (d, p1[1]), then `rotate` the p1 + (a, b), (b, c), (c, d) cycle to the
    swapped state."""
    a, b, c, d = pd.a, pd.b, pd.c, pd.d
    assert cur.exposed == c
    v1, v2, v3 = pd.p1[-2], pd.p1[-3], pd.p1[1]
    hi = cur.label_at(edge_key(a, b))
    lo = cur.label_at(edge_key(v1, v2))
    s1 = replay(cur, (b,))
    s2 = rotate(s1.end, pd.p1, a, [(lo, edge_key(d, v3))])
    s3 = rotate(s2.end, pd.p1 + (b, c), c, [(hi, edge_key(v1, v2)), (lo, edge_key(a, b))])
    return s1.then(s2).then(s3)


def factor_critical_by_definition(g: TriGridGraph) -> bool:
    """True iff every vertex is left single by some nearly perfect
    matching: one matching search per vertex."""
    return all(near_perfect_matching(g, v) is not None for v in g.vertex_ids)


def is_alternating_cycle(m: Matching, cycle: Sequence[int]) -> bool:
    """Check cycle edges alternate in m with the exposed vertex as sole defect."""
    k = len(cycle)
    if k % 2 == 0:
        return False
    flags = [edge_key(cycle[i], cycle[(i + 1) % k]) in m.edges for i in range(k)]
    defects = sum(1 for i in range(k) if flags[i] == flags[i - 1] and not flags[i])
    return flags.count(True) == k // 2 and defects == 1


def is_central(g: TriGridGraph, sub: Iterable[int]) -> bool:
    """True iff removing `sub` leaves a graph with a perfect matching."""
    removed = set(sub)
    rest = [v for v in g.vertex_ids if v not in removed]
    if len(rest) % 2 == 1:
        return False
    return perfect_matching(g, skip=removed) is not None


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


def odd_alternating_cycle_through(g: TriGridGraph, m: Matching, exposed: int, e: Edge,
                                  avoid: Iterable[int] = ()) -> Optional[Tuple[int, ...]]:
    """The first odd m-alternating cycle at the exposed vertex that contains
    e and misses `avoid`, or None.

    Depth-first search from `exposed` over sorted neighbours, leaving it by
    a non-matching edge and alternating matching/non-matching edges until
    it returns; the cycle is listed from `exposed` in search direction.
    """
    if m.covers(exposed):
        raise MatchingError(f"vertex {exposed} is covered by the matching")
    e = edge_key(*e)
    avoid = set(avoid)

    def dfs(path: List[int], need_m: bool) -> Optional[Tuple[int, ...]]:
        cur = path[-1]
        for w in sorted(g.adj[cur]):
            if w in avoid or (edge_key(cur, w) in m.edges) != need_m:
                continue
            if w == exposed:
                if any(edge_key(a, b) == e for a, b in zip(path, path[1:] + path[:1])):
                    return tuple(path)
                continue
            if w in path:
                continue
            found = dfs(path + [w], not need_m)
            if found is not None:
                return found
        return None

    for first in sorted(g.adj[exposed]):
        if first not in avoid:
            found = dfs([exposed, first], True)
            if found is not None:
                return found
    return None


def reference_diamond_structure(g: TriGridGraph) -> Optional[Tuple[EarDecomposition, Matching]]:
    """The diamond core by search, the reference for
    `ears._diamond_structure`: for each diamond and outer edge (u, v), in
    its order, and each vertex o outside the opposite pair x, y, a nearly
    perfect matching of G - {x, y} exposing o, plus (x, y), and the first
    odd alternating cycle at o through (u, v) that avoids x and y
    (`odd_alternating_cycle_through`); None if no diamond has one."""
    for s1, s2, t1, t2 in enumerate_diamonds(g):
        ring = [t1, s1, t2, s2]
        for i in range(4):
            u, v = ring[i], ring[(i + 1) % 4]
            x, y = ring[(i + 3) % 4], ring[(i + 2) % 4]
            for o in g.vertex_ids:
                if o in (x, y):
                    continue
                m0 = near_perfect_matching(g, o, within=set(g.vertex_ids) - {x, y})
                if m0 is None:
                    continue
                m = Matching(m0.edges | {edge_key(x, y)})
                cyc = odd_alternating_cycle_through(g, m, o, edge_key(u, v), (x, y))
                if cyc is not None:
                    ears = ((u, x, y, v), edge_key(s1, s2))
                    return EarDecomposition(cyc, ears, kind="diamond_cycle"), m
    return None


def random_polyhex(rng, n: int) -> TriGridGraph:
    """A polyhex host of n points grown from (0, 0): each step adds the
    lattice neighbour of a random point so far in a random direction, so
    the points stay connected and `build_graph` accepts every odd n. A
    sweep dedupes its hosts by `canonical_point_form(g.points)`."""
    pts = {(0, 0)}
    while len(pts) < n:
        x, y = rng.choice(sorted(pts))
        dx, dy = rng.choice(DIRS)
        pts.add((x + dx, y + dy))
    return build_graph(sorted(pts), name=f"polyhex{n}")


def random_abstract(rng, n: int) -> TriGridGraph:
    """A connected abstract host on n vertices, n odd: a random tree and
    up to 2n more edges."""
    edges = {edge_key(v, rng.randrange(1, v)) for v in range(2, n + 1)}
    for _ in range(rng.randrange(2 * n + 1)):
        edges.add(edge_key(*rng.sample(range(1, n + 1), 2)))
    return build_abstract(n, sorted(edges))


def enumerate_hamilton_cycles(g: TriGridGraph) -> Iterator[HamiltonCycle]:
    """All distinct Hamilton cycles (deduplicated up to rotation and
    direction), in the order of `hamilton`'s search."""
    seen: Set[Tuple[int, ...]] = set()
    for order in _hamilton_search(g):
        h = HamiltonCycle(_normalize(g, order))
        key = min(h.order, (h.order[0],) + h.order[1:][::-1])
        if key in seen:
            continue
        seen.add(key)
        validate_cycle(g, h)
        yield h


def ear_decomposition(g: TriGridGraph, m: Matching) -> EarDecomposition:
    """An odd proper ear decomposition aligned with m.

    The base is an odd alternating cycle through the exposed vertex; further
    ears come from alternating paths, so the placement carrying m stays
    aligned in the ear sense.
    """
    (exposed,) = set(g.vertex_ids) - m.covered
    first = min(g.adj[exposed])
    base = odd_alternating_cycle_through(g, m, exposed, edge_key(exposed, first))
    if base is None:
        raise EarError(f"no odd alternating cycle through ({exposed}, {first})")
    ears = grow_ears(g, m, set(base), cycle_edges(base))
    d = EarDecomposition(tuple(base), tuple(ears))
    validate_decomposition(g, d)
    return d


def neighbourhoods_connected(g: TriGridGraph) -> bool:
    """The definition of local connectivity: a depth-first search over the
    subgraph each vertex's neighbours induce reaches all of them."""
    for v in g.vertex_ids:
        nbrs = set(g.adj[v])
        seen = set()
        stack = list(nbrs)[:1]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(w for w in g.adj[u] if w in nbrs)
        if seen != nbrs:
            return False
    return True


def arc(order: Sequence[int], frm: int, to: int, avoid: int) -> Tuple[int, ...]:
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


def parity_labelings(h: HamiltonCycle,
                     diamond: Tuple[int, int, int, int]) -> List[ParityDiamond]:
    """All labelings of the diamond satisfying the parity conditions."""
    s1, s2, t1, t2 = diamond
    out = []
    for a, c in ((s1, s2), (s2, s1)):
        for b, d in ((t1, t2), (t2, t1)):
            he = h.edges
            if edge_key(a, b) not in he or edge_key(a, c) in he:
                continue
            p1 = arc(h.order, d, a, avoid=b)
            p2 = arc(h.order, b, c, avoid=a)
            if ((len(p1) - 1) % 2 != 0 or (len(p2) - 1) % 2 != 1
                    or c in p1 or d in p2):            # arcs that cross
                continue
            # (b, c) on the cycle makes p2 that one edge: case ii; else case i
            # needs (c, d) on the cycle
            if len(p2) == 2:
                case = "ii"
            elif edge_key(c, d) in he:
                case = "i"
            else:
                continue
            out.append(ParityDiamond(a, b, c, d, case, p1, p2))
    return out


def scan_parity_diamonds(g: TriGridGraph, h: HamiltonCycle) -> List[ParityDiamond]:
    """Every parity diamond on h, labeling by labeling over
    `enumerate_diamonds`."""
    found = []
    for diamond in enumerate_diamonds(g):
        found.extend(parity_labelings(h, diamond))
    return found


def parity_key(pd: ParityDiamond) -> Tuple[int, int, Tuple[int, int, int, int]]:
    """The order of `parity_diamonds`: the shortest p1, then the shortest
    p2, then the smallest (a, b, c, d)."""
    return len(pd.p1), len(pd.p2), (pd.a, pd.b, pd.c, pd.d)


def best_parity_diamond(cands: List[ParityDiamond]) -> ParityDiamond:
    """The candidate `find_local_structure` picks, the first by
    `parity_key`."""
    return min(cands, key=parity_key)


def select_parity(h: HamiltonCycle,
                  diamond: Tuple[int, int, int, int]) -> ParityDiamond:
    """Orient a qualifying diamond so the two cycle subpaths have the
    required parities; exactly the right orientation exists because the
    cycle has odd length."""
    cands = parity_labelings(h, diamond)
    if not cands:
        raise HamiltonError("diamond does not meet the parity conditions")
    return best_parity_diamond(cands)
