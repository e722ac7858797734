import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrid.corpus import locally_connected_corpus
from trigrid.grid import build_abstract, build_graph, edge_key
from trigrid.hamilton import find_hamilton
from trigrid.matching import Matching, near_perfect_matching
from trigrid.oracle import bfs_component
from trigrid.ear_planner import base_pentagon
from trigrid.placement import (IllegalMoveError, Placement, PlacementError,
                               SlideMove, SlideSequence, VerifyReport,
                               apply_sequence, cut_loops, expose, forced_cycle_dominoes,
                               invert_sequence, legal_moves, replay, rotate,
                               slide, verify_sequence)
from trigrid.plans import PlanError

from conftest import random_placement
from support import (aligned_cycle_state, is_aligned, is_alternating_cycle,
                     reference_slides_within)


def _cycle_graph(n):
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return build_abstract(n, edges)


def _cycle_placement(g, k, j, h):
    state = aligned_cycle_state(k, j, h)
    return Placement.make(g, [state[i] for i in range(1, k + 1)])


def _expose(p, v):
    """`expose` anywhere in the host."""
    return expose(p, v, near_perfect_matching(p.graph, v))


def test_slide_triangle():
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    p = Placement.make(g, [(1, 2)])
    q = slide(p, SlideMove(1, 2, 3))
    assert q.piece(1) == (2, 3) and q.exposed == 1
    back = slide(q, SlideMove(1, 2, 1))
    assert back.pieces == p.pieces and back.exposed == p.exposed


def test_slide_seven_cycle():
    g = _cycle_graph(7)
    p = _cycle_placement(g, 3, 3, 1)         # ((1,2),(4,5),(6,7)), exposed 3
    assert p.pieces == ((1, 2), (4, 5), (6, 7)) and p.exposed == 3
    q = slide(p, SlideMove(1, 2, 3))
    assert q.pieces == ((2, 3), (4, 5), (6, 7)) and q.exposed == 1
    assert q.pieces == tuple(aligned_cycle_state(3, 1, 1)[i] for i in (1, 2, 3))


def test_illegal_moves():
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    p = Placement.make(g, [(1, 2)])
    with pytest.raises(IllegalMoveError):
        slide(p, SlideMove(1, 1, 2))          # destination not exposed
    with pytest.raises(IllegalMoveError):
        slide(p, SlideMove(2, 2, 3))          # no such label


def test_legal_moves_counts(pentagon):
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    assert len(legal_moves(Placement.make(g, [(1, 2)]))) == 2
    c7 = _cycle_graph(7)
    assert len(legal_moves(_cycle_placement(c7, 3, 3, 1))) == 2
    p = Placement.make(pentagon, [(1, 2), (4, 5)])    # exposed at apex 3
    assert p.exposed == 3
    assert len(legal_moves(p)) == 4


def test_rotation_short():
    g = _cycle_graph(7)
    p = _cycle_placement(g, 3, 3, 1)
    seq = rotate(p, tuple(range(1, 8)), 1)
    assert len(seq) == 1
    assert seq.end.pieces == _cycle_placement(g, 3, 1, 1).pieces


def test_rotation_full_target():
    g = _cycle_graph(7)
    p = _cycle_placement(g, 3, 3, 1)
    tgt = _cycle_placement(g, 3, 6, 4)
    assert tgt.pieces == ((4, 5), (1, 7), (2, 3))
    seq = rotate(p, tuple(range(1, 8)), 6, [(i, tgt.piece(i)) for i in (1, 2, 3)])
    assert len(seq) <= 12                     # k^2 + k with k = 3
    assert seq.end.pieces == tgt.pieces and seq.end.exposed == 6


def test_rotation_bounds_small():
    for k in (2, 3):
        g = _cycle_graph(2 * k + 1)
        cyc = tuple(range(1, 2 * k + 2))
        for j in range(1, 2 * k + 2, 2):
            p = _cycle_placement(g, k, j, 1)
            for j2 in range(1, 2 * k + 2):
                seq = rotate(p, cyc, j2)
                assert len(seq) <= k
                for h2 in range(1 if j2 % 2 else 2, 2 * k + 2, 2):
                    tgt = _cycle_placement(g, k, j2, h2)
                    full = rotate(p, cyc, j2, [(i, tgt.piece(i)) for i in range(1, k + 1)])
                    assert len(full) <= k * k + k
                    assert full.end.pieces == tgt.pieces


def test_base_pentagon_is_shortest(hex7, rng):
    """`ear_planner.base_pentagon` over the whole host's edges plans as
    many slides as the oracle's distance, with the reference search's
    moves, ties included."""
    p = random_placement(hex7, rng)
    comp = bfs_component(hex7, p)
    for _ in range(10):
        q = random_placement(hex7, rng)
        seq = base_pentagon(p, q, hex7.edges)
        assert len(seq) == comp.distance_to(q)
        assert seq.moves == reference_slides_within(p, hex7.edges,
                                                    lambda s: s.pieces == q.pieces)
        assert verify_sequence(seq, expected_end=q).matches_expected


def _random_host_placement(n, rnd):
    """A placement of n pieces on a random connected host of 2n + 1
    vertices, and the host's vertices in random order."""
    m = 2 * n + 1
    order = list(range(1, m + 1))
    rnd.shuffle(order)
    pieces = [edge_key(order[2 * t], order[2 * t + 1]) for t in range(n)]
    rnd.shuffle(pieces)
    tree = [edge_key(order[i], rnd.choice(order[:i])) for i in range(1, m)]
    others = [edge_key(a, b) for a in order for b in order if a < b]
    extra = rnd.sample(others, rnd.randint(0, min(m, len(others))))
    g = build_abstract(m, set(pieces) | set(tree) | set(extra))
    return Placement.make(g, pieces), order


def _chorded_cycle_pair(n, rnd):
    """A placement p of n pieces on a cycle of 2n + 1 vertices in random
    order with up to three chords, and the state q half way round the
    cycle of (2n + 1)n states that turning the pieces along the cycle
    passes through. With n even both ways round are shortest, so p's two
    first moves tie unless a chord gives a shorter plan."""
    m = 2 * n + 1
    order = list(range(1, m + 1))
    rnd.shuffle(order)
    ring = {edge_key(order[i], order[(i + 1) % m]) for i in range(m)}
    chords = [edge_key(a, b) for a in order for b in order
              if a < b and edge_key(a, b) not in ring]
    g = build_abstract(m, ring | set(rnd.sample(chords, rnd.randint(0, min(3, len(chords))))))
    pieces = [edge_key(order[t], order[t + 1]) for t in range(1, m, 2)]
    rnd.shuffle(pieces)
    p = q = Placement.make(g, pieces)
    for _ in range(m * n // 2):
        kept = order[(order.index(q.exposed) + 1) % m]
        q = slide(q, SlideMove(q.label_covering(kept), kept, q.exposed))
    return p, q


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), chorded=st.booleans(), rnd=st.randoms(use_true_random=False))
def test_base_pentagon_matches_reference(n, chorded, rnd):
    """`ear_planner.base_pentagon` gives the moves of the `legal_moves`/
    `slide` BFS to q's pieces, ties included, and raises PlanError exactly
    where that BFS finds nothing, on small random hosts, placements and
    edge subsets, and on chorded odd cycles, whose shortest plans often
    tie: there an order of slides other than by label, then kept vertex,
    gives other moves."""
    if chorded:
        p, q = _chorded_cycle_pair(n, rnd)
        edges = set(p.graph.edges)
    else:
        p, order = _random_host_placement(n, rnd)
        g, m = p.graph, len(order)
        edges = {e for e in g.edges if rnd.random() < 0.8}

        q = p                               # a random walk in the whole host
        for _ in range(rnd.randrange(3 * m)):
            q = slide(q, rnd.choice(legal_moves(q)))

    ref = reference_slides_within(p, edges, lambda s: s.pieces == q.pieces)
    if ref is None:
        with pytest.raises(PlanError):
            base_pentagon(p, q, edges)
        return
    seq = base_pentagon(p, q, edges)
    assert seq.moves == ref
    end = apply_sequence(p, seq.moves)
    assert seq.end.pieces == end.pieces == q.pieces and seq.end.exposed == end.exposed


def test_rotation_target_off_cycle():
    # 7-cycle with the chord (1, 3): label 1 cannot reach it by rotation
    g = build_abstract(7, [(i, i + 1) for i in range(1, 7)] + [(1, 7), (1, 3)])
    p = _cycle_placement(g, 3, 3, 1)
    cyc = tuple(range(1, 8))
    assert reference_slides_within(p, g.edges - {(1, 3)},
                                   lambda s: s.piece(1) == (1, 3)) is None
    with pytest.raises(PlacementError):
        rotate(p, cyc, pieces=[(1, (1, 3))])


def test_rotate_refuses_misaligned_start_and_gap_off_cycle(pentagon):
    """`rotate` refuses a start not aligned with the cycle, and a gap
    target the cycle does not pass through. A goal for a label off the
    cycle, already on its edge, changes nothing."""
    tri = (1, 2, 3)
    aligned = Placement.make(pentagon, [(2, 3), (4, 5)])      # exposed 1
    assert rotate(aligned, tri, exposed=2).end.exposed == 2
    off_cycle_goal = rotate(aligned, tri, exposed=2, pieces=[(2, (4, 5))])
    assert off_cycle_goal == rotate(aligned, tri, exposed=2)
    with pytest.raises(PlacementError, match="not aligned"):
        rotate(Placement.make(pentagon, [(2, 4), (3, 5)]), tri, exposed=2)
    with pytest.raises(PlacementError, match="unreachable"):
        rotate(aligned, tri, exposed=4)


def test_expose(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    assert p.exposed == 1
    seq = _expose(p, 3)
    assert len(seq) == 1 and seq.end.exposed == 3
    assert len(_expose(p, p.exposed)) == 0
    for v in pentagon.vertex_ids:
        s = _expose(p, v)
        assert s.end.exposed == v and len(s) <= p.n + 1
    with pytest.raises(PlacementError):                 # covers 3
        expose(p, 3, near_perfect_matching(pentagon, 1))
    with pytest.raises(PlacementError):                 # its subgraph misses 1
        expose(p, 3, Matching(frozenset({(4, 5)})))


def test_invert_sequence(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    seq = _expose(p, 4)
    inv = invert_sequence(seq)
    assert inv.start.pieces == seq.end.pieces
    assert inv.end.pieces == p.pieces and inv.end.exposed == p.exposed


_HOSTS = locally_connected_corpus()


@settings(max_examples=100, deadline=None)
@given(host=st.sampled_from(_HOSTS), rnd=st.randoms(use_true_random=False))
def test_invert_sequence_matches_slide_reference(host, rnd):
    """On random legal walks, the inverse is the walk's `slide` states
    undone from the end, and the walk followed by it cuts to nothing."""
    states, moves = [random_placement(host, rnd)], []
    for _ in range(rnd.randrange(4 * host.num_vertices)):
        mv = rnd.choice(legal_moves(states[-1]))
        moves.append(mv)
        states.append(slide(states[-1], mv))
    seq = SlideSequence(states[0], tuple(moves))
    ref = tuple(SlideMove(mv.label, mv.kept_vertex, after.exposed)
                for after, mv in zip(reversed(states[1:]), reversed(moves)))
    inv = invert_sequence(seq)
    assert inv.moves == ref
    assert inv.start.pieces == states[-1].pieces
    assert (inv.end.pieces, inv.end.exposed) == (states[0].pieces, states[0].exposed)
    assert cut_loops(seq.then(inv)).moves == ()


def test_replay_raises_at_uncovered_kept_vertex(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])      # exposed 1
    seq = replay(p, (2,))
    assert seq.moves == (SlideMove(1, 2, 1),)
    assert seq.end.pieces == slide(p, seq.moves[0]).pieces and seq.end.exposed == 3
    with pytest.raises(PlacementError):
        replay(p, (1,))                                 # the exposed vertex
    with pytest.raises(PlacementError):
        replay(p, (2, 3))                               # exposed after one slide


def test_verify_sequence(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    seq = _expose(p, 3)
    rep = verify_sequence(seq, expected_end=seq.end)
    assert rep.ok and rep.move_count == 1
    bad = SlideSequence(p, seq.moves + (SlideMove(1, 1, 1),))
    rep2 = verify_sequence(bad)
    assert not rep2.ok and rep2.first_bad_index == 1


def _verify_reference(seq, expected_end):
    """`verify_sequence` as a fold of `slide` over the moves."""
    cur = seq.start
    for i, mv in enumerate(seq.moves):
        try:
            cur = slide(cur, mv)
        except IllegalMoveError as exc:
            return VerifyReport(False, i, None, first_bad_index=i, message=str(exc))
    matches = None
    if expected_end is not None:
        matches = (cur.pieces, cur.exposed) == (expected_end.pieces, expected_end.exposed)
    return VerifyReport(matches is not False, len(seq.moves), cur,
                        matches_expected=matches,
                        message="" if matches is not False
                        else "final placement differs from expected")


def _corrupt(p, mv, kind, rnd):
    """`mv`, legal from p, made illegal by one of the four checks of a
    slide, with the message that check gives; None where p offers no such
    move."""
    label, kept, gap = mv
    if kind == "label":
        label = rnd.choice([0, p.n + 1, -label])
        return SlideMove(label, kept, gap), f"label {label} absent"
    if kind == "endpoint":
        kept = rnd.choice([v for v in p.graph.vertex_ids if v not in p.piece(label)])
        return (SlideMove(label, kept, gap),
                f"vertex {kept} not an endpoint of piece {label}")
    if kind == "dest":
        dest = rnd.choice([v for v in p.graph.vertex_ids if v != gap])
        return (SlideMove(label, kept, dest),
                f"destination {dest} is not the exposed vertex")
    off = [(lab, w) for lab, e in enumerate(p.pieces, 1) for w in e
           if not p.graph.has_edge(w, gap)]
    if not off:
        return None
    label, kept = rnd.choice(off)
    return SlideMove(label, kept, gap), f"({kept},{gap}) is not an edge"


@settings(max_examples=300, deadline=None)
@given(host=st.sampled_from(_HOSTS), rnd=st.randoms(use_true_random=False),
       kind=st.sampled_from([None, "label", "endpoint", "dest", "edge"]),
       expect=st.sampled_from([None, "end", "other"]))
def test_verify_sequence_matches_slide_reference(host, rnd, kind, expect):
    """On random legal walks, some with one move made illegal by one of
    the four checks of a slide, and with no, the true or another expected
    end, the in-place replay reports what a fold of `slide` reports. As
    `slide` shares its checks, two more asserts stand apart from it: a
    corrupted walk fails at the corrupted move with that check's message,
    and a legal one ends where `replay` ends."""
    states, moves = [random_placement(host, rnd)], []
    for _ in range(rnd.randrange(1, 4 * host.num_vertices)):
        mv = rnd.choice(legal_moves(states[-1]))
        moves.append(mv)
        states.append(slide(states[-1], mv))
    bad = None
    if kind is not None:
        i = rnd.randrange(len(moves))
        bad = _corrupt(states[i], moves[i], kind, rnd)
    if bad is not None:
        moves[i] = bad[0]
    seq = SlideSequence(states[0], tuple(moves))
    expected = {None: None, "end": states[-1],
                "other": random_placement(host, rnd)}[expect]
    rep = verify_sequence(seq, expected)
    assert rep == _verify_reference(seq, expected)      # placements by pieces and gap
    if bad is not None:
        assert (rep.ok, rep.first_bad_index, rep.message) == (False, i, bad[1])
    else:                                   # the end `Board` reaches
        end = replay(states[0], [mv.kept_vertex for mv in moves]).end
        assert (rep.final.pieces, rep.final.exposed) == (end.pieces, end.exposed)


def _is_aligned_reference(p, cycle):
    """`is_aligned` read off the placement's matching: the cycle holds the
    exposed vertex, its edges are host edges, and it alternates in M_p."""
    if p.exposed not in cycle:
        return False
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        if not p.graph.has_edge(a, b):
            return False
    return is_alternating_cycle(p.matching, cycle)


@settings(max_examples=200, deadline=None)
@given(host=st.sampled_from(_HOSTS), rnd=st.randoms(use_true_random=False))
def test_is_aligned_matches_matching_reference(host, rnd):
    """The board check agrees with the matching-based reference on states a
    few random slides from one aligned with a Hamilton cycle: for the cycle
    from any start in both directions, for the vertex sequences left without
    its last one or two vertices, and for every triangle at the exposed
    vertex."""
    order = find_hamilton(host).order
    dominoes = forced_cycle_dominoes(order, rnd.choice(order))
    rnd.shuffle(dominoes)
    p = Placement.make(host, dominoes)
    for _ in range(rnd.randrange(6)):
        p = slide(p, rnd.choice(legal_moves(p)))
    i = rnd.randrange(len(order))
    turned = order[i:] + order[:i]
    gap = p.exposed
    cycles = [turned, turned[::-1], turned[:-1], turned[:-2]]
    cycles += [(gap, a, b) for a in host.adj[gap] for b in host.adj[a]
               if b in host.adj[gap]]
    for cyc in cycles:
        assert is_aligned(p, cyc) == _is_aligned_reference(p, cyc)


def _on_cycle_moves(p, ces):
    return [mv for mv in legal_moves(p)
            if p.piece(mv.label) in ces
            and edge_key(mv.kept_vertex, mv.dest_vertex) in ces]


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 13), rnd=st.randoms(use_true_random=False))
def test_rotate_matches_reference_search(k, rnd):
    """`rotate` returns the moves of the restricted BFS, ties included, and
    raises exactly when the BFS finds nothing. The cycle sits in a host
    with chords and off-cycle pieces, whose slides both must ignore."""
    m = 2 * k + 1
    cyc = list(range(1, m + 1))
    rnd.shuffle(cyc)
    ces = {edge_key(cyc[i], cyc[(i + 1) % m]) for i in range(m)}
    chords = [edge_key(a, b) for a in cyc for b in cyc
              if a < b and edge_key(a, b) not in ces]
    extra = rnd.randint(0, 2)
    spares = [(m + 2 * t + 1, m + 2 * t + 2) for t in range(extra)]
    edges = (ces | set(rnd.sample(chords, rnd.randint(0, min(3, len(chords)))))
             | set(spares) | {(rnd.choice(cyc), a) for a, _ in spares})
    g = build_abstract(m + 2 * extra, sorted(edges))
    j = rnd.randrange(m)
    dominoes = [edge_key(cyc[(j + t) % m], cyc[(j + t + 1) % m])
                for t in range(1, m, 2)]
    pieces = dominoes + spares
    rnd.shuffle(pieces)
    p = Placement.make(g, pieces)

    # a target state some way round the state cycle of m * k states; a
    # walk of half its length reaches the state both directions tie on
    q, prev = p, None
    for _ in range(rnd.choice([m * k // 2, rnd.randrange(m * k + 1)])):
        nxt = [slide(q, mv) for mv in _on_cycle_moves(q, ces)]
        nxt = [s for s in nxt if prev is None or s.pieces != prev.pieces]
        prev, q = q, rnd.choice(nxt)
    labels = [i for i in range(1, p.n + 1) if p.piece(i) in ces]
    chosen = rnd.sample(labels, rnd.randint(0, len(labels)))
    want = [(lab, q.piece(lab)) for lab in chosen]
    lab = rnd.randrange(1, p.n + 1)
    if rnd.random() < 0.2 and lab not in chosen:        # often unreachable
        want.append((lab, rnd.choice(sorted(g.edges))))
    exposed = rnd.choice([None, q.exposed, rnd.choice(cyc)])

    def goal(s):
        return ((exposed is None or s.exposed == exposed)
                and all(s.piece(lab) == e for lab, e in want))

    ref = reference_slides_within(p, ces, goal)
    if ref is None:
        with pytest.raises(PlacementError):
            rotate(p, tuple(cyc), exposed, want)
        return
    seq = rotate(p, tuple(cyc), exposed, want)
    assert seq.moves == ref
    end = apply_sequence(p, seq.moves)
    assert seq.end.pieces == end.pieces and seq.end.exposed == end.exposed


def test_then_chain_end_matches_replay(hex7, rng):
    p = random_placement(hex7, rng)
    seq = SlideSequence(p, ())
    for _ in range(6):
        step = _expose(seq.end, rng.choice(list(hex7.vertex_ids)))
        seq = seq.then(step).then(invert_sequence(step)).then(step)
    raw = SlideSequence(p, seq.moves)              # no end given: replays once
    end = apply_sequence(p, seq.moves)
    for s in (seq, raw):
        assert s.end.pieces == end.pieces and s.end.exposed == end.exposed


def _states(seq):
    out = [seq.start]
    for mv in seq.moves:
        out.append(slide(out[-1], mv))
    return [(s.pieces, s.exposed) for s in out]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), rnd=st.randoms(use_true_random=False))
def test_cut_loops_properties(n, rnd):
    """On random legal walks that often step back or repeat a stretch, the
    cut plan replays to the same end, is no longer, visits no state twice,
    keeps its moves in order, and is cut no further by a second pass."""
    p, order = _random_host_placement(n, rnd)
    m = len(order)
    seq = SlideSequence(p, ())
    for _ in range(rnd.randrange(6 * m)):
        r = rnd.random()
        q = seq.end
        if r < 0.3 and seq.moves:           # step back
            last = seq.moves[-1]
            mv = SlideMove(last.label, last.kept_vertex, q.exposed)
        elif r < 0.4 and seq.moves:         # back along a stretch, then again
            k = rnd.randint(1, min(len(seq), m))
            tail = SlideSequence(apply_sequence(p, seq.moves[:-k]), seq.moves[-k:])
            seq = seq.then(invert_sequence(tail)).then(tail)
            continue
        else:
            mv = rnd.choice(legal_moves(q))
        seq = seq.then(SlideSequence(q, (mv,), slide(q, mv)))

    cut = cut_loops(seq)
    check = verify_sequence(cut, expected_end=seq.end)
    assert check.ok and check.matches_expected
    assert cut.start is seq.start
    assert (cut.end.pieces, cut.end.exposed) == (seq.end.pieces, seq.end.exposed)
    assert len(cut) <= len(seq)
    states = _states(cut)
    assert len(set(states)) == len(states)
    it = iter(seq.moves)
    assert all(mv in it for mv in cut.moves)
    assert cut_loops(cut).moves == cut.moves
    if len(set(_states(seq))) == len(seq) + 1:
        assert cut.moves == seq.moves


def test_cut_loops_round_trip_is_empty(hex7, rng):
    p = random_placement(hex7, rng)
    out = _expose(p, next(v for v in hex7.vertex_ids if v != p.exposed))
    seq = out.then(invert_sequence(out))
    assert len(seq) > 0
    cut = cut_loops(seq)
    assert cut.moves == ()
    assert (cut.end.pieces, cut.end.exposed) == (p.pieces, p.exposed)
