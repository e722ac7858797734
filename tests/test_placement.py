from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrid.ears import LevelMatchings, align_with_ears, find_admissible
from trigrid.grid import build_abstract, build_graph, edge_key, hex_with_hole_graph, hexagon_points
from trigrid.hamilton import find_hamilton
from trigrid.matching import Matching, MatchingError, near_perfect_matching
from trigrid import placement
from trigrid.placement import (IllegalMoveError, Placement, PlacementError,
                               SlideMove, SlideSequence, VerifyReport,
                               align_with_cycle, cut_loops, expose,
                               forced_cycle_dominoes, invert_sequence, legal_moves,
                               rotate, slide, verify_sequence)

from conftest import random_placement
from corpus import degree6_corpus, locally_connected_corpus
from support import (aligned_cycle_state, apply_sequence, is_alternating_cycle,
                     label_word, reference_slides_within, replay, verify_word)


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


def test_make_refuses_a_piece_off_the_host_and_overlapping_pieces():
    g = _cycle_graph(7)
    with pytest.raises(PlacementError, match=r"^piece edge \(1, 3\) not in graph$"):
        Placement.make(g, [(1, 3), (4, 5), (6, 7)])
    with pytest.raises(PlacementError, match="^pieces overlap$"):
        Placement.make(g, [(1, 2), (2, 3), (4, 5)])


def test_make_refuses_the_wrong_number_of_pieces():
    """`make` leaves the count to `covering`, which names it."""
    g = _cycle_graph(7)
    with pytest.raises(PlacementError, match="^expected 3 pieces, got 2$"):
        Placement.make(g, [(1, 2), (3, 4)])
    with pytest.raises(PlacementError, match="^expected 3 pieces, got 4$"):
        Placement.make(g, [(1, 2), (3, 4), (5, 6), (6, 7)])


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


def test_expose_ends_where_its_word_replays(rng):
    """`expose` writes its end down without stepping: it is where the
    checked `slide` takes the word (`support.replay`), and its cover map,
    a rewritten copy of the start's, is the one the end's pieces give,
    while the start's stays as it was. On random placements of the
    corpus hosts, each exposing a random vertex through the host's
    `near_perfect_matching`, and on placements aligned with an ear
    decomposition, exposing random vertices of each level in turn, up
    from the core, through its `LevelMatchings` matching, a subgraph's:
    the levels above stay aligned, so each level's pieces stay in it."""
    def check(p, v, m):
        before = p.owner.tolist()
        seq = expose(p, v, m)
        ref = replay(p, seq.kept).end
        assert (seq.end.pieces, seq.end.exposed) == (ref.pieces, ref.exposed)
        assert seq.end.exposed == v and len(seq) <= p.n
        assert seq.end.owner == Placement(p.graph, seq.end.pieces, v).owner
        assert p.owner.tolist() == before
        return seq.end

    deg6 = degree6_corpus()[:4]
    for g in locally_connected_corpus() + deg6:
        for _ in range(4):
            v = rng.choice(sorted(g.vertex_ids))
            check(random_placement(g, rng), v, near_perfect_matching(g, v))
    for g in deg6 + [build_graph(hexagon_points(2)), hex_with_hole_graph(2)]:
        levels = LevelMatchings(g, find_admissible(g))
        cur = align_with_ears(random_placement(g, rng), levels).end
        for i in range(1, levels.d.levels + 1):
            for v in rng.sample(sorted(levels.region(i)[0]), 2):
                cur = check(cur, v, levels.exposing(i, v))


def test_expose_raises_where_pieces_left_the_subgraph():
    """Exposing at the top ear level of `hex19` moves pieces across the
    boundaries of the levels below. Then exposing v through a lower
    level's `LevelMatchings` matching, with the gap inside that level,
    either ends with v exposed or raises PlacementError, from the
    MatchingError of an alternating path that ran out of the level and
    stopped short of v; the check is a raise, so it holds under
    `python -O` too. Some such exposures do raise."""
    g = build_graph(hexagon_points(2))
    levels = LevelMatchings(g, find_admissible(g))
    top = levels.d.levels
    aligned = align_with_ears(Placement.make(g, sorted(near_perfect_matching(g, 1).edges)),
                              levels).end
    raised = 0
    for w in sorted(levels.region(top)[0]):
        cur = levels.expose(aligned, top, w).end
        for j in range(3, top):
            vs, es = levels.region(j)
            if cur.exposed not in vs:
                continue
            left = any((a in vs) != (b in vs) for a, b in cur.pieces)
            for v in sorted(vs):
                try:
                    end = expose(cur, v, levels.exposing(j, v)).end
                except PlacementError as exc:
                    assert left and isinstance(exc.__cause__, MatchingError)
                    raised += 1
                else:
                    assert end.exposed == v
    assert raised


def test_invert_sequence(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    seq = _expose(p, 4)
    inv = invert_sequence(seq)
    assert inv.kept == seq.kept[::-1]
    assert inv.start.pieces == seq.end.pieces
    assert inv.end.pieces == p.pieces and inv.end.exposed == p.exposed
    assert verify_word(inv, expected_end=p).ok


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
    seq = SlideSequence(states[0], tuple(mv.kept_vertex for mv in moves), states[-1])
    ref = tuple(SlideMove(mv.label, mv.kept_vertex, after.exposed)
                for after, mv in zip(reversed(states[1:]), reversed(moves)))
    inv = invert_sequence(seq)
    assert label_word(inv) == ref
    assert inv.start.pieces == states[-1].pieces
    assert (inv.end.pieces, inv.end.exposed) == (states[0].pieces, states[0].exposed)
    assert cut_loops(seq.then(inv)) == ()


def test_verify_sequence(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    seq = _expose(p, 3)
    rep = verify_word(seq, expected_end=seq.end)
    assert rep.ok and rep.move_count == 1
    rep2 = verify_sequence(p, label_word(seq) + (SlideMove(1, 1, 1),))
    assert not rep2.ok and rep2.first_bad_index == 1


def _verify_reference(start, moves, expected_end):
    """`verify_sequence` as a fold of `slide` over the moves."""
    cur = start
    for i, mv in enumerate(moves):
        try:
            cur = slide(cur, mv)
        except IllegalMoveError as exc:
            return VerifyReport(False, i, None, first_bad_index=i, message=str(exc))
    matches = None
    if expected_end is not None:
        matches = (cur.pieces, cur.exposed) == (expected_end.pieces, expected_end.exposed)
    return VerifyReport(matches is not False, len(moves), cur,
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
    and a legal one ends where `support.replay` ends."""
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
    expected = {None: None, "end": states[-1],
                "other": random_placement(host, rnd)}[expect]
    rep = verify_sequence(states[0], moves, expected)
    assert rep == _verify_reference(states[0], moves, expected)   # placements by pieces and gap
    if bad is not None:
        assert (rep.ok, rep.first_bad_index, rep.message) == (False, i, bad[1])
    else:                                   # the end the checked `slide` reaches
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
    return is_alternating_cycle(Matching(frozenset(p.pieces)), cycle)


@settings(max_examples=200, deadline=None)
@given(host=st.sampled_from(_HOSTS), rnd=st.randoms(use_true_random=False))
def test_is_aligned_matches_matching_reference(host, rnd):
    """The cover-map check agrees with the matching-based reference on states a
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
        assert p.is_aligned(cyc) == _is_aligned_reference(p, cyc)


@settings(max_examples=200, deadline=None)
@given(host=st.sampled_from(_HOSTS), rnd=st.randoms(use_true_random=False))
def test_ring_reads_the_labels_on_the_forced_dominoes(host, rnd):
    """On random placements aligned with a Hamilton cycle, for the cycle
    listed from any start in either direction, `Placement.ring` lists it
    from the gap, with the labels `label_at` reads on its
    `forced_cycle_dominoes` at the gap, in order. A few random slides
    on, it reads the same way each cycle the placement is still aligned
    with and refuses every other."""
    order = find_hamilton(host).order
    dominoes = forced_cycle_dominoes(order, rnd.choice(order))
    rnd.shuffle(dominoes)
    p = Placement.make(host, dominoes)
    i = rnd.randrange(len(order))
    turned = order[i:] + order[:i]
    for step in range(2):
        for cyc in (turned, turned[::-1]):
            if not p.is_aligned(cyc):
                assert step
                with pytest.raises(PlacementError,
                                   match="^placement is not aligned with the cycle$"):
                    p.ring(cyc)
                continue
            ring, labels = p.ring(cyc)
            g = cyc.index(p.exposed)
            assert ring == cyc[g:] + cyc[:g]
            want = [p.label_at(e) for e in forced_cycle_dominoes(cyc, p.exposed)]
            assert None not in want and labels == want
        for _ in range(rnd.randrange(1, 6)):
            p = slide(p, rnd.choice(legal_moves(p)))


def test_cover_map_matches_a_scan_of_the_pieces(rng):
    """`label_at` and `in` on every host edge, either way round, and
    `owner` on every vertex, 0 at the gap, agree with a scan
    of `p.pieces`: on random placements of the locally-connected corpus
    and on the ends of random words replayed from them."""
    for g in locally_connected_corpus():
        for _ in range(3):
            p = cur = random_placement(g, rng)
            word = []
            for _ in range(rng.randrange(1, 12)):
                mv = rng.choice(legal_moves(cur))
                cur = slide(cur, mv)
                word.append(mv.kept_vertex)
            end = replay(p, word).end
            assert end.pieces == cur.pieces
            for x in (p, end):
                for e in g.edges:
                    on = [lab for lab, pe in enumerate(x.pieces, 1) if pe == e]
                    want = on[0] if on else None
                    assert x.label_at(e) == x.label_at(e[::-1]) == want
                    assert (e in x) == (e[::-1] in x) == (want is not None)
                for v in g.vertex_ids:
                    on = [lab for lab, pe in enumerate(x.pieces, 1) if v in pe]
                    assert x.owner[v] == (on[0] if on else 0)
                assert x.owner[x.exposed] == 0


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
    assert label_word(seq) == ref
    end = apply_sequence(p, ref)
    assert seq.end.pieces == end.pieces and seq.end.exposed == end.exposed


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 6), rnd=st.randoms(use_true_random=False))
def test_align_with_cycle_clears_the_chords(k, rnd):
    """On an odd cycle with up to three chords, from a random placement of
    the host, `align_with_cycle` leaves no piece on a chord and the
    placement aligned with the cycle, with at most one `expose` for each
    chord that held a piece."""
    m = 2 * k + 1
    cyc = list(range(1, m + 1))
    rnd.shuffle(cyc)
    ces = {edge_key(cyc[i], cyc[(i + 1) % m]) for i in range(m)}
    others = [edge_key(a, b) for a in cyc for b in cyc
              if a < b and edge_key(a, b) not in ces]
    chords = set(rnd.sample(others, rnd.randint(0, min(3, len(others)))))
    g = build_abstract(m, sorted(ces | chords))
    p = Placement.make(g, near_perfect_matching(g, rnd.choice(cyc)).edges)
    for _ in range(rnd.randrange(3 * m)):
        p = slide(p, rnd.choice(legal_moves(p)))
    held = len(chords & set(p.pieces))
    with mock.patch.object(placement, "expose", wraps=placement.expose) as spy:
        seq = align_with_cycle(p, tuple(cyc), chords)
    assert spy.call_count <= held
    assert not chords & set(seq.end.pieces)
    assert seq.end.is_aligned(cyc)
    assert apply_sequence(p, label_word(seq)).pieces == seq.end.pieces


def test_then_chain_end_matches_replay(hex7, rng):
    p = random_placement(hex7, rng)
    seq = SlideSequence(p, ())
    for _ in range(6):
        step = _expose(seq.end, rng.choice(list(hex7.vertex_ids)))
        seq = seq.then(step).then(invert_sequence(step)).then(step)
    raw = replay(p, seq.kept)                      # the whole word, stepped once
    end = apply_sequence(p, label_word(seq))
    for s in (seq, raw):
        assert s.end.pieces == end.pieces and s.end.exposed == end.exposed


def _states(start, moves):
    out = [start]
    for mv in moves:
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
        if r < 0.3 and seq.kept:            # step back
            kept = seq.kept[-1]
        elif r < 0.4 and seq.kept:          # back along a stretch, then again
            k = rnd.randint(1, min(len(seq), m))
            tail = replay(replay(p, seq.kept[:-k]).end, seq.kept[-k:])
            seq = seq.then(invert_sequence(tail)).then(tail)
            continue
        else:
            kept = rnd.choice(legal_moves(q)).kept_vertex
        seq = seq.then(replay(q, (kept,)))

    cut = cut_loops(seq)
    check = verify_sequence(seq.start, cut, expected_end=seq.end)
    assert check.ok and check.matches_expected
    assert len(cut) <= len(seq)
    states = _states(seq.start, cut)
    assert len(set(states)) == len(states)
    moves = label_word(seq)
    it = iter(moves)
    assert all(mv in it for mv in cut)
    assert cut_loops(SlideSequence(seq.start, tuple(kept for _, kept, _ in cut),
                                   seq.end)) == cut
    if len(set(_states(seq.start, moves))) == len(seq) + 1:
        assert cut == moves


def test_cut_loops_round_trip_is_empty(hex7, rng):
    p = random_placement(hex7, rng)
    out = _expose(p, next(v for v in hex7.vertex_ids if v != p.exposed))
    seq = out.then(invert_sequence(out))
    assert len(seq) > 0
    assert cut_loops(seq) == ()
    assert (seq.end.pieces, seq.end.exposed) == (p.pieces, p.exposed)


def test_cut_loops_raises_at_uncovered_kept_vertex(pentagon):
    """A word whose kept vertex no piece covers, as the gap is not, is no
    plan: `cut_loops`' replay raises PlacementError there."""
    p = Placement.make(pentagon, [(2, 3), (4, 5)])      # exposed 1
    with pytest.raises(PlacementError, match="vertex 1 is not covered"):
        cut_loops(SlideSequence(p, (1,), p))
    step = replay(p, (2,))                              # exposes 3
    with pytest.raises(PlacementError, match="vertex 3 is not covered"):
        cut_loops(SlideSequence(p, (2, 3), step.end))
