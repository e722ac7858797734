import pytest

from trigrid.grid import build_abstract, build_graph, edge_key
from trigrid.oracle import bfs_component
from trigrid.placement import (IllegalMoveError, Placement, PlacementError,
                               RotationSpec, SlideMove, SlideSequence,
                               aligned_cycle_state, apply_sequence, expose,
                               invert_sequence, legal_moves, rotate,
                               shortest_slides_within, slide, verify_sequence)

from conftest import random_placement


def _cycle_graph(n):
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return build_abstract(n, edges)


def _cycle_placement(g, k, j, h):
    state = aligned_cycle_state(k, j, h)
    return Placement.make(g, [state[i] for i in range(1, k + 1)])


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
    seq = rotate(p, RotationSpec(tuple(range(1, 8)), target_exposed=1))
    assert len(seq) == 1
    assert seq.end.pieces == _cycle_placement(g, 3, 1, 1).pieces


def test_rotation_full_target():
    g = _cycle_graph(7)
    p = _cycle_placement(g, 3, 3, 1)
    tgt = _cycle_placement(g, 3, 6, 4)
    assert tgt.pieces == ((4, 5), (1, 7), (2, 3))
    seq = rotate(p, RotationSpec(
        tuple(range(1, 8)), target_exposed=6,
        target_pieces=tuple((i, tgt.piece(i)) for i in (1, 2, 3))))
    assert len(seq) <= 12                     # k^2 + k with k = 3
    assert seq.end.pieces == tgt.pieces and seq.end.exposed == 6


def test_rotation_bounds_small():
    for k in (2, 3):
        g = _cycle_graph(2 * k + 1)
        cyc = tuple(range(1, 2 * k + 2))
        for j in range(1, 2 * k + 2, 2):
            p = _cycle_placement(g, k, j, 1)
            for j2 in range(1, 2 * k + 2):
                seq = rotate(p, RotationSpec(cyc, target_exposed=j2))
                assert len(seq) <= k
                for h2 in range(1 if j2 % 2 else 2, 2 * k + 2, 2):
                    tgt = _cycle_placement(g, k, j2, h2)
                    full = rotate(p, RotationSpec(
                        cyc, target_exposed=j2,
                        target_pieces=tuple((i, tgt.piece(i))
                                            for i in range(1, k + 1))))
                    assert len(full) <= k * k + k
                    assert full.end.pieces == tgt.pieces


def test_shortest_slides_within_is_shortest(hex7, rng):
    p = random_placement(hex7, rng)
    comp = bfs_component(hex7, p)
    for _ in range(10):
        q = random_placement(hex7, rng)
        seq = shortest_slides_within(p, hex7.edges, lambda s: s.pieces == q.pieces)
        assert len(seq) == comp.distance_to(q)
        assert verify_sequence(seq, expected_end=q).matches_expected


def test_rotation_target_off_cycle():
    # 7-cycle with the chord (1, 3): label 1 cannot reach it by rotation
    g = build_abstract(7, [(i, i + 1) for i in range(1, 7)] + [(1, 7), (1, 3)])
    p = _cycle_placement(g, 3, 3, 1)
    cyc = tuple(range(1, 8))
    assert shortest_slides_within(p, g.edges - {(1, 3)},
                                  lambda s: s.piece(1) == (1, 3)) is None
    with pytest.raises(PlacementError):
        rotate(p, RotationSpec(cyc, target_pieces=((1, (1, 3)),)))


def test_expose(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    assert p.exposed == 1
    seq = expose(p, 3)
    assert len(seq) == 1 and seq.end.exposed == 3
    assert len(expose(p, p.exposed)) == 0
    for v in pentagon.vertex_ids:
        s = expose(p, v)
        assert s.end.exposed == v and len(s) <= p.n + 1


def test_invert_sequence(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    seq = expose(p, 4)
    inv = invert_sequence(seq)
    assert inv.start.pieces == seq.end.pieces
    assert inv.end.pieces == p.pieces and inv.end.exposed == p.exposed


def test_verify_sequence(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    seq = expose(p, 3)
    rep = verify_sequence(seq, expected_end=seq.end)
    assert rep.ok and rep.move_count == 1
    bad = SlideSequence(p, seq.moves + (SlideMove(1, 1, 1),))
    rep2 = verify_sequence(bad)
    assert not rep2.ok and rep2.first_bad_index == 1
