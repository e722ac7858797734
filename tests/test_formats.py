import pytest

from trigrid import formats
from trigrid.grid import diamond_cycle_graph
from trigrid.placement import Placement, SlideMove, slide, SlideSequence

from conftest import random_placement


def test_graph_roundtrip_lattice(pentagon):
    text = formats.serialize_graph(pentagon)
    back = formats.parse_graph(text, name=pentagon.name)
    assert back.points == pentagon.points
    assert back.edges == pentagon.edges


def test_graph_roundtrip_abstract():
    g = diamond_cycle_graph(3)
    back = formats.parse_graph(formats.serialize_graph(g))
    assert not back.is_lattice
    assert back.n == g.n and back.edges == g.edges


def test_parse_graph_reports_line():
    with pytest.raises(formats.ParseError) as ei:
        formats.parse_graph("v 1 0 0\nv 2 bogus 0\n")
    assert ei.value.line == 2


def test_placement_roundtrip(pentagon, rng):
    p = random_placement(pentagon, rng)
    back = formats.parse_placement(formats.serialize_placement(p), pentagon)
    assert back.pieces == p.pieces and back.exposed == p.exposed


def test_placement_rejects_gapped_labels(pentagon):
    with pytest.raises(formats.ParseError):
        formats.parse_placement("p 1 2 3\np 3 4 5\n", pentagon)


def test_sequence_roundtrip(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    s1 = slide(p, SlideMove(1, 2, 1))
    seq = SlideSequence(p, (SlideMove(1, 2, 1),))
    text = formats.serialize_sequence(seq)
    back = formats.parse_sequence(text, pentagon)
    assert back.start.pieces == p.pieces
    assert back.moves == seq.moves
    assert back.end.pieces == s1.pieces


def test_moves_roundtrip():
    moves = [SlideMove(1, 2, 3), SlideMove(2, 4, 1)]
    assert formats.parse_moves(formats.serialize_moves(moves)) == moves


def test_plan_roundtrip(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    seq = SlideSequence(p, (SlideMove(1, 2, 1),))
    text = formats.serialize_plan("ear", seq)
    strategy, back = formats.parse_plan(text, pentagon)
    assert strategy == "ear" and back.moves == seq.moves


def test_plan_slide_count_mismatch(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    seq = SlideSequence(p, (SlideMove(1, 2, 1),))
    text = formats.serialize_plan("ear", seq).replace("slides 1", "slides 2")
    with pytest.raises(formats.ParseError):
        formats.parse_plan(text, pentagon)
