import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrid import formats
from trigrid.corpus import locally_connected_corpus
from trigrid.grid import chord_cycle_graph, diamond_cycle_graph, hex_with_hole_graph
from trigrid.placement import Placement, SlideMove, legal_moves, slide, verify_sequence

from conftest import random_placement

# lattice hosts with and without holes, and abstract ones
_HOSTS = locally_connected_corpus()[:8] + [hex_with_hole_graph(2), diamond_cycle_graph(3),
                                           chord_cycle_graph(5, 3)]


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
    moves = [SlideMove(1, 2, 1)]
    text = formats.serialize_sequence(p, moves)
    start, back = formats.parse_sequence(text, pentagon)
    assert start.pieces == p.pieces
    assert back == moves
    assert verify_sequence(start, back).final.pieces == s1.pieces


def test_moves_roundtrip():
    moves = [SlideMove(1, 2, 3), SlideMove(2, 4, 1)]
    assert formats.parse_moves(formats.serialize_moves(moves)) == moves


def test_plan_roundtrip(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    moves = [SlideMove(1, 2, 1)]
    text = formats.serialize_plan("ear", p, moves)
    strategy, start, back = formats.parse_plan(text, pentagon)
    assert strategy == "ear" and start == p and back == moves


@settings(max_examples=100, deadline=None)
@given(g=st.sampled_from(_HOSTS), seed=st.integers(0, 2 ** 32 - 1),
       steps=st.integers(0, 40), strategy=st.sampled_from(["ear", "hamilton"]))
def test_parse_inverts_serialize(g, seed, steps, strategy):
    """Each writer's text reads back to what it wrote: a host, a random
    placement on it, and a plan of random legal slides from there."""
    back = formats.parse_graph(formats.serialize_graph(g), name=g.name)
    assert back == g and back.adj == g.adj
    rng = random.Random(seed)
    p = random_placement(g, rng)
    assert formats.parse_placement(formats.serialize_placement(p), g) == p
    cur, moves = p, []
    for _ in range(steps):
        mv = rng.choice(legal_moves(cur))
        cur = slide(cur, mv)
        moves.append(mv)
    name, start, back = formats.parse_plan(formats.serialize_plan(strategy, p, moves), g)
    assert name == strategy
    assert start == p and back == moves and verify_sequence(start, back).final == cur


def test_plan_slide_count_mismatch(pentagon):
    p = Placement.make(pentagon, [(2, 3), (4, 5)])
    text = formats.serialize_plan("ear", p, [SlideMove(1, 2, 1)]).replace("slides 1", "slides 2")
    with pytest.raises(formats.ParseError):
        formats.parse_plan(text, pentagon)


def _hex7_plan(hex7, rng):
    """A cycle plan between two random placements, and its target."""
    from trigrid.hc_planner import plan_hamilton
    p, q = random_placement(hex7, rng), random_placement(hex7, rng)
    rep = plan_hamilton(hex7, p, q)
    assert rep.slide_count >= 3
    return rep, q


def test_plan_and_sequence_read_back_through_comments(hex7, rng):
    """A valid plan or sequence, with comments, blank lines and indentation
    between its records, reads back to the same start and moves."""
    rep, q = _hex7_plan(hex7, rng)
    for text, parse in ((formats.serialize_plan("hamilton", rep.start, rep.moves),
                         lambda t: formats.parse_plan(t, hex7)),
                        (formats.serialize_sequence(rep.start, rep.moves),
                         lambda t: ("hamilton",) + formats.parse_sequence(t, hex7))):
        noisy = "".join(f"# {i}\n\n  {line} \n" for i, line in enumerate(text.splitlines()))
        for t in (text, noisy):
            strategy, start, moves = parse(t)
            assert strategy == "hamilton"
            assert start == rep.start and tuple(moves) == rep.moves
            assert verify_sequence(start, moves, expected_end=q).matches_expected


# In a plan the header takes lines 1-2 and `start` line 3, so hex7's three
# pieces are lines 4-6 and the moves start at line 7; a sequence file has
# no header, so each line sits two lines earlier.
@pytest.mark.parametrize("plan", [True, False], ids=["plan", "sequence"])
@pytest.mark.parametrize("lineno,bad", [
    (8, "s 1 2 x"), (8, "s 1 2"), (8, "p 1 2 3"), (8, "q 1 2 3"),
    (6, "p 3 1 x"), (6, "p 3 1"), (6, "p 1 1 2"), (6, "s 1"), (6, "start 1"),
])
def test_parse_error_names_the_line_of_the_file(hex7, rng, plan, lineno, bad):
    rep, _ = _hex7_plan(hex7, rng)
    text = (formats.serialize_plan("hamilton", rep.start, rep.moves) if plan
            else formats.serialize_sequence(rep.start, rep.moves))
    lineno -= 0 if plan else 2
    lines = text.splitlines()
    lines[lineno - 1] = bad
    with pytest.raises(formats.ParseError) as ei:
        if plan:
            formats.parse_plan("\n".join(lines) + "\n", hex7)
        else:
            formats.parse_sequence("\n".join(lines) + "\n", hex7)
    assert ei.value.line == lineno
    assert str(ei.value).startswith(f"line {lineno}: ")


def test_placement_errors_name_their_line(hex7):
    """Each piece is checked on its own line: a non-edge, a vertex two
    pieces cover; a missing piece names the block's first line."""
    good = formats.serialize_placement(Placement.make(hex7, [(1, 2), (3, 4), (5, 7)]))
    assert formats.parse_placement(good, hex7).exposed == 6
    for text, lineno, message in (
            ("p 1 1 2\np 2 3 4\np 3 5 5\n", 3, "piece edge (5, 5) not in graph"),
            ("p 1 1 2\np 2 2 4\np 3 5 7\n", 2, "piece 2 overlaps piece 1 at vertex 2"),
            ("p 1 1 2\np 2 3 4\n", 1, "expected 3 pieces, got 2")):
        with pytest.raises(formats.ParseError) as ei:
            formats.parse_placement(text, hex7)
        assert (ei.value.line, str(ei.value)) == (lineno, f"line {lineno}: {message}")


def test_plan_header_errors(hex7, rng):
    rep, _ = _hex7_plan(hex7, rng)
    text = formats.serialize_plan("hamilton", rep.start, rep.moves)
    n = rep.slide_count
    for bad, lineno in ((text.replace(f"slides {n}\n", f"slides {n + 1}\n"), 2),
                        (text.replace("strategy hamilton\n", "strategy\n"), 1),
                        (text.replace("strategy hamilton\n", ""), 1),
                        (text.replace("start\n", ""), 3)):
        with pytest.raises(formats.ParseError) as ei:
            formats.parse_plan(bad, hex7)
        assert ei.value.line == lineno
    with pytest.raises(formats.ParseError) as ei:
        formats.parse_sequence(text, hex7)
    assert str(ei.value) == "line 1: unknown record 'strategy'"
