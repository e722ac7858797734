import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrid import formats
from trigrid.grid import chord_cycle_graph, diamond_cycle_graph, hex_with_hole_graph
from trigrid.placement import Placement, SlideMove, legal_moves, slide, verify_sequence

from conftest import random_placement
from corpus import degree6_corpus, locally_connected_corpus, workload_hosts

# lattice hosts with and without holes, and abstract ones
_HOSTS = locally_connected_corpus()[:8] + [hex_with_hole_graph(2), diamond_cycle_graph(3),
                                           chord_cycle_graph(5, 3)]


def test_graph_roundtrip_lattice(pentagon):
    text = formats.serialize_graph(pentagon)
    back = formats.parse_graph(text, name=pentagon.name)
    assert back.points == pentagon.points
    assert back.edges == pentagon.edges
    # `v` records out of id order still give ids in lexicographic point order
    shuffled = "".join(reversed(text.splitlines(keepends=True)))
    again = formats.parse_graph(shuffled, name=pentagon.name)
    assert again == back and list(again.edges) == list(back.edges)


def test_host_read_back_iterates_its_edges_in_order():
    """The matching search reads its pool in the iteration order of
    `g.edges`, so a host read back from its file iterates its edges as the
    host written did: on every corpus host, every workload host, and every
    `diamond_cycle(3..15)` and `chord_cycle(n, m)` with n <= 15, as
    `build_abstract` inserts edges sorted, the order `serialize_graph`
    writes them in."""
    hosts = (locally_connected_corpus() + degree6_corpus() + list(workload_hosts().values())
             + [diamond_cycle_graph(n) for n in range(3, 16)]
             + [chord_cycle_graph(n, m) for n in range(3, 16) for m in range(2, n)])
    for g in hosts:
        back = formats.parse_graph(formats.serialize_graph(g))
        assert list(back.edges) == list(g.edges), g.name


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


def test_parse_moves_refuses_other_records():
    with pytest.raises(formats.ParseError, match="^line 2: unknown record 'p'$"):
        formats.parse_moves("s 1 2 3\np 1 2 3\n")


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
    (6, "p 3 1 2 4"),
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
            ("p 1 1 2\np 2 3 4\n", 1, "expected 3 pieces, got 2"),
            ("p 1 1 2\np 2 3\np 3 5 7\n", 2, "expected 3 integers, got ['2', '3']"),
            ("p 1 1 2\np 2 3 4 6\np 3 5 7\n", 2,
             "expected 3 integers, got ['2', '3', '4', '6']"),
            ("p 1 1 2\np 2 3 4\np 3 5 y\n", 3, "expected integers, got ['3', '5', 'y']")):
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
    # a repeated header record is refused at its line, equal value or not
    last = len(text.splitlines()) + 1
    for bad, lineno, tag in ((text.replace(f"slides {n}\n", f"slides {n}\nslides {n}\n"),
                              3, "slides"),
                             (text.replace(f"slides {n}\n", f"slides 7\nslides {n}\n"),
                              3, "slides"),
                             (text + f"slides {n}\n", last, "slides"),
                             (text.replace("strategy hamilton\n",
                                           "strategy hamilton\nstrategy hamilton\n"),
                              2, "strategy"),
                             (text + "strategy ear\n", last, "strategy")):
        with pytest.raises(formats.ParseError) as ei:
            formats.parse_plan(bad, hex7)
        assert str(ei.value) == f"line {lineno}: repeated {tag} record"
    with pytest.raises(formats.ParseError) as ei:
        formats.parse_sequence(text, hex7)
    assert str(ei.value) == "line 1: unknown record 'strategy'"


class _IntReads(dict):
    """The reference token table: it holds no entry, so every token reads
    by `int()`."""

    def __init__(self, entries):
        super().__init__()

    def __missing__(self, token):
        return int(token)


def _outcome(read):
    """What `read()` returns, or the line and message of its ParseError."""
    try:
        return read()
    except formats.ParseError as exc:
        return exc.line, str(exc)


_ACCEPTED = ["007", "+3", "-1", "1_0", "٣"]
_REFUSED = ["x", "1.0", "0x1", "1__0"]


@settings(max_examples=200, deadline=None)
@given(token=st.one_of(st.integers(0, 7).map(str), st.sampled_from(_ACCEPTED + _REFUSED)),
       record=st.sampled_from(["s", "p", "placement"]), seed=st.integers(0, 2 ** 16),
       field=st.integers(1, 3))
def test_readers_read_tokens_as_int_does(hex7, token, record, seed, field):
    """A token put into one `s` record of a plan, one `p` record of its
    start or one `p` record of a placement reads as a reader built on
    `int()` reads it: to `int(token)`, or to the same ParseError, line and
    message. A plan's moves read back as plain tuples."""
    rng = random.Random(seed)
    start = random_placement(hex7, rng)
    cur, moves = start, []
    for _ in range(6):
        mv = rng.choice(legal_moves(cur))
        cur = slide(cur, mv)
        moves.append(mv)
    text = (formats.serialize_placement(start) if record == "placement"
            else formats.serialize_plan("hamilton", start, moves))
    lines = text.splitlines()
    at = [k for k, line in enumerate(lines) if line.split()[0] == record[0]]
    j = rng.randrange(len(at))                 # the j-th record of its kind
    i = at[j]
    parts = lines[i].split()

    def read(word):
        parts[field] = word
        lines[i] = " ".join(parts)
        text = "\n".join(lines) + "\n"
        return _outcome(lambda: formats.parse_placement(text, hex7) if record == "placement"
                        else formats.parse_plan(text, hex7))

    got = read(token)
    with mock.patch.object(formats, "_Ids", _IntReads):
        assert got == read(token)
    try:
        value = int(token)
    except ValueError:
        assert got == (i + 1, f"line {i + 1}: expected integers, got {parts[1:]!r}")
        return
    assert got == read(str(value))
    if record == "s":
        _, back, read_moves = got
        assert back == start and read_moves[j][field - 1] == value
        assert all(type(m) is tuple for m in read_moves)
        read_moves[j] = moves[j]
        assert read_moves == moves


# the line breaks of `str.splitlines`, "\n" aside
_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_LAYOUTS = ["comment", "blank", "whitespace", "leading space", "trailing space", "tab",
            "double space", "extra field", "extra last field", "missing field", "bad token",
            "s token", "padded",
            "no final newline", "line break", "break inside", "s before start",
            "header after moves"]


def _relayout(rows, layout, r):
    """`rows`, [line, line end] pairs, with one `layout` change at a place `r` picks."""
    i = r % len(rows)
    line = rows[i][0]
    words = line.split(" ")
    j = r // len(rows) % len(words)
    if layout in ("comment", "blank", "whitespace"):
        rows.insert(i, [{"comment": "# note", "blank": "", "whitespace": " \t "}[layout], "\n"])
    elif layout == "leading space":
        rows[i][0] = " " + line
    elif layout == "trailing space":
        rows[i][0] = line + " "
    elif layout in ("tab", "double space", "break inside"):
        gap = {"tab": "\t", "double space": "  "}.get(layout) or _BREAKS[r % len(_BREAKS)]
        rows[i][0] = " ".join(words[:j]) + gap + " ".join(words[j:])
    elif layout == "extra field":
        rows[i][0] = line + " 9"
    elif layout == "extra last field":
        rows[-1][0] += " 9"
    elif layout == "missing field":
        rows[i][0] = " ".join(words[:-1])
    elif layout in ("bad token", "s token", "padded"):
        words[j] = {"bad token": "x", "s token": "s", "padded": "00" + words[j]}[layout]
        rows[i][0] = " ".join(words)
    elif layout == "no final newline":
        rows[-1][1] = ""
    elif layout == "line break":
        rows[i][1] = _BREAKS[r % len(_BREAKS)]
    elif layout == "s before start":
        moves = [row for row in rows if row[0].startswith("s ")]
        if moves:
            rows.insert(next((k for k, row in enumerate(rows) if "start" in row[0]), 0),
                        list(moves[r % len(moves)]))
    else:
        header = [row for row in rows if row[0].startswith(("strategy", "slides"))]
        if header:
            rows.remove(header[r % len(header)])
            rows.append(header[r % len(header)])


@settings(max_examples=300, deadline=None)
@given(host=st.sampled_from(["hex7", "pentagon"]), seed=st.integers(0, 2 ** 32 - 1),
       steps=st.integers(0, 12), plan=st.booleans(),
       changes=st.lists(st.tuples(st.sampled_from(_LAYOUTS), st.integers(0, 2 ** 16)),
                        max_size=3))
def test_readers_read_any_layout_as_the_line_loop_does(hex7, pentagon, host, seed, steps,
                                                       plan, changes):
    """A plan or sequence file as written, or laid out another way, reads
    as the line loop alone reads it: to the same strategy, start and moves,
    or to the same ParseError, line and message. The writers' own output
    takes the one-split path for its moves."""
    g = {"hex7": hex7, "pentagon": pentagon}[host]
    rng = random.Random(seed)
    start = random_placement(g, rng)
    cur, moves = start, []
    for _ in range(steps):
        mv = rng.choice(legal_moves(cur))
        cur = slide(cur, mv)
        moves.append(tuple(mv))
    text = (formats.serialize_plan("ear", start, moves) if plan
            else formats.serialize_sequence(start, moves))
    if not changes:
        ids = formats._Ids({str(i): i for i in range(g.num_vertices + 1)})
        assert formats._move_block(text, ids)[1] == moves
    rows = [[line, "\n"] for line in text.splitlines()]
    for layout, r in changes:
        _relayout(rows, layout, r)
    text = "".join(line + end for line, end in rows)

    def read():
        return (_outcome(lambda: formats.parse_plan(text, g)),
                _outcome(lambda: formats.parse_sequence(text, g)))

    got = read()
    with mock.patch.object(formats, "_move_block", lambda text, ids: (text, [])):
        assert got == read()


_HEX7_HEAD = "strategy ear\nslides 3\nstart\np 1 1 2\np 2 3 4\np 3 5 7\n"


@pytest.mark.parametrize("text", [
    _HEX7_HEAD + "s 1 2 3 s\ns 3 4\n",     # 4m tokens, `s` every fourth, one inside a line
    _HEX7_HEAD + "s 1 2 3\ns 3 4\n1",      # 4m tokens, the last line no move and no "\n"
    _HEX7_HEAD + "s 1 2 3\n1 3 4 1\n",     # 4m tokens, a line that is no `s` record
    _HEX7_HEAD + "s 1 2\r3\ns 3 4 1\n",    # a line break that `str.split` reads as a space
    _HEX7_HEAD + "s 1 2 3\ns 3 4 1 5\n",   # 4m + 1 tokens, the three after each fourth convert
    "p 1 2 3\n",                          # one line of four tokens, but no `s ` line
], ids=["inner-s", "no-final-newline", "other-record", "carriage-return", "five-tokens",
        "no-move-line"])
def test_move_block_refuses_lookalike_layouts(hex7, text):
    """A text that passes all but one of the move block's checks goes
    wholly through the line loop, and reads as the line loop alone reads it."""
    ids = formats._Ids({str(i): i for i in range(hex7.num_vertices + 1)})
    assert formats._move_block(text, ids) == (text, [])

    def read():
        return (_outcome(lambda: formats.parse_plan(text, hex7)),
                _outcome(lambda: formats.parse_sequence(text, hex7)))

    got = read()
    with mock.patch.object(formats, "_move_block", lambda text, ids: (text, [])):
        assert got == read()


@settings(max_examples=100, deadline=None)
@given(moves=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)),
                      max_size=30))
def test_serialize_moves_formats_each_move(moves):
    """`serialize_moves` writes one `s` line a move, the empty list
    included, and gives `SlideMove`s and plain triples the same text."""
    text = formats.serialize_moves(moves)
    assert text == "".join("s %d %d %d\n" % m for m in moves)
    assert formats.serialize_moves([SlideMove(*m) for m in moves]) == text
    assert formats.parse_moves(text) == moves
