"""Line-oriented text formats for graphs, placements, move sequences and
plan files.

All records are single ASCII lines; `#` starts a comment. Parsers report
the offending line number on malformed input.
"""

from typing import List, Optional, Sequence, Tuple

from .grid import TriGridGraph, build_abstract, build_graph, edge_key
from .placement import Placement, SlideMove, SlideSequence


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _records(text: str) -> List[Tuple[int, List[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((i, line.split()))
    return out


def _ints(parts: Sequence[str], lineno: int,
          count: Optional[int] = None) -> List[int]:
    """The fields as integers; exactly `count` of them when given."""
    if count is not None and len(parts) != count:
        raise ParseError(f"expected {count} integers, got {parts!r}", lineno)
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise ParseError(f"expected integers, got {parts!r}", lineno)


# ---------------------------------------------------------------------------
# graphs

def serialize_graph(g: TriGridGraph) -> str:
    lines = []
    if g.is_lattice:
        for v in g.vertex_ids:
            x, y = g.point_of(v)
            lines.append(f"v {v} {x} {y}")
    else:
        for v in g.vertex_ids:
            lines.append(f"av {v}")
        for u, v in sorted(g.edges):
            lines.append(f"ae {u} {v}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str, name: str = "") -> TriGridGraph:
    points = {}
    abstract_vs = []
    abstract_es = []
    for lineno, parts in _records(text):
        tag = parts[0]
        if tag == "v":
            vid, x, y = _ints(parts[1:], lineno, 3)
            if vid in points:
                raise ParseError(f"duplicate vertex id {vid}", lineno)
            points[vid] = (x, y)
        elif tag == "av":
            (vid,) = _ints(parts[1:], lineno, 1)
            abstract_vs.append(vid)
        elif tag == "ae":
            u, v = _ints(parts[1:], lineno, 2)
            abstract_es.append(edge_key(u, v))
        else:
            raise ParseError(f"unknown record {tag!r}", lineno)
    if points and (abstract_vs or abstract_es):
        raise ParseError("mixed lattice and abstract records", 1)
    if points:
        if sorted(points) != list(range(1, len(points) + 1)):
            raise ParseError("vertex ids must be dense 1..|V|", 1)
        pts = [points[v] for v in sorted(points)]
        g = build_graph(pts, name=name)
        if [g.point_of(v) for v in g.vertex_ids] != pts:
            raise ParseError("vertex ids must follow lexicographic point "
                             "order (x, then y)", 1)
        return g
    if sorted(abstract_vs) != list(range(1, len(abstract_vs) + 1)):
        raise ParseError("vertex ids must be dense 1..|V|", 1)
    return build_abstract(len(abstract_vs), abstract_es, name=name)


# ---------------------------------------------------------------------------
# placements

def serialize_placement(p: Placement) -> str:
    lines = [f"p {label} {u} {v}"
             for label, (u, v) in enumerate(p.pieces, start=1)]
    return "\n".join(lines) + "\n"


def parse_placement(text: str, g: TriGridGraph) -> Placement:
    pieces = {}
    for lineno, parts in _records(text):
        if parts[0] != "p":
            raise ParseError(f"unknown record {parts[0]!r}", lineno)
        label, u, v = _ints(parts[1:], lineno, 3)
        if label in pieces:
            raise ParseError(f"duplicate label {label}", lineno)
        pieces[label] = edge_key(u, v)
    if sorted(pieces) != list(range(1, len(pieces) + 1)):
        raise ParseError("labels must be dense 1..n", 1)
    return Placement.make(g, [pieces[i] for i in sorted(pieces)])


# ---------------------------------------------------------------------------
# moves and sequences

def serialize_moves(moves: Sequence[SlideMove]) -> str:
    return "\n".join(f"s {m.label} {m.kept_vertex} {m.dest_vertex}"
                     for m in moves) + ("\n" if moves else "")


def parse_moves(text: str) -> List[SlideMove]:
    out = []
    for lineno, parts in _records(text):
        if parts[0] != "s":
            raise ParseError(f"unknown record {parts[0]!r}", lineno)
        label, kept, dest = _ints(parts[1:], lineno, 3)
        out.append(SlideMove(label, kept, dest))
    return out


def serialize_sequence(seq: SlideSequence) -> str:
    return ("start\n" + serialize_placement(seq.start)
            + serialize_moves(seq.moves))


def parse_sequence(text: str, g: TriGridGraph) -> SlideSequence:
    lines = text.splitlines()
    start_lines: List[str] = []
    move_lines: List[str] = []
    mode = None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "start":
            mode = "p"
            continue
        if line.split()[0] == "s":
            mode = "s"
        (start_lines if mode == "p" else move_lines).append(line)
    start = parse_placement("\n".join(start_lines), g)
    moves = parse_moves("\n".join(move_lines))
    return SlideSequence(start, tuple(moves))


# ---------------------------------------------------------------------------
# plans

def serialize_plan(strategy: str, seq: SlideSequence) -> str:
    return (f"strategy {strategy}\nslides {len(seq.moves)}\n"
            + serialize_sequence(seq))


def parse_plan(text: str, g: TriGridGraph) -> Tuple[str, SlideSequence]:
    strategy = None
    slides = None
    rest = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("strategy "):
            strategy = line.split()[1]
        elif line.startswith("slides "):
            (slides,) = _ints(line.split()[1:], lineno, 1)
        else:
            rest.append(raw)
    if strategy is None or slides is None:
        raise ParseError("missing plan header", 1)
    seq = parse_sequence("\n".join(rest), g)
    if len(seq.moves) != slides:
        raise ParseError(f"header says {slides} slides, file has "
                         f"{len(seq.moves)}", 1)
    return strategy, seq
