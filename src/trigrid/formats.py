"""Line-oriented text formats for graphs, placements, move sequences and
plan files.

All records are single ASCII lines; `#` starts a comment. Every reader
makes one pass over its text: each line is split once, dispatched on its
tag and converted once. A `ParseError` names the offending line's number
in the text given to the parser, which for a plan or sequence is the
whole file.
"""

from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .grid import Edge, TriGridGraph, build_abstract, build_graph, edge_key
from .placement import Move, Placement, PlacementError


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _records(text: str) -> Iterator[Tuple[int, List[str]]]:
    """(line number, fields) of each line that is neither blank nor a comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if parts and parts[0][0] != "#":
            yield lineno, parts


def _int_error(fields: Sequence[str], lineno: int, count: int) -> ParseError:
    """The error for fields that are not exactly `count` integers."""
    if len(fields) != count:
        return ParseError(f"expected {count} integers, got {fields!r}", lineno)
    return ParseError(f"expected integers, got {fields!r}", lineno)


def _ints(fields: Sequence[str], lineno: int, count: int) -> List[int]:
    """The fields as exactly `count` integers."""
    if len(fields) == count:
        try:
            return [int(x) for x in fields]
        except ValueError:
            pass
    raise _int_error(fields, lineno, count)


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
    seen = set()
    abstract_vs = []
    abstract_es = []
    for lineno, parts in _records(text):
        tag = parts[0]
        if tag == "v":
            vid, x, y = _ints(parts[1:], lineno, 3)
            if vid in points:
                raise ParseError(f"duplicate vertex id {vid}", lineno)
            if (x, y) in seen:
                raise ParseError(f"duplicate lattice point ({x}, {y})", lineno)
            points[vid] = (x, y)
            seen.add((x, y))
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


class _Ids(dict):
    """`str(i) -> i` for ids 0..|V|; any other token reads, or fails, as `int()` does."""

    def __missing__(self, token: str) -> int:
        return int(token)


class _Pieces:
    """The `p label u v` records of one placement, each checked on its own
    line: three integers, a new label, a host edge, and no vertex that an
    earlier piece covers."""

    def __init__(self, g: TriGridGraph):
        self.g = g
        self.by_label: Dict[int, Edge] = {}
        self.owner: Dict[int, int] = {}          # covered vertex -> label

    def add(self, parts: List[str], lineno: int) -> None:
        label, u, v = _ints(parts[1:], lineno, 3)
        if label in self.by_label:
            raise ParseError(f"duplicate label {label}", lineno)
        e = edge_key(u, v)
        if e not in self.g.edges:
            raise ParseError(f"piece edge {e} not in graph", lineno)
        for w in e:
            if w in self.owner:
                raise ParseError(f"piece {label} overlaps piece "
                                 f"{self.owner[w]} at vertex {w}", lineno)
            self.owner[w] = label
        self.by_label[label] = e

    def placement(self, lineno: int) -> Placement:
        """The placement of the checked pieces, labels dense 1..n and n
        the host's piece count; `lineno` is the line block errors name."""
        labels = sorted(self.by_label)
        if labels != list(range(1, len(labels) + 1)):
            raise ParseError("labels must be dense 1..n", lineno)
        try:
            return Placement.covering(self.g, tuple(map(self.by_label.get, labels)))
        except PlacementError as exc:
            raise ParseError(str(exc), lineno) from None


def parse_placement(text: str, g: TriGridGraph) -> Placement:
    pieces = _Pieces(g)
    for lineno, parts in _records(text):
        if parts[0] != "p":
            raise ParseError(f"unknown record {parts[0]!r}", lineno)
        pieces.add(parts, lineno)
    return pieces.placement(1)


# ---------------------------------------------------------------------------
# moves and sequences

def serialize_moves(moves: Sequence[Move]) -> str:
    """One `s label kept dest` line a move, all formatted in one operation."""
    return "s %d %d %d\n" * len(moves) % tuple(chain.from_iterable(moves))


def parse_moves(text: str) -> List[Move]:
    out = []
    for lineno, parts in _records(text):
        if parts[0] != "s":
            raise ParseError(f"unknown record {parts[0]!r}", lineno)
        out.append(tuple(_ints(parts[1:], lineno, 3)))
    return out


def serialize_sequence(start: Placement, moves: Sequence[Move]) -> str:
    return "start\n" + serialize_placement(start) + serialize_moves(moves)


def _read_sequence(text: str, g: TriGridGraph,
                   plan: bool) -> Tuple[str, Placement, List[Move]]:
    """The one pass behind `parse_sequence` and, with `plan`, `parse_plan`:
    the strategy ("" unless `plan`), the start placement and the moves.

    `p` records belong to the start block, from a `start` line up to the
    next `s` record; `s` records are moves wherever they stand. With
    `plan`, `strategy` and `slides` header records may stand anywhere;
    both must be present, and the slide count must match the moves. Each
    move is a plain triple of `_Ids` lookups; each `p` record reads by `int()`.
    """
    strategy: Optional[str] = None
    slides: Optional[int] = None
    slides_line = start_line = 0
    ids = _Ids({str(i): i for i in range(g.num_vertices + 1)})
    pieces = _Pieces(g)
    moves: List[Move] = []
    append = moves.append
    in_start = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "s":
            try:
                _, label, kept, dest = parts
                append((ids[label], ids[kept], ids[dest]))
            except ValueError:
                raise _int_error(parts[1:], lineno, 3) from None
            in_start = False
        elif tag == "p" and in_start:
            pieces.add(parts, lineno)
        elif tag == "start" and len(parts) == 1:
            in_start = True
            start_line = start_line or lineno
        elif tag[0] == "#":
            continue
        elif plan and tag == "strategy":
            if len(parts) != 2:
                raise ParseError(f"expected one strategy name, got {parts[1:]!r}",
                                 lineno)
            strategy = parts[1]
        elif plan and tag == "slides":
            (slides,) = _ints(parts[1:], lineno, 1)
            slides_line = lineno
        else:
            raise ParseError(f"unknown record {tag!r}", lineno)
    if plan and (strategy is None or slides is None):
        raise ParseError("missing plan header", 1)
    if plan and slides != len(moves):
        raise ParseError(f"header says {slides} slides, file has {len(moves)}",
                         slides_line)
    return strategy or "", pieces.placement(start_line or 1), moves


def parse_sequence(text: str, g: TriGridGraph) -> Tuple[Placement, List[Move]]:
    """The start placement and moves of a sequence file."""
    return _read_sequence(text, g, plan=False)[1:]


# ---------------------------------------------------------------------------
# plans

def serialize_plan(strategy: str, start: Placement, moves: Sequence[Move]) -> str:
    return (f"strategy {strategy}\nslides {len(moves)}\n"
            + serialize_sequence(start, moves))


def parse_plan(text: str, g: TriGridGraph) -> Tuple[str, Placement, List[Move]]:
    """The strategy, start placement and moves of a plan file, read in one
    pass over its lines; a `ParseError` names the offending line of the
    file."""
    return _read_sequence(text, g, plan=True)
