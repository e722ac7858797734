"""Command-line interface: gen | check | plan | verify | oracle | render.

Exit codes: 0 success, 2 precondition refusal (a host, plan or budget
outside what the command handles, a host too big for a recursive search,
or a plan too big for the memory the process may use), 3 parse error
(naming the line of the file; a file that is not UTF-8 text is one) or a
file that cannot be read or written, 4 internal invariant failure (a
planner that raises a placement or matching error, or whose plan fails
its replay). Commands raise; `main` alone maps each error family to its
exit code and one stderr line. Set TRIGRID_LOG=1 (any non-empty value)
for a one-line summary of each plan on stderr.
"""

import argparse
import errno
import io
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import formats
from .ear_planner import plan_ear
from .grid import (GridError, TriGridGraph, degree6_vertices, generate, hole_count,
                   is_locally_connected, is_star_of_david, is_two_connected)
from .ears import EarError, find_admissible
from .hc_planner import plan_hamilton
from .matching import MatchingError, is_factor_critical
from .oracle import (DEFAULT_VERTEX_BOUND, OracleBudgetError, bfs_component,
                     export_csv, is_reconfigurable_bruteforce)
from .placement import PlacementError, VerifyReport, verify_sequence
from .plans import PlanError, PlanInvariantError
from .render import render_graph, render_plan_frames

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4

EAR_BRANCHES = ("pentagon-core", "diamond-core", "window", "spare-edge")


class UsageError(Exception):
    """A command line that parses but asks for what the command cannot do."""


def _read(path: str) -> str:
    """The file's text; a byte sequence that is not UTF-8 is a parse error
    naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise formats.ParseError(f"{path}: byte {data[exc.start]:#04x} is not "
                                 f"UTF-8 text", line) from None


def _load_graph(path: str) -> TriGridGraph:
    return formats.parse_graph(_read(path))


def _write(out: Optional[str], text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _param(kv: str) -> Tuple[str, int]:
    key, _, value = kv.partition("=")
    try:
        return key, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected key=integer, got {kv!r}")


def cmd_gen(args) -> int:
    g = generate(args.kind, **dict(args.param or []))
    _write(args.out, formats.serialize_graph(g))
    return EXIT_OK


def _has_admissible_core(g: TriGridGraph) -> bool:
    try:
        find_admissible(g)
        return True
    except EarError:
        return False


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    fc = is_factor_critical(g)
    tc = is_two_connected(g)
    lc = g.is_lattice and is_locally_connected(g)
    sod = is_star_of_david(g)
    deg6 = sorted(degree6_vertices(g)) if g.is_lattice else []
    lines = [
        f"vertices {g.num_vertices}",
        f"edges {len(g.edges)}",
        f"two_connected {tc}",
        f"factor_critical {fc}",
        f"locally_connected {lc}",
        f"star_of_david {sod}",
        f"degree6_vertices {' '.join(map(str, deg6)) if deg6 else '-'}",
        f"holes {hole_count(g) if g.is_lattice else '-'}",
    ]
    if lc and not sod:
        lines.append("sufficient_condition locally-connected (cycle planner)")
    elif fc and tc and _has_admissible_core(g):
        lines.append("sufficient_condition factor-critical with admissible "
                     "core (ear planner)")
    else:
        lines.append("sufficient_condition none")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _pick_strategy(g: TriGridGraph, requested: str) -> str:
    if requested != "auto":
        return requested
    # `cmd_plan` has refused the Star of David, the cycle planner's one exception
    return "hamilton" if g.is_lattice and is_locally_connected(g) else "ear"


def cmd_plan(args) -> int:
    g = _load_graph(args.graph)
    if is_star_of_david(g):
        raise PlanError("the Star of David graph is not reconfigurable")
    p = formats.parse_placement(_read(args.start), g)
    q = formats.parse_placement(_read(args.target), g)
    planner = plan_hamilton if _pick_strategy(g, args.strategy) == "hamilton" else plan_ear
    # both planners return only through `plans.finish_plan`, which replays
    # the plan under the four checks and compares its end with q
    report = planner(g, p, q)
    _write(args.out, formats.serialize_plan(report.strategy, report.start, report.moves))
    if os.environ.get("TRIGRID_LOG"):
        line = f"trigrid: plan strategy {report.strategy} slides {report.slide_count}"
        if report.strategy == "ear":
            branches = Counter(e.get("kind") or e.get("branch")
                               for e in report.recursion_trace)
            line += "".join(f" {b} {branches[b]}" for b in EAR_BRANCHES)
        line += f" cut {report.stats['uncut_slides'] - report.slide_count}"
        line += "".join(f" {k} {report.stats[k]}"
                        for k in ("swaps", "gadgets", "fallbacks", "windows"))
        print(line, file=sys.stderr)
    print(f"verified {report.slide_count} slides ({report.strategy})",
          file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    strategy, start, moves = formats.parse_plan(_read(args.plan), g)
    expected = None
    if args.target:
        expected = formats.parse_placement(_read(args.target), g)
    report = verify_sequence(start, moves, expected_end=expected)
    print(f"strategy {strategy}")
    print(f"moves {report.move_count}")
    print(f"ok {report.ok}")
    return EXIT_OK if report.ok else _plan_failed(report)


def _plan_failed(report: VerifyReport) -> int:
    """EXIT_REFUSED, after one stderr line naming a failed plan's first bad
    move and why."""
    where = "" if report.first_bad_index is None else f"move {report.first_bad_index}: "
    print(f"failed: {where}{report.message}", file=sys.stderr)
    return EXIT_REFUSED


def cmd_oracle(args) -> int:
    if args.out and not args.start:
        raise UsageError("oracle --out writes the component of --start, so it needs --start")
    g = _load_graph(args.graph)
    if args.start:
        p = formats.parse_placement(_read(args.start), g)
        comp = bfs_component(g, p, vertex_bound=args.max_vertices)
        if args.out:
            rows = io.StringIO()
            export_csv(comp, rows)
            _write(args.out, rows.getvalue())
        print(f"component_size {comp.size}")
        print(f"eccentricity {comp.eccentricity}")
    else:
        ok = is_reconfigurable_bruteforce(g, vertex_bound=args.max_vertices)
        print(f"reconfigurable {ok}")
    return EXIT_OK


def cmd_render(args) -> int:
    g = _load_graph(args.graph)
    if args.plan:
        if args.out == "-":
            raise OSError(errno.EINVAL, "a plan's frames are files, one per state, "
                          "not stdout", "-")
        _, start, moves = formats.parse_plan(_read(args.plan), g)
        check = verify_sequence(start, moves)
        if not check.ok:
            return _plan_failed(check)
        frames = render_plan_frames(g, start, moves)
        base = Path(args.out or "plan.svg")
        for i, svg in enumerate(frames):
            path = base.with_name(f"{base.stem}-{i:04d}{base.suffix}")
            path.write_text(svg)
        print(f"wrote {len(frames)} frames", file=sys.stderr)
        return EXIT_OK
    p = None
    if args.placement:
        p = formats.parse_placement(_read(args.placement), g)
    _write(args.out, render_graph(g, p))
    return EXIT_OK


def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its name -> command parser map."""
    ap = argparse.ArgumentParser(prog="trigrid", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    commands: Dict[str, argparse.ArgumentParser] = {}

    def command(name, fn, summary):
        cp = commands[name] = sub.add_parser(name, help=summary)
        cp.set_defaults(fn=fn)
        return cp

    g = command("gen", cmd_gen, "generate a named instance")
    g.add_argument("kind")
    g.add_argument("--param", action="append", type=_param, metavar="key=value")
    g.add_argument("--out")

    c = command("check", cmd_check, "report graph properties")
    c.add_argument("graph")
    c.add_argument("--out")

    p = command("plan", cmd_plan, "plan a reconfiguration")
    p.add_argument("graph")
    p.add_argument("start")
    p.add_argument("target")
    p.add_argument("--strategy", choices=["ear", "hamilton", "auto"],
                   default="auto")
    p.add_argument("--out")

    v = command("verify", cmd_verify, "replay and check a plan file")
    v.add_argument("graph")
    v.add_argument("plan")
    v.add_argument("--target")

    o = command("oracle", cmd_oracle, "exhaustive state-space search")
    o.add_argument("graph")
    o.add_argument("--start")
    o.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_BOUND,
                   help="refuse hosts with more vertices (default %(default)s)")
    o.add_argument("--out")

    r = command("render", cmd_render, "draw graph/placement/plan as SVG")
    r.add_argument("graph")
    r.add_argument("--placement")
    r.add_argument("--plan")
    r.add_argument("--out")
    return ap, commands


# built once per process: each `parse_args` fills a fresh namespace
_PARSER, _COMMANDS = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    # the first word's command parser parses the rest; the top-level parser parses
    # or reports any other argv: none, `-h`, an unknown command, words left over
    argv = sys.argv[1:] if argv is None else argv
    cp = _COMMANDS.get(argv[0]) if argv else None
    args, extras = cp.parse_known_args(argv[1:]) if cp else (None, None)
    if cp is None or extras:
        args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except formats.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read/write {exc.filename or '-'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_PARSE
    except (GridError, PlanError, OracleBudgetError, UsageError, RecursionError,
            MemoryError) as exc:
        # so is a host too big for a recursive search or a plan for the memory
        print(f"refused: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_REFUSED
    except (PlanInvariantError, PlacementError, MatchingError, AssertionError) as exc:
        # the inputs parsed, so a bad placement or matching here is a planner's
        print(f"internal invariant failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
