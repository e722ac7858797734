"""Command-line interface: gen | check | plan | verify | oracle | render.

Exit codes: 0 success, 2 precondition refusal, 3 parse error, 4 internal
invariant failure. Set TRIGRID_LOG=1 for trace output on stderr.
"""

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from . import formats
from .ear_planner import PlanError, plan_ear
from .grid import (GridError, TriGridGraph, degree6_vertices, generate,
                   is_locally_connected, is_star_of_david, is_two_connected)
from .ears import EarError
from .hamilton import HamiltonError
from .hc_planner import plan_hamilton
from .matching import is_factor_critical
from .oracle import (OracleBudgetError, bfs_component, export_csv,
                     is_reconfigurable_bruteforce)
from .placement import PlacementError, verify_sequence
from .render import render_graph, render_plan_frames

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4

log = logging.getLogger("trigrid")


def _setup_logging() -> None:
    level = logging.DEBUG if os.environ.get("TRIGRID_LOG") else logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="trigrid: %(message)s")


def _load_graph(path: str) -> TriGridGraph:
    return formats.parse_graph(Path(path).read_text(), name=Path(path).stem)


def _write(out: Optional[str], text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


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
    from .ears import NoAdmissibleError, find_admissible
    try:
        find_admissible(g)
        return True
    except NoAdmissibleError:
        return False


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    fc = is_factor_critical(g)
    lc = g.is_lattice and is_locally_connected(g)
    sod = g.is_lattice and is_star_of_david(g)
    deg6 = sorted(degree6_vertices(g)) if g.is_lattice else []
    lines = [
        f"vertices {g.num_vertices}",
        f"edges {len(g.edges)}",
        f"two_connected {is_two_connected(g)}",
        f"factor_critical {fc}",
        f"locally_connected {lc}",
        f"star_of_david {sod}",
        f"degree6_vertices {' '.join(map(str, deg6)) if deg6 else '-'}",
        f"holes {len(g.holes) if g.is_lattice else '-'}",
    ]
    if lc and not sod:
        lines.append("sufficient_condition locally-connected (cycle planner)")
    elif fc and is_two_connected(g) and _has_admissible_core(g):
        lines.append("sufficient_condition factor-critical with admissible "
                     "core (ear planner)")
    else:
        lines.append("sufficient_condition none")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _pick_strategy(g: TriGridGraph, requested: str) -> str:
    if requested != "auto":
        return requested
    if g.is_lattice and is_locally_connected(g) and not is_star_of_david(g):
        return "hamilton"
    return "ear"


def cmd_plan(args) -> int:
    g = _load_graph(args.graph)
    if g.is_lattice and is_star_of_david(g):
        print("refused: the Star of David graph is not reconfigurable",
              file=sys.stderr)
        return EXIT_REFUSED
    p = formats.parse_placement(Path(args.start).read_text(), g)
    q = formats.parse_placement(Path(args.target).read_text(), g)
    strategy = _pick_strategy(g, args.strategy)
    try:
        if strategy == "hamilton":
            report = plan_hamilton(g, p, q)
        else:
            report = plan_ear(g, p, q)
    except (PlanError, EarError, HamiltonError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    check = verify_sequence(report.sequence, expected_end=q)
    if not check.ok:
        print(f"internal error: produced plan fails verification: "
              f"{check.message}", file=sys.stderr)
        return EXIT_INTERNAL
    _write(args.out, formats.serialize_plan(report.strategy, report.sequence))
    print(f"verified {report.slide_count} slides ({report.strategy})",
          file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    strategy, seq = formats.parse_plan(Path(args.plan).read_text(), g)
    expected = None
    if args.target:
        expected = formats.parse_placement(Path(args.target).read_text(), g)
    report = verify_sequence(seq, expected_end=expected)
    print(f"strategy {strategy}")
    print(f"moves {report.move_count}")
    print(f"ok {report.ok}")
    return EXIT_OK if report.ok else EXIT_REFUSED


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    try:
        if args.start:
            p = formats.parse_placement(Path(args.start).read_text(), g)
            comp = bfs_component(g, p, vertex_bound=args.budget_states)
            if args.out:
                with open(args.out, "w") as fh:
                    export_csv(comp, fh)
            print(f"component_size {comp.size}")
            print(f"eccentricity {comp.eccentricity}")
        else:
            ok = is_reconfigurable_bruteforce(g, vertex_bound=args.budget_states)
            print(f"reconfigurable {ok}")
    except OracleBudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    return EXIT_OK


def cmd_render(args) -> int:
    g = _load_graph(args.graph)
    if args.plan:
        _, seq = formats.parse_plan(Path(args.plan).read_text(), g)
        frames = render_plan_frames(g, seq)
        base = Path(args.out or "plan.svg")
        for i, svg in enumerate(frames):
            path = base.with_name(f"{base.stem}-{i:04d}{base.suffix}")
            path.write_text(svg)
        print(f"wrote {len(frames)} frames", file=sys.stderr)
        return EXIT_OK
    p = None
    if args.placement:
        p = formats.parse_placement(Path(args.placement).read_text(), g)
    _write(args.out, render_graph(g, p))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trigrid", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a named instance")
    g.add_argument("kind")
    g.add_argument("--param", action="append", type=_param, metavar="key=value")
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)

    c = sub.add_parser("check", help="report graph properties")
    c.add_argument("graph")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_check)

    p = sub.add_parser("plan", help="plan a reconfiguration")
    p.add_argument("graph")
    p.add_argument("start")
    p.add_argument("target")
    p.add_argument("--strategy", choices=["ear", "hamilton", "auto"],
                   default="auto")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_plan)

    v = sub.add_parser("verify", help="replay and check a plan file")
    v.add_argument("graph")
    v.add_argument("plan")
    v.add_argument("--target")
    v.set_defaults(fn=cmd_verify)

    o = sub.add_parser("oracle", help="exhaustive state-space search")
    o.add_argument("graph")
    o.add_argument("--start")
    o.add_argument("--budget-states", type=int, default=13,
                   help="vertex bound for the search")
    o.add_argument("--out")
    o.set_defaults(fn=cmd_oracle)

    r = sub.add_parser("render", help="draw graph/placement/plan as SVG")
    r.add_argument("graph")
    r.add_argument("--placement")
    r.add_argument("--plan")
    r.add_argument("--out")
    r.set_defaults(fn=cmd_render)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (formats.ParseError, PlacementError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GridError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
