import hashlib
import io
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigrid
from trigrid import formats
from trigrid.cli import main
from trigrid.grid import build_graph, hexagon_points, star_of_david_points
from trigrid.hc_planner import plan_hamilton
from trigrid.matching import (MatchingError, enumerate_near_perfect_matchings,
                              near_perfect_matching)
from trigrid.placement import Placement, PlacementError, verify_sequence
from trigrid.render import render_graph

from support import CROSSING_ARCS_EDGES, replay


def _gen(tmp_path, kind, *params):
    out = tmp_path / f"{kind}.graph"
    argv = ["gen", kind, "--out", str(out)]
    for pv in params:
        argv += ["--param", pv]
    assert main(argv) == 0
    return out


def _write_placement(tmp_path, name, g, edges):
    p = Placement.make(g, edges)
    path = tmp_path / name
    path.write_text(formats.serialize_placement(p))
    return path


def test_gen_and_check(tmp_path, capsys):
    gpath = _gen(tmp_path, "pentagon")
    assert main(["check", str(gpath)]) == 0
    lines = capsys.readouterr().out
    assert "vertices 5" in lines
    assert "factor_critical True" in lines


def test_plan_verify_render_pipeline(tmp_path, capsys):
    gpath = _gen(tmp_path, "pentagon")
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, [(2, 3), (4, 5)])
    target = _write_placement(tmp_path, "t.p", g, [(4, 5), (1, 2)])
    plan = tmp_path / "out.plan"
    assert main(["plan", str(gpath), str(start), str(target),
                 "--out", str(plan)]) == 0
    assert main(["verify", str(gpath), str(plan),
                 "--target", str(target)]) == 0
    out = capsys.readouterr().out
    assert "ok True" in out
    svg = tmp_path / "pic.svg"
    assert main(["render", str(gpath), "--placement", str(start),
                 "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_render_without_placement_or_plan_draws_the_host(tmp_path):
    """With neither `--placement` nor `--plan`, `render` writes the bare
    host's picture, `render_graph(g)`."""
    gpath = _gen(tmp_path, "pentagon")
    svg = tmp_path / "host.svg"
    assert main(["render", str(gpath), "--out", str(svg)]) == 0
    assert svg.read_text() == render_graph(formats.parse_graph(gpath.read_text()))


@pytest.mark.parametrize("points", [[(0, 0), (1, 0), (0, 1)], [(0, 0)]],
                         ids=["triangle", "one-vertex"])
def test_plan_hosts_below_five_vertices(tmp_path, capsys, points):
    """`check` vouches for the cycle planner on the triangle and on a single
    vertex, so `plan` plans every pair there, start equal to target
    included, and `verify` accepts each plan."""
    g = build_graph(points)
    gpath = tmp_path / "small.graph"
    gpath.write_text(formats.serialize_graph(g))
    assert main(["check", str(gpath)]) == 0
    assert "sufficient_condition locally-connected (cycle planner)" in capsys.readouterr().out
    matchings = [sorted(m.edges) for m in enumerate_near_perfect_matchings(g)]
    assert len(matchings) == max(1, g.num_vertices)
    for i, start_edges in enumerate(matchings):
        for j, target_edges in enumerate(matchings):
            start = _write_placement(tmp_path, f"s{i}.p", g, start_edges)
            target = _write_placement(tmp_path, f"t{j}.p", g, target_edges)
            plan = tmp_path / f"{i}-{j}.plan"
            assert main(["plan", str(gpath), str(start), str(target),
                         "--out", str(plan)]) == 0
            assert main(["verify", str(gpath), str(plan), "--target", str(target)]) == 0
            assert "ok True" in capsys.readouterr().out


def test_plan_refuses_star_of_david(tmp_path):
    g = build_graph(star_of_david_points())
    gpath = tmp_path / "sod.graph"
    gpath.write_text(formats.serialize_graph(g))
    m = enumerate_near_perfect_matchings(g)[0]
    start = _write_placement(tmp_path, "s.p", g, sorted(m.edges))
    assert main(["plan", str(gpath), str(start), str(start)]) == 2


def _abstract_graph(tmp_path, name, n, edges):
    """An abstract host file with vertices 1..n and the given edges."""
    path = tmp_path / f"{name}.graph"
    path.write_text("".join(f"av {v}\n" for v in range(1, n + 1))
                    + "".join(f"ae {u} {v}\n" for u, v in edges))
    return path


def test_plan_hamilton_refuses_a_host_not_locally_connected(tmp_path, capsys):
    """`plan --strategy hamilton` on hex_with_hole(2), which is not locally
    connected, exits 2 with the cycle planner's refusal."""
    gpath = _gen(tmp_path, "hex_with_hole")
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, sorted(near_perfect_matching(g, 1).edges))
    capsys.readouterr()
    assert main(["plan", str(gpath), str(start), str(start), "--strategy", "hamilton"]) == 2
    assert capsys.readouterr().err == ("refused: cycle planner needs a "
                                       "locally-connected graph\n")


def test_plan_hamilton_refuses_a_host_with_no_hamilton_cycle(tmp_path, capsys):
    """`plan --strategy hamilton` on a bowtie, two triangles sharing vertex
    3, exits 2: the host has no Hamilton cycle."""
    gpath = _abstract_graph(tmp_path, "bowtie", 5,
                            [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, [(1, 2), (4, 5)])
    target = _write_placement(tmp_path, "t.p", g, [(1, 3), (4, 5)])
    capsys.readouterr()
    assert main(["plan", str(gpath), str(start), str(target), "--strategy", "hamilton"]) == 2
    assert capsys.readouterr().err == "refused: no Hamilton cycle found\n"


def test_oracle_on_a_host_with_no_placement(tmp_path, capsys):
    """The star K1,4 has no near-perfect matching, so no placement: `oracle`
    says it is not reconfigurable and exits 0."""
    gpath = _abstract_graph(tmp_path, "star", 5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    capsys.readouterr()
    assert main(["oracle", str(gpath)]) == 0
    assert capsys.readouterr().out == "reconfigurable False\n"


def test_oracle_cli(tmp_path, capsys):
    gpath = _gen(tmp_path, "pentagon")
    assert main(["oracle", str(gpath)]) == 0
    assert "reconfigurable True" in capsys.readouterr().out
    big = _gen(tmp_path, "chord_cycle", "n=8", "m=2")
    assert main(["oracle", str(big)]) == 2


def test_oracle_out_without_start_is_refused(tmp_path, capsys, monkeypatch):
    """`oracle --out` writes the component of `--start`, so without a
    start it is refused with exit 2 and one stderr line before any
    search: nothing on stdout and no file written."""
    from trigrid import cli

    def no_search(*args, **kwargs):
        raise AssertionError("the oracle searched")

    gpath = _gen(tmp_path, "hexagon")
    out = tmp_path / "nostart.csv"
    monkeypatch.setattr(cli, "is_reconfigurable_bruteforce", no_search)
    capsys.readouterr()
    assert main(["oracle", str(gpath), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("refused: oracle --out writes the component of --start, "
                            "so it needs --start\n")
    assert not out.exists()


# Digests of the CSV written by the tuple-keyed oracle this encoding replaced.
@pytest.mark.parametrize("kind,params,digest", [
    ("hexagon", [], "fa5f167b852f0ac7804a713c8cf16a8db2b61a72c4c3072730015570b6cb8413"),
    ("chord_cycle", ["n=5", "m=3"], "dae0708f487af55dc159e32d40d5da225daa8068761ab38bdd57b0c113270d49"),
])
def test_oracle_csv_is_unchanged(tmp_path, kind, params, digest):
    gpath = _gen(tmp_path, kind, *params)
    g = formats.parse_graph(gpath.read_text())
    edges = sorted(enumerate_near_perfect_matchings(g)[0].edges)
    start = _write_placement(tmp_path, "s.p", g, edges[::-1])
    out = tmp_path / "states.csv"
    assert main(["oracle", str(gpath), "--start", str(start),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_oracle_out_dash_writes_csv_to_stdout(tmp_path, capsys, monkeypatch):
    """`oracle --start --out -` prints the CSV the file would hold, before
    the summary lines, and writes no file named `-`."""
    gpath = _gen(tmp_path, "hexagon")
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, sorted(near_perfect_matching(g, 1).edges))
    out = tmp_path / "states.csv"
    argv = ["oracle", str(gpath), "--start", str(start), "--out"]
    assert main(argv + [str(out)]) == 0
    summary = capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["-"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("state_key,distance")
    assert stdout == out.read_bytes().decode() + summary
    assert not (tmp_path / "-").exists()


def test_oracle_refuses_host_beyond_encoding(tmp_path, capsys):
    # 127 vertices and 342 edges; 271 vertices and 756 edges
    for radius in (6, 9):
        g = build_graph(hexagon_points(radius))
        gpath = tmp_path / f"hex{g.num_vertices}.graph"
        gpath.write_text(formats.serialize_graph(g))
        m = near_perfect_matching(g, 1)
        start = _write_placement(tmp_path, "s.p", g, sorted(m.edges))
        for extra in ([], ["--start", str(start)]):
            assert main(["oracle", str(gpath), "--max-vertices", "1000"] + extra) == 2
            err = capsys.readouterr().err
            assert f"{len(g.edges)} edges exceed the 256-edge limit" in err


def test_oracle_refuses_more_than_nine_pieces(tmp_path, capsys):
    """`para21`, 21 vertices and 10 pieces, within `--max-vertices 21`:
    refused with exit 2 before the ranked BFS builds its 10! labelings,
    with and without a start."""
    g = build_graph([(x, y) for x in range(7) for y in range(3)])
    gpath = tmp_path / "para21.graph"
    gpath.write_text(formats.serialize_graph(g))
    start = _write_placement(tmp_path, "s.p", g, sorted(near_perfect_matching(g, 1).edges))
    for extra in ([], ["--start", str(start)]):
        assert main(["oracle", str(gpath), "--max-vertices", "21"] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("refused: 10 pieces exceed the 9-piece limit")


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("v 1 0 0\nv 2 oops 0\n")
    assert main(["check", str(bad)]) == 3


def test_gen_unknown_kind_refused(tmp_path):
    assert main(["gen", "mobius", "--out", str(tmp_path / "x")]) == 2


def _write_lattice(tmp_path, name, points):
    path = tmp_path / name
    path.write_text("".join(f"v {i} {x} {y}\n"
                            for i, (x, y) in enumerate(points, start=1)))
    return path


def test_short_vertex_record_is_parse_error(tmp_path):
    bad = tmp_path / "short.graph"
    bad.write_text("v 1 0 0\nv 2 1\nv 3 0 1\n")
    assert main(["check", str(bad)]) == 3


@pytest.mark.parametrize("text, lineno, message", [
    ("v 1 0 0\nv 1 1 0\n", 2, "duplicate vertex id 1"),
    ("v 1 0 0\nav 2\n", 1, "mixed lattice and abstract records"),
    ("v 1 1 0\nv 2 0 0\nv 3 0 1\n", 1,
     "vertex ids must follow lexicographic point order (x, then y)"),
    ("av 1\nav 3\nae 1 3\n", 1, "vertex ids must be dense 1..|V|"),
    ("v 1 0 0\nv 2 0 0\nv 3 1 0\n", 2, "duplicate lattice point (0, 0)"),
    ("v 1 0 0\nv 2 1\nv 3 0 1\n", 2, "expected 3 integers, got ['2', '1']"),
    ("v 1 0 0\nv 2 0 1 5\nv 3 1 0\n", 2, "expected 3 integers, got ['2', '0', '1', '5']"),
    ("v 1 0 0\nv 2 0 x\nv 3 1 0\n", 2, "expected integers, got ['2', '0', 'x']"),
], ids=["duplicate-id", "mixed-records", "point-order", "sparse-abstract-ids",
        "duplicate-point", "two-fields", "four-fields", "non-integer"])
def test_graph_file_refusals_are_parse_errors(tmp_path, capsys, text, lineno, message):
    """`check` refuses a malformed graph file with exit 3 and one
    `parse error: line N: ...` line."""
    bad = tmp_path / "bad.graph"
    bad.write_text(text)
    capsys.readouterr()
    assert main(["check", str(bad)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parse error: line {lineno}: {message}\n"


@pytest.mark.parametrize("argv", [
    ["check"], ["plan", "s.p", "t.p"], ["plan", "s.p", "t.p", "--strategy", "ear"],
    ["oracle"], ["oracle", "--start", "s.p"]], ids=["check", "plan", "plan-ear", "oracle",
                                                   "oracle-start"])
def test_loop_edge_is_refused(tmp_path, capsys, argv):
    """An abstract graph file with a loop edge is refused with exit 2 and
    one `refused:` line, before any placement file is read."""
    gpath = tmp_path / "loop.graph"
    gpath.write_text("av 1\nav 2\nav 3\nae 1 1\nae 1 2\nae 2 3\nae 1 3\n")
    capsys.readouterr()
    assert main([argv[0], str(gpath)] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "refused: edge (1,1) is a loop\n"


def test_hamilton_plan_refuses_host_with_crossing_parity_arcs(tmp_path, capsys):
    """The host's only parity labeling has crossing arcs: `plan --strategy
    hamilton` refuses it with exit 2, and the ear planner still plans."""
    gpath = tmp_path / "crossing.graph"
    gpath.write_text("".join(f"av {v}\n" for v in range(1, 10))
                     + "".join(f"ae {u} {v}\n" for u, v in CROSSING_ARCS_EDGES))
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, sorted(near_perfect_matching(g, 1).edges))
    target = _write_placement(tmp_path, "t.p", g, sorted(near_perfect_matching(g, 9).edges))
    argv = ["plan", str(gpath), str(start), str(target), "--out", str(tmp_path / "x.plan")]
    capsys.readouterr()
    assert main(argv + ["--strategy", "hamilton"]) == 2
    assert capsys.readouterr().err == "refused: no parity diamond on the Hamilton cycle\n"
    assert main(argv + ["--strategy", "ear"]) == 0


def test_non_integer_slides_header_is_parse_error(tmp_path):
    gpath = _gen(tmp_path, "pentagon")
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, [(2, 3), (4, 5)])
    plan = tmp_path / "bad.plan"
    plan.write_text("strategy ear\nslides x\nstart\n" + start.read_text())
    assert main(["verify", str(gpath), str(plan)]) == 3


def test_gen_param_without_value(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "hexagon", "--param", "radius", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_gen_missing_param_refused(tmp_path):
    assert main(["gen", "diamond_cycle", "--out", str(tmp_path / "x")]) == 2


def test_plan_refuses_host_without_admissible_core(tmp_path, capsys):
    # a triangle with a pendant path has no pentagon or diamond core
    gpath = _write_lattice(tmp_path, "pendant.graph",
                           [(0, 0), (0, 1), (1, 0), (2, 0), (3, 0)])
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, [(1, 2), (4, 5)])
    assert main(["plan", str(gpath), str(start), str(start)]) == 2
    assert "refused" in capsys.readouterr().err


def test_plan_refuses_host_whose_ear_growth_stalls(tmp_path, capsys):
    """The host has a pentagon core, but no matching exposes vertex 4, so
    no alternating ear reaches it: the ear planner's growth refuses with
    exit 2."""
    gpath = _write_lattice(tmp_path, "stall.graph", [(-2, 0), (-2, 1), (-2, 2), (-1, -1),
                                                     (-1, 0), (-1, 1), (0, -2)])
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, sorted(near_perfect_matching(g, 1).edges))
    target = _write_placement(tmp_path, "t.p", g, sorted(near_perfect_matching(g, 7).edges))
    capsys.readouterr()
    assert main(["plan", str(gpath), str(start), str(target), "--strategy", "ear",
                 "--out", str(tmp_path / "x.plan")]) == 2
    assert capsys.readouterr().err == "refused: no alternating ear extends the subgraph\n"


# a 45-vertex host in the first theorem's domain (factor-critical,
# 2-connected, with degree-6 vertices) on which the ear growth stalls
STALLING_HOST_45 = [
    (-4, -3), (-4, -2), (-3, -4), (-3, -3), (-3, -2), (-3, 0), (-3, 1), (-2, -4),
    (-2, -3), (-2, -2), (-2, -1), (-2, 0), (-2, 1), (-2, 2), (-2, 3), (-2, 4), (-2, 5),
    (-1, -4), (-1, -3), (-1, -2), (-1, -1), (-1, 1), (-1, 2), (-1, 3), (-1, 4), (-1, 5),
    (0, -4), (0, -3), (0, -2), (0, -1), (0, 0), (0, 1), (0, 2), (0, 3), (1, -4), (1, -3),
    (1, -1), (1, 0), (1, 1), (1, 2), (1, 3), (2, -4), (2, -3), (2, -1), (2, 1)]


def test_check_prints_every_property_where_the_ear_growth_stalls(tmp_path, capsys):
    """`check` prints the properties of a host whose ear growth stalls
    and exits 0, with no sufficient condition; `plan --strategy ear`
    refuses it with exit 2 and one line."""
    gpath = _write_lattice(tmp_path, "stall45.graph", STALLING_HOST_45)
    g = formats.parse_graph(gpath.read_text())
    capsys.readouterr()
    assert main(["check", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "vertices 45" in out and "factor_critical True" in out
    assert "two_connected True" in out and "locally_connected False" in out
    assert out.endswith("sufficient_condition none\n")
    start = _write_placement(tmp_path, "s.p", g, sorted(near_perfect_matching(g, 1).edges))
    target = _write_placement(tmp_path, "t.p", g, sorted(near_perfect_matching(g, 45).edges))
    assert main(["plan", str(gpath), str(start), str(target), "--strategy", "ear",
                 "--out", str(tmp_path / "x.plan")]) == 2
    assert capsys.readouterr().err == "refused: no alternating ear extends the subgraph\n"
    assert not (tmp_path / "x.plan").exists()


# a 51-vertex host outside both domains (not factor-critical, not
# 2-connected, not locally connected; 20 degree-6 vertices) with no pentagon
# core, so the core search tries every diamond and outer edge before refusing
NO_CORE_HOST_51 = [
    (-3, -1), (-3, 1), (-2, -3), (-2, -2), (-2, 0), (-2, 1), (-2, 2), (-2, 4), (-2, 5),
    (-1, -2), (-1, -1), (-1, 0), (-1, 1), (-1, 2), (-1, 3), (-1, 4), (-1, 5), (0, -3),
    (0, -2), (0, -1), (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, -3), (1, -2),
    (1, -1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, -3), (2, -2), (2, -1),
    (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, -3), (3, -2), (3, -1), (3, 2), (3, 3),
    (4, -2), (5, -2), (6, -3)]


def test_plan_refuses_the_51_vertex_host_without_a_core_quickly(tmp_path, capsys):
    """A default `plan` on the 51-vertex host refuses it, with exit 2 and
    one `refused: no admissible core found` line, within 1 s in-process.
    Prints the time."""
    gpath = _write_lattice(tmp_path, "nocore51.graph", NO_CORE_HOST_51)
    g = formats.parse_graph(gpath.read_text())
    assert main(["check", str(gpath)]) == 0
    out = capsys.readouterr().out
    for line in ("vertices 51", "factor_critical False", "two_connected False",
                 "locally_connected False", "sufficient_condition none"):
        assert line in out.splitlines()
    assert len(out.split("degree6_vertices ")[1].split("\n")[0].split()) == 20
    m = next(filter(None, (near_perfect_matching(g, v) for v in g.vertex_ids)))
    ppath = _write_placement(tmp_path, "p.p", g, sorted(m.edges))
    t0 = time.perf_counter()
    code = main(["plan", str(gpath), str(ppath), str(ppath), "--out", str(tmp_path / "x.plan")])
    plan_s = time.perf_counter() - t0
    assert code == 2
    assert capsys.readouterr().err == "refused: no admissible core found\n"
    with capsys.disabled():
        print(f"\n51-vertex host: refused in {plan_s * 1e3:.1f} ms")
    assert plan_s < 1.0


def test_plan_refuses_a_host_too_big_for_the_hamilton_search(tmp_path):
    """On the 1,201-vertex two-row strip `auto` picks the cycle planner,
    whose Hamilton search recurses once a vertex: `plan` exits 2 with one
    `refused: ` line and no traceback."""
    pts = [(x, y) for y in (0, 1) for x in range(600)] + [(600, 0)]
    gpath = _write_lattice(tmp_path, "strip.graph", sorted(pts))
    g = formats.parse_graph(gpath.read_text())
    ppath = _write_placement(tmp_path, "p.p", g, sorted(near_perfect_matching(g, 1).edges))
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["plan", str(gpath), str(ppath), str(ppath),
                     "--out", str(tmp_path / "x.plan")])
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("refused: ")
    assert "Traceback" not in err.getvalue()
    assert not (tmp_path / "x.plan").exists()


def test_plan_out_of_memory_is_refused(tmp_path, capsys, monkeypatch):
    """A planner that runs out of memory is refused with exit 2 and one
    `refused:` line, and no plan file is written. The planner raises
    `MemoryError` itself: no test exhausts real memory."""
    from trigrid import cli

    def out_of_memory(g, p, q):
        raise MemoryError()

    monkeypatch.setattr(cli, "plan_ear", out_of_memory)
    argv = _hex7_plan_argv(tmp_path, "ear")
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "refused: out of memory\n"
    assert not (tmp_path / "ear.plan").exists()


def test_check_collinear_host(tmp_path, capsys):
    gpath = _write_lattice(tmp_path, "line.graph", [(0, 0), (1, 0), (2, 0)])
    assert main(["check", str(gpath)]) == 0
    assert "vertices 3" in capsys.readouterr().out


@pytest.mark.parametrize("kind, params, holes", [
    ("hex_with_hole", (), "2"), ("hexagon", (), "0"),
    ("chord_cycle", ("n=5", "m=3"), "-")])
def test_check_reports_holes(tmp_path, capsys, kind, params, holes):
    """`check` counts a lattice host's holes and prints `-` for an abstract
    host, which has none to count."""
    gpath = _gen(tmp_path, kind, *params)
    capsys.readouterr()
    assert main(["check", str(gpath)]) == 0
    assert f"holes {holes}" in capsys.readouterr().out.splitlines()


def test_gen_hex_with_hole_removed_param_refused(tmp_path):
    assert main(["gen", "hex_with_hole", "--param", "removed=3",
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("radius", ["0", "1", "-1"])
def test_gen_hex_with_hole_radius_below_2_refused(tmp_path, capsys, radius):
    out = tmp_path / "x"
    assert main(["gen", "hex_with_hole", "--param", f"radius={radius}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "refused: hex_with_hole requires radius >= 2\n"
    assert not out.exists()


def test_gen_hexagon_radius_param_refused(tmp_path):
    out = tmp_path / "x"
    assert main(["gen", "hexagon", "--param", "radius=3", "--out", str(out)]) == 2
    assert not out.exists()


def test_plan_logs_summary_under_trigrid_log(tmp_path, capsys, monkeypatch):
    """With TRIGRID_LOG set, `plan` logs one debug line: strategy, slide
    count, for the ear planner the count of each recursion branch, the
    slides `cut_loops` removed, and the plan's swaps, gadgets built and
    fallbacks: for the ear planner its fills' transpositions, the gadgets
    it built at every level and the levels it re-planned whole; for the
    cycle planner its adjacent swaps and swap gadgets built. Last, the
    windows at which the cycle planner swapped (0 for the ear planner)."""
    from collections import Counter

    from trigrid.ear_planner import plan_ear
    from trigrid.hc_planner import plan_hamilton

    g = build_graph(hexagon_points(2))
    gpath = tmp_path / "hex19.graph"
    gpath.write_text(formats.serialize_graph(g))
    p = Placement.make(g, sorted(near_perfect_matching(g, 1).edges))
    q = Placement.make(g, sorted(near_perfect_matching(g, 19).edges, reverse=True))
    start = _write_placement(tmp_path, "s.p", g, p.pieces)
    target = _write_placement(tmp_path, "t.p", g, q.pieces)
    argv = ["plan", str(gpath), str(start), str(target), "--strategy", "ear",
            "--out", str(tmp_path / "out.plan")]

    monkeypatch.delenv("TRIGRID_LOG", raising=False)
    assert main(argv) == 0
    assert "trigrid:" not in capsys.readouterr().err

    monkeypatch.setenv("TRIGRID_LOG", "1")
    assert main(argv) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("trigrid: plan ")]
    rep = plan_ear(g, p, q)
    seen = Counter(e.get("kind") or e.get("branch") for e in rep.recursion_trace)
    cut = rep.stats["uncut_slides"] - rep.slide_count
    swaps, gadgets, fallbacks = (rep.stats[k] for k in ("swaps", "gadgets", "fallbacks"))
    assert lines == [f"trigrid: plan strategy ear slides {rep.slide_count}"
                     f" pentagon-core {seen['pentagon-core']} diamond-core 0"
                     f" window {seen['window']} spare-edge {seen['spare-edge']}"
                     f" cut {cut} swaps {swaps} gadgets {gadgets} fallbacks {fallbacks}"
                     " windows 0"]
    assert seen["pentagon-core"] and seen["window"] and seen["spare-edge"]
    assert cut > 0
    # gadgets count builds at every level, so they can outnumber the swaps
    assert swaps > 0 and gadgets > 0 and fallbacks > 0

    # the same matching, labelled the other way round: the cycle plan to
    # this target still has loops to cut
    q = Placement.make(g, sorted(near_perfect_matching(g, 19).edges))
    target = _write_placement(tmp_path, "th.p", g, q.pieces)
    assert main(["plan", str(gpath), str(start), str(target), "--strategy", "hamilton",
                 "--out", str(tmp_path / "h.plan")]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("trigrid: plan ")]
    rep = plan_hamilton(g, p, q)
    cut = rep.stats["uncut_slides"] - rep.slide_count
    swaps, gadgets, windows = (rep.stats[k] for k in ("swaps", "gadgets", "windows"))
    assert lines == [f"trigrid: plan strategy hamilton slides {rep.slide_count}"
                     f" cut {cut} swaps {swaps} gadgets {gadgets} fallbacks 0"
                     f" windows {windows}"]
    assert cut > 0
    assert swaps > gadgets > 0
    assert gadgets == windows > 1
    assert rep.stats["fallbacks"] == 0


def test_plan_failing_final_replay_is_internal_error(tmp_path, capsys, monkeypatch):
    """A plan that fails the planner's own final replay exits 4, not 2."""
    from trigrid import plans
    from trigrid.placement import cut_loops

    def drop_last(seq):
        return cut_loops(seq)[:-1]

    monkeypatch.setattr(plans, "cut_loops", drop_last)
    gpath = _gen(tmp_path, "hexagon")
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, sorted(near_perfect_matching(g, 1).edges))
    target = _write_placement(tmp_path, "t.p", g,
                              sorted(near_perfect_matching(g, 7).edges, reverse=True))
    for strategy in ("ear", "hamilton"):
        out = tmp_path / f"{strategy}.plan"
        assert main(["plan", str(gpath), str(start), str(target),
                     "--strategy", strategy, "--out", str(out)]) == 4
        assert "internal invariant failure" in capsys.readouterr().err
        assert not out.exists()


def _hex7_plan_argv(tmp_path, strategy):
    gpath = _gen(tmp_path, "hexagon")
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, sorted(near_perfect_matching(g, 1).edges))
    target = _write_placement(tmp_path, "t.p", g,
                              sorted(near_perfect_matching(g, 7).edges, reverse=True))
    return ["plan", str(gpath), str(start), str(target), "--strategy", strategy,
            "--out", str(tmp_path / f"{strategy}.plan")]


def test_ear_plan_stepping_an_uncovered_vertex_is_internal_error(tmp_path, capsys,
                                                                 monkeypatch):
    """A full ear plan whose word steps from the vertex no piece covers
    fails `finish_plan` with its own PlanInvariantError, not `cut_loops`'
    PlacementError, and exits 4."""
    from trigrid import ear_planner
    from trigrid.placement import SlideSequence

    finish = ear_planner.finish_plan

    def past_the_gap(seq, *args):
        return finish(SlideSequence(seq.start, seq.kept + (seq.end.exposed,), seq.end), *args)

    monkeypatch.setattr(ear_planner, "finish_plan", past_the_gap)
    argv = _hex7_plan_argv(tmp_path, "ear")
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal invariant failure: PlanInvariantError: "
                          "plan verification failed: vertex ")
    assert "is not covered" in err
    assert not (tmp_path / "ear.plan").exists()


@pytest.mark.parametrize("strategy", ["ear", "hamilton"])
def test_plan_replays_once(tmp_path, monkeypatch, strategy):
    """`plan` replays its plan under the four checks exactly once, in
    `plans.finish_plan`, which both planners return through."""
    from trigrid import cli, plans

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return verify_sequence(*args, **kwargs)

    argv = _hex7_plan_argv(tmp_path, strategy)
    monkeypatch.setattr(plans, "verify_sequence", counted)
    monkeypatch.setattr(cli, "verify_sequence", counted)
    assert main(argv) == 0
    assert len(calls) == 1


def test_ear_plan_failing_finish_plan_replay_is_internal_error(tmp_path, capsys,
                                                                monkeypatch):
    """A full ear plan that does not end at the target fails `finish_plan`'s
    own replay, with every gadget intact, and exits 4."""
    from trigrid import ear_planner

    finish = ear_planner.finish_plan

    def short_of_target(seq, *args):
        return finish(replay(seq.start, seq.kept[:-1]), *args)

    monkeypatch.setattr(ear_planner, "finish_plan", short_of_target)
    argv = _hex7_plan_argv(tmp_path, "ear")
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal invariant failure: PlanInvariantError: "
                          "plan verification failed")
    assert not (tmp_path / "ear.plan").exists()


@pytest.mark.parametrize("strategy", ["ear", "hamilton"])
@pytest.mark.parametrize("target,error", [("rotate", PlacementError),
                                          ("exposing", MatchingError)],
                         ids=["rotate", "exposing"])
def test_planner_internal_error_exits_4(tmp_path, capsys, monkeypatch, strategy,
                                        target, error):
    """A placement or matching error raised inside a planner is the planner's
    fault, not a parse error of its inputs: exit 4, one line, no traceback.
    The exposing step is the ear planner's level-matching lookup and the
    cycle planner's `expose` onto the cycle's forced dominoes, which
    `placement.align_with_cycle` calls."""
    from trigrid import ear_planner, ears, hc_planner, placement

    def broken(*args, **kwargs):
        raise error("injected")

    if target == "rotate":
        module = ear_planner if strategy == "ear" else hc_planner
        monkeypatch.setattr(module, "rotate", broken)
    elif strategy == "ear":
        monkeypatch.setattr(ears.LevelMatchings, "exposing", broken)
    else:
        monkeypatch.setattr(placement, "expose", broken)
    argv = _hex7_plan_argv(tmp_path, strategy)
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err == f"internal invariant failure: {error.__name__}: injected\n"
    assert not (tmp_path / f"{strategy}.plan").exists()


def test_bad_placement_file_is_still_parse_error(tmp_path, capsys):
    gpath = _gen(tmp_path, "pentagon")
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, [(2, 3), (4, 5)])
    bad = tmp_path / "bad.p"
    bad.write_text("p 1 1 2\np 2 2 3\n")                 # pieces overlap at 2
    capsys.readouterr()
    assert main(["plan", str(gpath), str(start), str(bad)]) == 3
    assert capsys.readouterr().err.startswith("parse error:")


def _missing_input_argv(tmp_path, command):
    """The command line, and the path its one stderr line must name."""
    gpath = _gen(tmp_path, "pentagon")
    g = formats.parse_graph(gpath.read_text())
    start = _write_placement(tmp_path, "s.p", g, [(2, 3), (4, 5)])
    nope = str(tmp_path / "nope")
    (tmp_path / "dir").mkdir()
    folder = str(tmp_path / "dir")
    out = str(tmp_path / "no-such-dir" / "out.plan")
    return {
        "check": (["check", nope], nope),
        "plan": (["plan", str(gpath), str(start), nope], nope),
        "verify": (["verify", str(gpath), nope], nope),
        "oracle": (["oracle", str(gpath), "--start", nope], nope),
        "render": (["render", nope, "--placement", str(start)], nope),
        "plan --out": (["plan", str(gpath), str(start), str(start), "--out", out], out),
        "check directory": (["check", folder], folder),
        "verify directory": (["verify", str(gpath), folder], folder),
    }[command]


@pytest.mark.parametrize("command", ["check", "plan", "verify", "oracle", "render",
                                     "plan --out", "check directory", "verify directory"])
def test_unreadable_or_unwritable_file_exits_3(tmp_path, capsys, command):
    """A missing file, a directory and an `--out` in a missing directory
    exit 3 with one `cannot read/write <path>: <reason>` line."""
    argv, path = _missing_input_argv(tmp_path, command)
    reason = "Is a directory" if command.endswith("directory") else "No such file or directory"
    capsys.readouterr()
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err == f"cannot read/write {path}: {reason}\n"
    assert out == ""


def test_main_carries_no_option_between_calls(tmp_path, capsys, monkeypatch):
    """`main` parses every call with one parser built at import: repeated
    calls with different subcommands and options see only their own."""
    from trigrid import cli

    def no_rebuild():
        raise AssertionError("parser built again")

    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    argv = _hex7_plan_argv(tmp_path, "ear")
    gpath, start, target = argv[1:4]
    wrong = str(tmp_path / "s.p")
    for plan_argv, strategy in ((argv, "ear"),
                                (argv[:4] + ["--out", str(tmp_path / "auto.plan")],
                                 "hamilton")):
        assert main(plan_argv) == 0
        plan = plan_argv[-1]
        assert open(plan).readline() == f"strategy {strategy}\n"
        assert main(["verify", gpath, plan, "--target", wrong]) == 2
        assert main(["verify", gpath, plan]) == 0
        assert main(["verify", gpath, plan, "--target", target]) == 0
    assert main(["oracle", gpath, "--max-vertices", "5"]) == 2
    capsys.readouterr()
    assert main(["oracle", gpath]) == 0
    assert capsys.readouterr().out == "reconfigurable True\n"
    assert main(["gen", "hexagon", "--param", "radius=3",
                 "--out", str(tmp_path / "x.graph")]) == 2
    assert main(["gen", "hexagon", "--out", str(tmp_path / "y.graph")]) == 0
    assert formats.parse_graph((tmp_path / "y.graph").read_text()).num_vertices == 7


def _dispatch_argvs(tmp_path):
    """Command lines of every shape `main` parses: a valid one of each
    command, help, none, an unknown command, words left over, a missing
    positional, a bad option value and an abbreviated option."""
    plan = _hex7_plan_argv(tmp_path, "ear")
    gpath, start, target, out = plan[1], plan[2], plan[3], plan[-1]
    assert main(plan) == 0
    frame = str(tmp_path / "frame.svg")
    return [
        ["gen", "hexagon", "--param", "radius=1", "--out", str(tmp_path / "g.graph")],
        ["check", gpath], plan, ["verify", gpath, out, "--target", target],
        ["oracle", gpath, "--start", start], ["render", gpath, "--plan", out, "--out", frame],
        ["render", gpath, "--placement", start],
        ["-h"], ["plan", "-h"], ["verify", "--help"], [], ["plann"],
        ["plan", "a", "b", "c", "--bogus"], ["verify", gpath, out, "extra"],
        ["verify", gpath], ["plan", gpath, start, target, "--strategy", "bogus"],
        ["gen", "hexagon", "--param", "radius=x"], ["oracle", gpath, "--max-v", "5"],
        ["verify", "--", gpath, out], ["-h", "plan"], ["--bogus", "verify", gpath, out],
    ]


def test_main_dispatches_as_the_top_level_parser(tmp_path, capsys, monkeypatch):
    """Each command line gives the exit status, stdout and stderr that
    parsing it with the top-level parser alone gives (an empty command
    map sends every command line there): `main` hands a command's words
    to its own parser, and every other command line, or one with words
    left over, to the top-level parser."""
    from trigrid import cli

    def run(argv):
        capsys.readouterr()
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = ("exit", exc.code)
        return (status,) + tuple(capsys.readouterr())

    for argv in _dispatch_argvs(tmp_path):
        got = run(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_COMMANDS", {})
            assert run(argv) == got, argv
    assert run(["plan", "a", "b", "c", "--bogus"])[2].splitlines()[-1] == (
        "trigrid: error: unrecognized arguments: --bogus")


def test_verify_names_the_first_bad_move(tmp_path, capsys):
    """A plan whose second move keeps a vertex off its piece fails with
    exit 2; stdout keeps its three lines and stderr names the move."""
    argv = _hex7_plan_argv(tmp_path, "hamilton")
    assert main(argv) == 0
    gpath, target, plan = argv[1], argv[3], tmp_path / "hamilton.plan"
    lines = plan.read_text().splitlines()
    moves = [i for i, ln in enumerate(lines) if ln.startswith("s ")]
    _, label, kept, dest = lines[moves[1]].split()
    lines[moves[1]] = f"s {label} {dest} {dest}"        # the gap is on no piece
    bad = tmp_path / "bad.plan"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", gpath, str(bad), "--target", target]) == 2
    out, err = capsys.readouterr()
    assert out == "strategy hamilton\nmoves 1\nok False\n"
    assert err == f"failed: move 1: vertex {dest} not an endpoint of piece {label}\n"


def test_verify_parse_error_names_the_line_of_the_file(tmp_path, capsys):
    """A non-integer move deep in a plan exits 3 and names its line in the
    file, not its place among the moves."""
    argv = _hex7_plan_argv(tmp_path, "hamilton")
    assert main(argv) == 0
    gpath, target, plan = argv[1], argv[3], tmp_path / "hamilton.plan"
    lines = plan.read_text().splitlines()
    lineno = [i for i, ln in enumerate(lines, 1) if ln.startswith("s ")][1]
    lines[lineno - 1] = "s 1 2 x"
    bad = tmp_path / "bad.plan"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", gpath, str(bad), "--target", target]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parse error: line {lineno}: expected integers, got ['1', '2', 'x']\n"


def test_render_plan_writes_one_frame_per_state(tmp_path, capsys):
    """`render --plan` draws a verified plan's start and the state after
    each slide, `<stem>-0000.svg` and up; a plan whose first move is
    illegal exits 2 with verify's line and draws nothing."""
    argv = _hex7_plan_argv(tmp_path, "hamilton")
    assert main(argv) == 0
    gpath, plan = argv[1], tmp_path / "hamilton.plan"
    g = formats.parse_graph(Path(gpath).read_text())
    moves = formats.parse_plan(plan.read_text(), g)[2]
    frames = tmp_path / "frames"
    frames.mkdir()
    capsys.readouterr()
    assert main(["render", gpath, "--plan", str(plan),
                 "--out", str(frames / "hex7.svg")]) == 0
    assert capsys.readouterr().err == f"wrote {len(moves) + 1} frames\n"
    assert sorted(f.name for f in frames.iterdir()) == [
        f"hex7-{i:04d}.svg" for i in range(len(moves) + 1)]
    assert all(f.read_text().startswith("<svg") for f in frames.iterdir())

    lines = plan.read_text().splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("s "))
    _, label, kept, dest = lines[first].split()
    lines[first] = f"s {label} {dest} {dest}"           # keeps the gap, not its piece
    bad = tmp_path / "bad.plan"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bad-frames" / "bad.svg"
    out.parent.mkdir()
    assert main(["render", gpath, "--plan", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"failed: move 0: vertex {dest} not an "
                                       f"endpoint of piece {label}\n")
    assert not any(out.parent.iterdir())


def test_render_plan_out_dash_exits_3(tmp_path, capsys, monkeypatch):
    """`render --plan --out -` cannot put one file per frame on stdout: it
    exits 3 with one `cannot read/write -` line and writes no frame."""
    argv = _hex7_plan_argv(tmp_path, "hamilton")
    assert main(argv) == 0
    gpath, plan = argv[1], str(tmp_path / "hamilton.plan")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    capsys.readouterr()
    assert main(["render", gpath, "--plan", plan, "--out", "-"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cannot read/write -: ") and err.count("\n") == 1
    assert not any(cwd.iterdir())


def _hex7_files() -> Dict[str, str]:
    """The texts of a `hex7` host, a start and target placement and a
    verified plan between them."""
    g = build_graph(hexagon_points(1))
    p = Placement.make(g, sorted(near_perfect_matching(g, 1).edges))
    q = Placement.make(g, sorted(near_perfect_matching(g, 7).edges, reverse=True))
    plan = plan_hamilton(g, p, q)
    return {"graph": formats.serialize_graph(g),
            "start": formats.serialize_placement(p),
            "target": formats.serialize_placement(q),
            "plan": formats.serialize_plan(plan.strategy, plan.start, plan.moves)}


_HEX7_FILES = _hex7_files()
_TOKENS = ["0", "1", "2", "3", "6", "7", "8", "-1", "x", "v", "p", "s", "start",
           "strategy", "slides", "#", "\udcff"]


@st.composite
def _mutated_files(draw) -> Dict[str, str]:
    """`_HEX7_FILES` with one to four edits, each replacing, deleting,
    duplicating or swapping a token or a line of one file."""
    files = {name: [ln.split() for ln in text.splitlines()]
             for name, text in _HEX7_FILES.items()}
    for _ in range(draw(st.integers(1, 4))):
        lines = files[draw(st.sampled_from(sorted(files)))]
        if not lines:
            continue
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        op = draw(st.sampled_from(["replace", "delete", "duplicate", "swap"]))
        if draw(st.booleans()):                              # a line
            if op == "replace":
                lines[i] = [draw(st.sampled_from(_TOKENS))
                            for _ in range(draw(st.integers(0, 4)))]
            elif op == "delete":
                del lines[i]
            elif op == "duplicate":
                lines.insert(j, list(lines[i]))
            else:
                lines[i], lines[j] = lines[j], lines[i]
        elif lines[i]:                                       # a token of line i
            tokens = lines[i]
            k, m = (draw(st.integers(0, len(tokens) - 1)) for _ in range(2))
            if op == "replace":
                tokens[k] = draw(st.sampled_from(_TOKENS))
            elif op == "delete":
                del tokens[k]
            elif op == "duplicate":
                tokens.insert(m, tokens[k])
            else:
                tokens[k], tokens[m] = tokens[m], tokens[k]
    return {name: "".join(" ".join(ln) + "\n" for ln in lines)
            for name, lines in files.items()}


@settings(max_examples=100, deadline=None)
@given(files=_mutated_files())
def test_mutated_inputs_exit_0_2_or_3(files):
    """Whatever is wrong with a host, placement or plan file, every command
    returns 0, 2 or 3, raises nothing, and on failure writes one stderr
    line at most: exit 4 is for planner faults, which no input causes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = {}
        for name, text in files.items():
            path[name] = os.path.join(tmp, name)
            with open(path[name], "w", encoding="utf-8", errors="surrogateescape") as fh:
                fh.write(text)
        frames = os.path.join(tmp, "frames.svg")
        plan_out = os.path.join(tmp, "out.plan")
        graph, start, target, plan = (path[k] for k in ("graph", "start", "target", "plan"))
        for argv in (["plan", graph, start, target, "--out", plan_out],
                     ["plan", graph, start, target, "--strategy", "ear",
                      "--out", plan_out],
                     ["verify", graph, plan, "--target", target],
                     ["check", graph],
                     ["oracle", graph, "--start", start],
                     ["render", graph, "--plan", plan, "--out", frames]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                rc = main(argv)
            assert rc in (0, 2, 3), (argv[0], rc, err.getvalue())
            if rc:
                assert err.getvalue().count("\n") <= 1, (argv[0], err.getvalue())


@pytest.mark.parametrize("command", ["check", "plan", "verify"])
def test_non_utf8_input_is_parse_error(tmp_path, capsys, command):
    """A byte that is not UTF-8 in an input file exits 3, naming the file
    and its line, with no traceback."""
    argv = _hex7_plan_argv(tmp_path, "hamilton")
    assert main(argv) == 0
    gpath, start, plan = argv[1], argv[2], str(tmp_path / "hamilton.plan")
    victim = {"check": gpath, "plan": start, "verify": plan}[command]
    lines = open(victim, "rb").read().splitlines(keepends=True)
    lines[1] = lines[1].rstrip(b"\n") + b" \xff\n"
    with open(victim, "wb") as fh:
        fh.write(b"".join(lines))
    run = {"check": ["check", gpath], "plan": argv[:-2] + ["--out", "-"],
           "verify": ["verify", gpath, plan]}[command]
    capsys.readouterr()
    assert main(run) == 3
    err = capsys.readouterr().err
    assert err == f"parse error: line 2: {victim}: byte 0xff is not UTF-8 text\n"


def test_cli_import_loads_no_networkx():
    """networkx is a test dependency only: a fresh `import trigrid.cli`, as
    every `trigrid` process does, must not load it."""
    env = dict(os.environ, PYTHONPATH=str(Path(trigrid.__file__).resolve().parents[1]))
    probe = "import sys, trigrid.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("planner,other", [("hc_planner", "ear_planner"),
                                           ("ear_planner", "hc_planner")])
def test_planner_import_loads_no_other_planner(planner, other):
    """The two planners share `trigrid.plans`, and a fresh import of either
    loads nothing of the other."""
    env = dict(os.environ, PYTHONPATH=str(Path(trigrid.__file__).resolve().parents[1]))
    probe = f"import sys, trigrid.{planner}; print('trigrid.{other}' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
