from pathlib import Path

import pytest

from trigrid import formats
from trigrid.cli import main
from trigrid.grid import build_graph, star_of_david_points
from trigrid.matching import enumerate_near_perfect_matchings
from trigrid.placement import Placement


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


def test_plan_refuses_star_of_david(tmp_path):
    g = build_graph(star_of_david_points())
    gpath = tmp_path / "sod.graph"
    gpath.write_text(formats.serialize_graph(g))
    m = enumerate_near_perfect_matchings(g)[0]
    start = _write_placement(tmp_path, "s.p", g, sorted(m.edges))
    assert main(["plan", str(gpath), str(start), str(start)]) == 2


def test_oracle_cli(tmp_path, capsys):
    gpath = _gen(tmp_path, "pentagon")
    assert main(["oracle", str(gpath)]) == 0
    assert "reconfigurable True" in capsys.readouterr().out
    big = _gen(tmp_path, "chord_cycle", "n=8", "m=2")
    assert main(["oracle", str(big)]) == 2


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


def test_check_collinear_host(tmp_path, capsys):
    gpath = _write_lattice(tmp_path, "line.graph", [(0, 0), (1, 0), (2, 0)])
    assert main(["check", str(gpath)]) == 0
    assert "vertices 3" in capsys.readouterr().out
