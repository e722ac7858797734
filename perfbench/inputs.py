"""Seeded inputs for the trigrid benchmark.

Builds the hosts a workload names, draws random labeled placements from the
workload seed and writes `.graph` / `.p` files plus a `manifest.json`
schedule. Run as a script it does one timed set-up (imports, host
construction, input generation and file writes) and prints, as its last
line, the seconds it took and the median time of the reference kernel:

    python3 perfbench/inputs.py --workload cycle-large --seed 1 --out DIR
"""

import time

T0 = time.perf_counter()

import argparse
import json
import math
import random
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((BENCH / "workloads.json").read_text())

# Median time of `reference_kernel` on the 2-vCPU VM the benchmark was
# defined on. Reported times are scaled to this speed (see README.md).
REFERENCE_S = 0.0115

# Rounds generated per count round. A run lasts about `count_rounds` rounds
# at seed speed; a program up to this many times faster still fills
# `--seconds`, a faster one stops when the rounds run out.
ROUNDS_PER_COUNT_ROUND = 2


def reference_kernel():
    """Seconds for a fixed pure-Python BFS (tuples, a set, lists): the kind
    of work trigrid does, with nothing of trigrid in it."""
    t0 = time.perf_counter()
    start = tuple(range(7))
    seen, frontier = {start}, [start]
    while frontier and len(seen) < 3000:
        nxt = []
        for s in frontier:
            for i in range(6):
                t = s[:i] + (s[i + 1], s[i]) + s[i + 2:]
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return time.perf_counter() - t0


def import_trigrid():
    """Import trigrid from the checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "trigrid" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trigrid sources under {src}")
    sys.path.insert(0, str(src))
    import trigrid
    if Path(trigrid.__file__).resolve().parent != (src / "trigrid").resolve():
        raise SystemExit(f"perfbench: imported trigrid from {trigrid.__file__}")
    return trigrid


def build_host(name):
    from trigrid.grid import (build_graph, chord_cycle_graph, diamond_cycle_graph,
                              hex_with_hole_graph, hexagon_points)
    hex7 = hexagon_points(1)
    points = {
        "hex11": hex7 + [(2, -1), (2, 0), (-1, -1), (0, -2)],
        "hex13": hex7 + [(2, -1), (2, 0), (1, 1), (2, -2), (1, -2), (2, -3)],
        "hex19": hexagon_points(2),
        "para21": [(x, y) for x in range(7) for y in range(3)],
        "hex23": hexagon_points(2) + [(3, -1), (3, -2), (2, 1), (3, 0)],
        "para25": [(x, y) for x in range(5) for y in range(5)],
        "deg6-11v": [(-2, 0), (-2, 1), (-2, 2), (-1, -1), (-1, 0), (-1, 1),
                     (0, -1), (0, 0), (0, 1), (1, -1), (1, 0)],
        "deg6-17v": [(-2, 0), (-2, 1), (-2, 2), (-1, -1), (-1, 0), (-1, 1),
                     (-1, 2), (0, -2), (0, -1), (0, 0), (0, 1), (0, 2),
                     (1, -2), (1, -1), (1, 0), (1, 1), (2, -1)],
    }
    if name in points:
        return build_graph(points[name], name=name)
    if name == "hex_with_hole-r2":
        return hex_with_hole_graph(2)
    if name == "diamond_cycle-6":
        return diamond_cycle_graph(6)
    if name.startswith("chord_cycle-"):
        n, m = map(int, name.split("-")[1:])
        return chord_cycle_graph(n, m)
    raise KeyError(name)


def chord_verdict(name):
    """Expected verdict on chord_cycle(n, m): reconfigurable iff
    gcd(n - 1, m - 1) = 1."""
    n, m = map(int, name.split("-")[1:])
    return math.gcd(n - 1, m - 1) == 1


class PlacementDrawer:
    """Random labeled placements: a random exposed vertex, a near-perfect
    matching exposing it, and a shuffled label order."""

    def __init__(self, g, rng):
        self.g, self.rng, self.matchings = g, rng, {}

    def draw(self):
        from trigrid.matching import near_perfect_matching
        from trigrid.placement import Placement
        v = self.rng.choice(list(self.g.vertex_ids))
        if v not in self.matchings:
            self.matchings[v] = near_perfect_matching(self.g, v)
        edges = sorted(self.matchings[v].edges)
        self.rng.shuffle(edges)
        return Placement.make(self.g, edges)


def write_inputs(workload, seed, out):
    """Write hosts, placements and the round schedule for one run."""
    from trigrid import formats
    spec = SPEC["workloads"][workload]
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    hosts, drawers = {}, {}
    for task in spec["round"]:
        name = task["host"]
        if name not in hosts:
            hosts[name] = build_host(name)
            drawers[name] = PlacementDrawer(hosts[name], rng)
            (out / f"{name}.graph").write_text(formats.serialize_graph(hosts[name]))

    def placement_file(stem, p):
        path = out / f"{stem}.p"
        path.write_text(formats.serialize_placement(p))
        return path.name

    rounds = []
    for r in range(spec["count_rounds"] * ROUNDS_PER_COUNT_ROUND):
        tasks = []
        for t, task in enumerate(spec["round"]):
            if r % task.get("every", 1) != task.get("phase", 0):
                continue
            host = task["host"]
            base = {"op": task["op"], "host": host, "graph": f"{host}.graph"}
            if task["op"] == "plan":
                for k in range(task["pairs"]):
                    stem = f"r{r}-t{t}-{k}"
                    tasks.append(dict(base, strategy=task["strategy"],
                                      p=placement_file(stem + "-p", drawers[host].draw()),
                                      q=placement_file(stem + "-q", drawers[host].draw())))
            elif task["op"] == "certify":
                stem = f"r{r}-t{t}"
                tasks.append(dict(base, strategies=task["strategies"],
                                  distances=task["distances"],
                                  p=placement_file(stem + "-p", drawers[host].draw()),
                                  qs=[placement_file(f"{stem}-q{k}", drawers[host].draw())
                                      for k in range(task["targets"])]))
            else:
                tasks.append(dict(base, expected=chord_verdict(host)))
        rounds.append(tasks)
    (out / "manifest.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "rounds": rounds}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    import_trigrid()
    import trigrid.cli  # noqa: F401  (the import cost a user of the CLI pays)
    write_inputs(args.workload, args.seed, args.out)
    seconds = time.perf_counter() - T0
    print(seconds, statistics.median(reference_kernel() for _ in range(5)))


if __name__ == "__main__":
    main()
