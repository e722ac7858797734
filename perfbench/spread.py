"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ear-deep --seeds 1-10

Runs `perfbench/run.py` once per seed, one after another, from the root of
the checkout, and prints for each metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median
next to the bound BENCHMARK.json sets. `--log` appends each run's result
line as JSON, so that several sets of runs can be compared later.
`--baseline FILE` stores the summary for this workload in FILE (a JSON
object keyed by metric list, then workload), keeping other entries.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results, declared):
    """metric -> (median, q1, q3, spread) over the result lines."""
    out = {}
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[m["name"]] = (med, q1, q3, (q3 - q1) / med if med else float("inf"))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--log", type=Path)
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    results = []
    for seed in args.seeds:
        t0 = perf_counter()
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]),
                                "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: {wall:.1f} s wall, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps(dict(result, workload=args.workload, seed=seed,
                                         wall_s=wall)) + "\n")
    summary = summarize(results, declared)
    for m in declared:
        med, q1, q3, spread = summary[m["name"]]
        bound = m.get("bound")
        flag = "" if bound is None else f"  bound {bound:.2f}" + (
            "  OVER" if spread > bound else "  over 1/3" if spread > bound / 3 else "")
        print(f"{m['name']:40s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f}{flag}")

    if args.baseline:
        base = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        entry = base.setdefault("per_layer" if args.trace else "end_to_end", {})
        entry[args.workload] = {
            m["name"]: dict(m, median=summary[m["name"]][0], q1=summary[m["name"]][1],
                            q3=summary[m["name"]][2], spread=summary[m["name"]][3],
                            seeds=args.seeds)
            for m in declared}
        args.baseline.write_text(json.dumps(base, indent=1) + "\n")


if __name__ == "__main__":
    main()
