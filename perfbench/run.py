"""trigrid benchmark: verified-plan latency, plan length and oracle throughput.

    python3 perfbench/run.py --workload cycle-large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; trigrid is imported from its `src`.
Set-up runs `inputs.py` in fresh processes (`setup_repeats` times, median
reported as `setup_s`); this process then loads the written files and runs
rounds of operations from `workloads.json` until `--seconds` have passed
and at least `count_rounds` rounds are done. Plans and verifications go
through `trigrid.cli.main` in-process; oracle calls go to `trigrid.oracle`.
Every output is checked, each call has a time limit, and the last line of
stdout is one JSON object with the metrics BENCHMARK.json declares
(`end_to_end` with `--trace 0`, `per_layer` with `--trace 1`). End-to-end
times and rates are scaled to reference speed with a fixed kernel run
between tasks (see README.md).

The traced run runs the first `count_rounds` rounds twice, untraced then
traced, and reports per-layer totals of the traced pass and the tracing
overhead between the two.
"""

import argparse
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

START = perf_counter()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from inputs import (REFERENCE_S, ROOT, SPEC, import_trigrid,  # noqa: E402
                    reference_kernel)


class CallTimeout(BaseException):
    """Raised by SIGALRM inside a call; a BaseException so that no
    `except Exception` in the program can swallow it."""


def _alarm(signum, frame):
    raise CallTimeout()


class Runner:
    def __init__(self, workload, indir, workdir):
        from trigrid import cli, formats, oracle
        self.cli, self.oracle = cli, oracle
        self.spec = SPEC["workloads"][workload]
        self.indir, self.workdir = indir, workdir
        manifest = json.loads((indir / "manifest.json").read_text())
        self.rounds = manifest["rounds"]
        self.graphs = {}
        for name in {t["host"] for t in self.spec["round"]}:
            text = (indir / f"{name}.graph").read_text()
            self.graphs[name] = formats.parse_graph(text, name=name)
        # bound before tracing starts, so the benchmark's own reads stay untraced
        self._parse_placement = formats.parse_placement
        # component sizes the gcd law and the paper's theorems predict
        self.state_count = {t["host"]: oracle.state_count(self.graphs[t["host"]])
                            for t in self.spec["round"] if t["op"] == "certify"}
        self.records = []
        self.reference_s = []
        self.deadline = START + SPEC["run_deadline_s"]
        self.limit = SPEC["per_call_limit_s"]
        self.tracer = None
        signal.signal(signal.SIGALRM, _alarm)

    # -- one call under the time limit ---------------------------------
    def _timed(self, fn, *args):
        """(result, seconds, error); error is None when the call returned."""
        if perf_counter() > self.deadline:
            return None, 0.0, "skipped: run deadline passed"
        signal.setitimer(signal.ITIMER_REAL, self.limit)
        t0 = perf_counter()
        try:
            return fn(*args), perf_counter() - t0, None
        except CallTimeout:
            return None, perf_counter() - t0, f"over the {self.limit} s call limit"
        except Exception as exc:  # the run continues; the op counts as failed
            return None, perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def _record(self, rnd, op, seconds, error, **extra):
        self.records.append(dict(round=rnd, op=op, s=seconds, ok=error is None,
                                 error=error, **extra))

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc, secs, error = self._timed(lambda: self.cli.main(argv))
        if error is None and rc != 0:
            error = f"exit {rc}: {err.getvalue().strip()[-200:]}"
        return secs, error, out.getvalue()

    def _set_op(self, op, pair):
        if self.tracer is not None:
            self.tracer.op, self.tracer.pair = op, pair

    # -- operations -------------------------------------------------------
    def plan_and_verify(self, rnd, task, q, strategy, pair, certify=False,
                        distance=None):
        g = str(self.indir / task["graph"])
        p, q = str(self.indir / task["p"]), str(self.indir / q)
        out = str(self.workdir / "out.plan")
        self._set_op("plan", pair)
        secs, error, _ = self._cli(["plan", g, p, q, "--strategy", strategy,
                                    "--out", out])
        slides = None
        if error is None:
            with open(out) as fh:
                fh.readline()
                slides = int(fh.readline().split()[1])
            if certify and distance is None:
                error = "no oracle distance to the target"
            elif distance is not None and slides < distance:
                error = f"{slides} slides beat the oracle distance {distance}"
        ratio = slides / distance if error is None and distance else None
        self._record(rnd, "plan", secs, error, host=task["host"], pair=pair,
                     certify=certify, slides=slides, ratio=ratio)
        if slides is None:
            return
        self._set_op("verify", pair)
        secs, error, stdout = self._cli(["verify", g, out, "--target", q])
        if error is None and f"moves {slides}\nok True" not in stdout:
            error = f"replay does not reach the target: {stdout!r}"
        self._record(rnd, "verify", secs, error, host=task["host"], pair=pair,
                     certify=certify)

    def certify(self, rnd, t, task):
        g = self.graphs[task["host"]]
        p = self._parse_placement((self.indir / task["p"]).read_text(), g)
        pair = f"r{rnd}-t{t}"
        self._set_op("oracle", pair)
        comp, secs, error = self._timed(self.oracle.bfs_component, g, p)
        if error is None and comp.size != self.state_count[task["host"]]:
            error = (f"component has {comp.size} of "
                     f"{self.state_count[task['host']]} states")
        self._record(rnd, "bfs", secs, error, host=task["host"],
                     states=comp.size if comp else 0)
        for k, qname in enumerate(task["qs"]):
            q = self._parse_placement((self.indir / qname).read_text(), g)
            dist = comp.distance_to(q) if comp else None
            for strategy in task["strategies"]:
                self.plan_and_verify(rnd, task, qname, strategy,
                                     f"{pair}-q{k}-{strategy}", certify=True,
                                     distance=dist)
        for qname in task["qs"][:task["distances"]]:
            q = self._parse_placement((self.indir / qname).read_text(), g)
            self._set_op("oracle", pair)
            d, secs, error = self._timed(self.oracle.distance, g, p, q)
            if error is None and comp is not None and d != comp.distance_to(q):
                error = f"distance {d} disagrees with the BFS component"
            # distance explores the same component as the BFS above
            self._record(rnd, "distance", secs, error, host=task["host"],
                         states=comp.size if comp else 0)

    def verdict(self, rnd, t, task):
        self._set_op("oracle", f"r{rnd}-t{t}")
        g = self.graphs[task["host"]]
        ok, secs, error = self._timed(self.oracle.is_reconfigurable_bruteforce, g)
        if error is None and ok != task["expected"]:
            error = f"verdict {ok}, the gcd law says {task['expected']}"
        self._record(rnd, "verdict", secs, error, host=task["host"])

    def run_round(self, rnd):
        for t, task in enumerate(self.rounds[rnd]):
            self.reference_s.append(reference_kernel())
            if task["op"] == "plan":
                self.plan_and_verify(rnd, task, task["q"], task["strategy"],
                                     f"r{rnd}-t{t}")
            elif task["op"] == "certify":
                self.certify(rnd, t, task)
            else:
                self.verdict(rnd, t, task)

    def run(self, seconds=None):
        """Rounds until `seconds` have passed and `count_rounds` are done
        (only `count_rounds` when seconds is None). Returns the loop's
        wall time."""
        count = self.spec["count_rounds"]
        t0 = perf_counter()
        rnd = 0
        while rnd < len(self.rounds):
            elapsed = perf_counter() - t0
            if rnd >= count and (seconds is None or elapsed >= seconds):
                break
            if perf_counter() > self.deadline:
                if rnd < count:
                    self._record(rnd, "round", 0.0, "run deadline passed before "
                                 f"{count} rounds were done")
                break
            self.run_round(rnd)
            rnd += 1
        return perf_counter() - t0


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(runner, loop_s, setup_times, tail_pct):
    """Times are scaled to reference speed: multiplied by REFERENCE_S over
    the median time of the reference kernel in this run (rates divided)."""
    recs = runner.records
    speed = REFERENCE_S / statistics.median(runner.reference_s)
    count = runner.spec["count_rounds"]
    # Latency, throughput and plan length cover the plan tasks; the plans
    # certify tasks make count only where a workload has no plan tasks.
    certify_plans = not any(r["op"] == "plan" and not r["certify"] for r in recs)

    def secs(op):
        return [r["s"] for r in recs if r["op"] == op and r["ok"]
                and r.get("certify", certify_plans) == certify_plans]

    counted = [r for r in recs if r["op"] == "plan" and r["ok"] and r["round"] < count]
    ratios = [r["ratio"] for r in counted if r["ratio"] is not None]
    counted = [r for r in counted if r["certify"] == certify_plans]
    verified = [r for r in recs if r["op"] == "verify" and r["ok"]
                and r["certify"] == certify_plans]
    bfs = [r for r in recs if r["op"] in ("bfs", "distance") and r["ok"]]
    failed = sum(1 for r in recs if not r["ok"])
    return {
        "setup_s": statistics.median(setup_times),
        "plan_s.p50": statistics.median(secs("plan")) * speed,
        "plan_s.tail": percentile(secs("plan"), tail_pct) * speed,
        "pairs_per_s": len(verified) / loop_s / speed,
        "verify_s.p50": statistics.median(secs("verify")) * speed,
        "plan_slides.mean": statistics.mean(r["slides"] for r in counted),
        "optimality_ratio.mean": statistics.mean(ratios),
        "optimality_ratio.p90": percentile(ratios, 90),
        "oracle_states_per_s": (sum(r["states"] for r in bfs)
                                / sum(r["s"] for r in bfs) / speed),
        "distance_s.p50": statistics.median(secs("distance")) * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - failed / len(recs),
    }


def traced(runner, tracer):
    """Untraced then traced pass over the same count rounds."""
    runner.run()
    untraced = list(runner.records)
    runner.records = []
    runner.tracer = tracer
    tracer.install()
    try:
        runner.run()
    finally:
        tracer.uninstall()
    traced_recs = runner.records
    runner.records = untraced + traced_recs
    plans = [r for r in traced_recs if r["op"] == "plan"]
    out = tracer.layer_metrics(len(plans), sum(r["slides"] or 0 for r in plans))
    if len(untraced) != len(traced_recs):
        raise RuntimeError("traced and untraced passes ran different operations")
    out["trace.overhead"] = (sum(r["s"] for r in traced_recs)
                             / sum(r["s"] for r in untraced) - 1)
    out["trace.plan_self_share"] = (tracer.plan_self_seconds()
                                    / sum(r["s"] for r in untraced if r["op"] == "plan"))
    return out


def group_by_op_host(records):
    groups = {}
    for r in records:
        groups.setdefault((r["op"], r.get("host", "-")), []).append(r)
    return groups


def run_setup(workload, seed, out):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
    seconds, reference = map(float, proc.stdout.split()[-2:])
    return seconds * REFERENCE_S / reference


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    import_trigrid()

    work = ROOT / ".perfbench_work"
    run_dir = work / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        setup_times = [run_setup(args.workload, args.seed, run_dir / f"setup{i}")
                       for i in range(SPEC["setup_repeats"])]
        runner = Runner(args.workload, run_dir / "setup0", run_dir)
        spec = runner.spec
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            metrics = traced(runner, tracer)
            tracer.write(work / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            loop_s = runner.run(args.seconds)
            metrics = end_to_end(runner, loop_s, setup_times, spec["tail_percentile"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} differ from "
                         "BENCHMARK.json")
    for (op, host), recs in sorted(group_by_op_host(runner.records).items()):
        print(f"{op:8s} {host:18s} n {len(recs):3d}  median "
              f"{statistics.median(r['s'] for r in recs):.4f} s", file=sys.stderr)
    print(f"reference kernel: median {statistics.median(runner.reference_s):.6f} s "
          f"over {len(runner.reference_s)} runs (reference speed {REFERENCE_S} s)",
          file=sys.stderr)
    failures = [r for r in runner.records if not r["ok"]]
    for r in failures[:20]:
        print(f"FAILED {r['op']} {r.get('host', '')} round {r['round']}: "
              f"{r['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runner.records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
