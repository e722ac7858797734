"""Span tracing for the benchmark's traced run.

Wraps public layer functions of trigrid from outside the program: each
wrapper is rebound at every name under which a trigrid module holds the
function, so calls through `from .placement import rotate` are caught too.
A span records name, start, end, parent span, operation kind and pair id.
Spans stay in memory until `write`. The per-state hot paths `slide` and
`legal_moves` get counters only.
"""

import json
import sys
from collections import Counter
from time import perf_counter

SPANS = [
    "cli.main",
    "formats.parse_graph", "formats.parse_placement", "formats.parse_plan",
    "formats.parse_sequence", "formats.parse_moves",
    "formats.serialize_plan", "formats.serialize_sequence",
    "formats.serialize_placement", "formats.serialize_moves",
    "grid.is_locally_connected", "grid.is_star_of_david",
    "placement.rotate", "placement.expose", "placement.invert_sequence",
    "placement.verify_sequence",
    "hamilton.find_hamilton", "hamilton.find_local_structure",
    "hc_planner.plan_hamilton", "hc_planner.align_with_hamilton",
    "hc_planner.swap_adjacent",
    "ears.find_admissible", "ears.align_with_ears",
    "ear_planner.plan_ear", "ear_planner.base_pentagon",
    "ear_planner.base_diamond_cycle",
    "matching.alternating_path_to", "matching.enumerate_near_perfect_matchings",
    "oracle.bfs_component", "oracle.distance",
    "oracle.is_reconfigurable_bruteforce", "oracle.state_count",
]
REPLAY_SPAN = "placement.SlideSequence.end"
COUNTERS = ["placement.slide", "placement.legal_moves"]

# metric -> spans whose outermost calls (no ancestor span in the same set)
# give the metric's inclusive time
INCLUSIVE = {
    "placement.sequence_replay_s": [REPLAY_SPAN],
    "placement.rotate_s": ["placement.rotate"],
    "placement.expose_s": ["placement.expose"],
    "placement.invert_s": ["placement.invert_sequence"],
    "placement.verify_s": ["placement.verify_sequence"],
    "hamilton.find_hamilton_s": ["hamilton.find_hamilton"],
    "hamilton.find_local_structure_s": ["hamilton.find_local_structure"],
    "hc_planner.align_s": ["hc_planner.align_with_hamilton"],
    "hc_planner.swap_adjacent_s": ["hc_planner.swap_adjacent"],
    "ears.find_admissible_s": ["ears.find_admissible"],
    "ears.align_s": ["ears.align_with_ears"],
    "ear_planner.base_s": ["ear_planner.base_pentagon", "ear_planner.base_diamond_cycle"],
    "matching.alternating_path_s": ["matching.alternating_path_to"],
    "matching.enumerate_s": ["matching.enumerate_near_perfect_matchings"],
    "oracle.bfs_s": ["oracle.bfs_component"],
    "formats.parse_s": [s for s in SPANS if s.startswith("formats.parse_")],
    "formats.serialize_s": [s for s in SPANS if s.startswith("formats.serialize_")],
    "grid.checks_s": ["grid.is_locally_connected", "grid.is_star_of_david"],
}
# metric -> spans whose self time (duration minus child spans) it sums
SELF = {
    "hc_planner.self_s": [s for s in SPANS if s.startswith("hc_planner.")],
    "ear_planner.self_s": [s for s in SPANS if s.startswith("ear_planner.")],
    "oracle.self_s": [s for s in SPANS if s.startswith("oracle.")],
    "cli.self_s": ["cli.main"],
}
# metric -> span whose calls it counts
CALLS = {
    "placement.rotate_calls": "placement.rotate",
    "hc_planner.swaps": "hc_planner.swap_adjacent",
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op, pair]
        self.stack = []
        self.counts = Counter()  # (op, counter name) -> calls
        self.totals = Counter()  # name -> sum taken from return values
        self.op = self.pair = None
        self._undo = []

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        on_result = {
            "ear_planner.plan_ear": lambda r: ("ear_planner.trace_entries",
                                               len(r.recursion_trace)),
            "oracle.bfs_component": lambda r: ("oracle.states", r.size),
            "formats.serialize_plan": lambda r: ("formats.plan_bytes",
                                                 len(r.encode())),
        }.get(name)

        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.op, self.pair])
            stack.append(i)
            spans[i][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i][2] = perf_counter()
                stack.pop()
            if on_result is not None:
                key, value = on_result(result)
                self.totals[key] += value
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.op, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, qualname, make):
        modname, attr = qualname.split(".")
        module = sys.modules[f"trigrid.{modname}"]
        orig = getattr(module, attr)
        wrapped = make(qualname, orig)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("trigrid"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))

    def install(self):
        import trigrid.cli  # noqa: F401  (loads every layer module)
        from trigrid.placement import SlideSequence
        for name in SPANS:
            self._rebind(name, self._span)
        for name in COUNTERS:
            self._rebind(name, self._counter)
        prop = SlideSequence.__dict__["end"]
        SlideSequence.end = property(self._span(REPLAY_SPAN, prop.fget))
        self._undo.append((SlideSequence, "end", prop))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def _self_times(self):
        """Each span's duration minus the durations of its child spans."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_metrics(self, plan_ops, plan_slides):
        """Per-layer totals over every traced operation."""
        spans = self.spans
        own = self._self_times()

        def has_ancestor_in(i, names):
            j = spans[i][3]
            while j >= 0:
                if spans[j][0] in names:
                    return True
                j = spans[j][3]
            return False

        out = {}
        for metric, names in INCLUSIVE.items():
            names = set(names)
            out[metric] = sum(s[2] - s[1] for i, s in enumerate(spans)
                              if s[0] in names and not has_ancestor_in(i, names))
        for metric, names in SELF.items():
            names = set(names)
            out[metric] = sum(own[i] for i, s in enumerate(spans) if s[0] in names)
        for metric, name in CALLS.items():
            out[metric] = sum(1 for s in spans if s[0] == name)
        for key in ("ear_planner.trace_entries", "oracle.states", "formats.plan_bytes"):
            out[key] = self.totals[key]
        for counter in COUNTERS:
            out[counter + "_calls"] = sum(n for (_, name), n in self.counts.items()
                                          if name == counter)
        out["placement.slide_calls_per_plan_slide"] = (
            self.counts[("plan", "placement.slide")] / max(plan_slides, 1))
        out["placement.verify_calls_per_plan"] = sum(
            1 for s in spans if s[0] == "placement.verify_sequence" and s[4] == "plan"
        ) / max(plan_ops, 1)
        return out

    def plan_self_seconds(self):
        """Self time of every span inside plan operations; by construction
        the traced duration of those operations' root spans."""
        own = self._self_times()
        return sum(own[i] for i, s in enumerate(self.spans) if s[4] == "plan")

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, pair in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, pair]) + "\n")
