"""What both planners share: their errors, the transposition memo, and
`finish_plan`, which cuts a plan's word once into the verified moves of
its report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Tuple

from .placement import Placement, SlideMove, SlideSequence, cut_loops, replay, verify_sequence


class PlanError(Exception):
    """A planner refuses its input: the host or placements lie outside its
    domain."""


class PlanInvariantError(Exception):
    """A plan a planner built fails its own final replay: a bug in the
    planner, not a refusal of the input."""


@dataclass
class PlanReport:
    """A verified plan: its start and its `(label, kept, dest)` moves, which
    end at the target. `stats["uncut_slides"]` is the length of the word
    before `cut_loops`, gadgets' loops included. `swaps` counts the
    transpositions the planner asks for: the ear planner's level fills,
    not the lower-level ones each of them is conjugated from, and the cycle
    planner's adjacent swaps. `gadgets` counts the transpositions built
    rather than replayed (`Transpositions`): the ear planner's at every
    level, the cycle planner's swap gadgets (one slide and two rotations
    each, at most two a plan). `fallbacks` counts the levels the ear
    planner planned whole for a transposition because no rotation brought
    both pieces into the level below (0 for the cycle planner)."""

    start: Placement
    moves: Tuple[SlideMove, ...]
    strategy: str
    recursion_trace: List[Dict] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def slide_count(self) -> int:
        return len(self.moves)


def finish_plan(seq: SlideSequence, q: Placement, strategy: str,
                trace: List[Dict], swaps: int = 0, gadgets: int = 0,
                fallbacks: int = 0) -> PlanReport:
    """Cut the loops out of a full plan's word, the one cut a plan gets,
    which labels its slides in the same replay; check the moves with
    `verify_sequence` and report them. Raises PlanInvariantError if they
    do not replay to q."""
    moves = cut_loops(seq)
    check = verify_sequence(seq.start, moves, expected_end=q)
    if not check.ok:
        raise PlanInvariantError(f"plan verification failed: {check.message}")
    return PlanReport(seq.start, moves, strategy, recursion_trace=trace,
                      stats={"uncut_slides": len(seq), "swaps": swaps,
                             "gadgets": gadgets, "fallbacks": fallbacks})


class Transpositions:
    """One plan's memo of transposition gadgets. A slide is fixed by its
    kept vertex and the gap, not by labels, so a gadget built once for a
    key replays on any labels. Within one plan a key must fix the
    unlabeled state, the gap, the two positions and whatever else `build`
    depends on. `kept` maps each key to its gadget's word, stored as
    built, loops and all: `finish_plan` cuts the whole plan once. The
    memo's length is the number of builds."""

    def __init__(self) -> None:
        self.kept: Dict[Hashable, Tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.kept)

    def __call__(self, cur: Placement, a: int, b: int, key: Hashable,
                 build: Callable[[Placement], SlideSequence]) -> SlideSequence:
        """Slides from cur that exchange the pieces of labels a and b and
        keep every other piece and the gap: replayed for a known key, else
        `build(target)`, target being the swapped placement. Raises
        PlanInvariantError if they do not end at target."""
        pieces = list(cur.pieces)
        pieces[a - 1], pieces[b - 1] = pieces[b - 1], pieces[a - 1]
        target = Placement(cur.graph, tuple(pieces), cur.exposed)
        kept = self.kept.get(key)
        gadget = build(target) if kept is None else replay(cur, kept)
        if gadget.end != target:
            raise PlanInvariantError("gadget does not end at the swap target")
        if kept is None:
            self.kept[key] = gadget.kept
        return gadget
