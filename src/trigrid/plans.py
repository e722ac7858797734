"""What both planners share: their errors, their report, and
`finish_plan`, which cuts a plan's word once into the verified moves of
its report. Both planners build their plans as words and step no piece
to check them on the way; `finish_plan` is each plan's one check."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .placement import (Move, Placement, PlacementError, SlideSequence, cut_loops,
                        verify_sequence)


class PlanError(Exception):
    """A planner refuses its input: the host or placements lie outside its
    domain."""


class PlanInvariantError(Exception):
    """A plan a planner built fails its own final replay: a bug in the
    planner, not a refusal of the input."""


@dataclass
class PlanReport:
    """A verified plan: its start and its moves, plain `(label, kept, dest)`
    triples that end at the target. `recursion_trace` is the ear planner's
    level log, one entry per core call and per staged ear; the cycle
    planner leaves it empty. `stats["uncut_slides"]` is the length of the word
    before `cut_loops`, gadgets' loops included. `swaps` counts the
    transpositions the planner asks for: the ear planner's level fills,
    not the lower-level ones each of them is conjugated from, and the cycle
    planner's adjacent swaps. `gadgets` counts the transpositions built
    rather than reused: the ear planner's at every level
    (`_Planner._transpose`'s memo), the cycle planner's swap-gadget words
    (`hc_planner.gadget_word`, one a window that swaps). `fallbacks`
    counts the levels the ear planner planned whole for a transposition
    because no rotation brought both pieces into the level below (0 for
    the cycle planner). `windows` counts the distinct parity diamonds at
    which the cycle planner swapped (0 for the ear planner)."""

    start: Placement
    moves: Tuple[Move, ...]
    strategy: str
    recursion_trace: List[Dict] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def slide_count(self) -> int:
        return len(self.moves)


def finish_plan(seq: SlideSequence, q: Placement, strategy: str,
                trace: List[Dict], swaps: int = 0, gadgets: int = 0,
                fallbacks: int = 0, windows: int = 0) -> PlanReport:
    """Cut the loops out of a full plan's word, the one cut a plan gets,
    which labels its slides in the same replay; check the moves with
    `verify_sequence` and report them. Raises PlanInvariantError if the
    word steps from a vertex no piece covers or the moves do not replay
    to q."""
    try:
        moves = cut_loops(seq)
    except PlacementError as exc:
        raise PlanInvariantError(f"plan verification failed: {exc}") from exc
    check = verify_sequence(seq.start, moves, expected_end=q)
    if not check.ok:
        raise PlanInvariantError(f"plan verification failed: {check.message}")
    return PlanReport(seq.start, moves, strategy, recursion_trace=trace,
                      stats={"uncut_slides": len(seq), "swaps": swaps,
                             "gadgets": gadgets, "fallbacks": fallbacks,
                             "windows": windows})

