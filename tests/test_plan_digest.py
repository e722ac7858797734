"""Plan-identity guard: seeded plans must stay the same move for move.

Each digest is the SHA-256 of the serialized move lists of four seeded
pairs. A change that alters any plan on these hosts changes its digest;
performance work must keep them, and a change that means to alter plans
updates them and says why.
"""

import hashlib
import random

import pytest

from trigrid.corpus import degree6_corpus, locally_connected_corpus
from trigrid.ear_planner import plan_ear
from trigrid.formats import serialize_moves
from trigrid.grid import (build_graph, diamond_cycle_graph, hex_with_hole_graph,
                          hexagon_points)
from trigrid.hc_planner import plan_hamilton

from conftest import random_placement


def _hex11():
    return next(g for g in locally_connected_corpus() if g.name == "hex11")


CASES = {
    "hex11-hamilton": (_hex11, plan_hamilton,
                       "b6a19d586e91ec88edfae6ae986a0d8d7534caee4674f56a8f3a383091860be5"),
    "deg6-11v-ear": (lambda: degree6_corpus(13, 12)[-1], plan_ear,
                     "488ba7a5930e964b595b7206616f3d9767eff1fff0354a735f31f77f58d8780e"),
    "diamond_cycle6-ear": (lambda: diamond_cycle_graph(6), plan_ear,
                           "38095e4f3cb744e1c4b3b6be19497ae2e7bc9276942ad470e97147d8934df957"),
    # the two below reach the ear planner's spare-edge branch (`_spare_fill`),
    # which the cases above never take
    "hex19-ear": (lambda: build_graph(hexagon_points(2)), plan_ear,
                  "592c1ecb3464e277176d00a1315650683e2b052fcb95e93b0044802e83f3220f"),
    "hex_with_hole2-ear": (lambda: hex_with_hole_graph(2), plan_ear,
                           "faf464ca0cb1988c74649307565856b8ad28409f16822fd22b25311842663327"),
}


def plan_digest(g, planner, pairs=4):
    rng = random.Random(20260826)
    h = hashlib.sha256()
    for _ in range(pairs):
        p, q = random_placement(g, rng), random_placement(g, rng)
        h.update(serialize_moves(planner(g, p, q).sequence.moves).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_digest(case):
    build, planner, digest = CASES[case]
    assert plan_digest(build(), planner) == digest
