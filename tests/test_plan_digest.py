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
                       "138b3475701c9df77138a89aeccff9d918536677e349ac19c133377bb22b6f39"),
    "deg6-11v-ear": (lambda: degree6_corpus(13, 12)[-1], plan_ear,
                     "839d7387a83738b562f31415060820844309a9709b98f604ee769b1523de6ca3"),
    "diamond_cycle6-ear": (lambda: diamond_cycle_graph(6), plan_ear,
                           "d338221d30c0767e2c308e84fed46e5140e48ad59619f9cf9b8956bc82e3b22b"),
    # the two below reach the ear planner's spare-edge branch (`_spare_fill`),
    # which the cases above never take
    "hex19-ear": (lambda: build_graph(hexagon_points(2)), plan_ear,
                  "e52ff20c27a639b0359c4e89a832fdc921801c7fa0b676e6e804ddbcf911883d"),
    "hex_with_hole2-ear": (lambda: hex_with_hole_graph(2), plan_ear,
                           "6757e2fe85c1cf5215ff282c6626a799c77b57b78026e9c11e46cf5e88bc9eb2"),
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
