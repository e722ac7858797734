"""Plan-identity guard: seeded plans must stay the same move for move.

Each digest is the SHA-256 of the serialized move lists of four seeded
pairs. A change that alters any plan on these hosts changes its digest;
performance work must keep them, and a change that means to alter plans
updates them and says why.
"""

import hashlib
import random

import pytest

from trigrid.ear_planner import plan_ear
from trigrid.formats import serialize_moves
from trigrid.grid import (build_graph, diamond_cycle_graph, hex_with_hole_graph,
                          hexagon_points)
from trigrid.hc_planner import plan_hamilton

from conftest import random_placement
from corpus import degree6_corpus, locally_connected_corpus


def _hex11():
    return next(g for g in locally_connected_corpus() if g.name == "hex11")


CASES = {
    "hex11-hamilton": (_hex11, plan_hamilton,
                       "68e1c07970a03622e644bbc49041d859f1518598159cfc348af50c9265bd5bd4"),
    "deg6-11v-ear": (lambda: degree6_corpus(13, 12)[-1], plan_ear,
                     "cb231f283cbf73f9320f744c483e4bf555978e8c37d25d32040fe8ae4890f705"),
    "diamond_cycle6-ear": (lambda: diamond_cycle_graph(6), plan_ear,
                           "80e1f475de1ae9f3f6ea15eeacef3762d072ee8dcdad33544afd3c1cf519f366"),
    "hex19-ear": (lambda: build_graph(hexagon_points(2)), plan_ear,
                  "273d55a52a5347b3857bae68d18b8cc6af3401ab205ca0866832e7155ab25049"),
    "hex_with_hole2-ear": (lambda: hex_with_hole_graph(2), plan_ear,
                           "a4a9a66ef3e9203692020aafaa456ddf8832b8ba0784f225f3934ed8e0906887"),
}
# the cases whose pairs reach the ear planner's spare-edge branch
# (`_spare_fill`), which the other ear cases never take
SPARE_EDGE = {"hex19-ear", "hex_with_hole2-ear"}


def seeded_reports(g, planner, pairs=4):
    rng = random.Random(20260826)
    out = []
    for _ in range(pairs):
        p, q = random_placement(g, rng), random_placement(g, rng)
        out.append(planner(g, p, q))
    return out


def plan_digest(reports):
    h = hashlib.sha256()
    for rep in reports:
        h.update(serialize_moves(rep.moves).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_digest(case):
    build, planner, digest = CASES[case]
    reports = seeded_reports(build(), planner)
    assert plan_digest(reports) == digest
    branches = {e.get("branch") for rep in reports for e in rep.recursion_trace}
    assert ("spare-edge" in branches) == (case in SPARE_EDGE)
