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
                       "36c1a38c0646539b953a3e49c308f172c80d3e65209b51f99ce1b852e0b0a61b"),
    "deg6-11v-ear": (lambda: degree6_corpus(13, 12)[-1], plan_ear,
                     "cb231f283cbf73f9320f744c483e4bf555978e8c37d25d32040fe8ae4890f705"),
    "diamond_cycle6-ear": (lambda: diamond_cycle_graph(6), plan_ear,
                           "80e1f475de1ae9f3f6ea15eeacef3762d072ee8dcdad33544afd3c1cf519f366"),
    "hex19-ear": (lambda: build_graph(hexagon_points(2)), plan_ear,
                  "ee9bff7c3a1411d9c07ce22a241f3bb20dd2585ea03faab3df74b7121554d9a5"),
    "hex_with_hole2-ear": (lambda: hex_with_hole_graph(2), plan_ear,
                           "c8f600c5db124a83dda22d85a468b3c93b4c2cece15424a189567a7a363a73db"),
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
