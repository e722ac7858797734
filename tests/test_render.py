"""SVG rendering of an abstract host, which has no lattice points."""

import math
import re

import pytest

from trigrid.grid import diamond_cycle_graph
from trigrid.render import SCALE, render_graph


def test_render_abstract_host_on_a_circle():
    """The vertices of an abstract host are laid out evenly on a circle of
    radius SCALE: one vertex circle per vertex, no two at one spot, and one
    grey line per edge."""
    g = diamond_cycle_graph(3)
    svg = render_graph(g)
    centres = [(float(x), float(y)) for x, y in
               re.findall(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="5"', svg)]
    assert len(centres) == g.num_vertices == len(set(centres))
    assert svg.count('stroke="#bbbbbb"') == len(g.edges)
    cx = sum(x for x, _ in centres) / len(centres)
    cy = sum(y for _, y in centres) / len(centres)
    for x, y in centres:
        assert math.hypot(x - cx, y - cy) == pytest.approx(SCALE, abs=0.2)
