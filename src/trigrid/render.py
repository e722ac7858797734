"""Deterministic SVG rendering of graphs, placements, and plans.

Vertices are drawn at the fixed projection (x + y/2, y*sqrt(3)/2) with the
y axis flipped for screen coordinates; element order is stable so output
files diff cleanly.
"""

import math
from typing import List, Optional, Sequence, Tuple

from .grid import TriGridGraph, cartesian
from .placement import Move, Placement, slide

SCALE = 60.0
MARGIN = 40.0

_PIECE_COLORS = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400",
                 "#16a085", "#7f8c8d", "#f39c12", "#2c3e50", "#e84393",
                 "#006266", "#b71540"]


def _layout(g: TriGridGraph) -> List[Tuple[float, float]]:
    if g.is_lattice:
        raw = [cartesian(g.point_of(v)) for v in g.vertex_ids]
    else:
        # abstract graphs: place on a circle, deterministic by id
        nv = g.num_vertices
        raw = [(math.cos(2 * math.pi * i / nv), math.sin(2 * math.pi * i / nv))
               for i in range(nv)]
    xs = [x for x, _ in raw]
    ys = [y for _, y in raw]
    x0, y1 = min(xs), max(ys)
    return [((x - x0) * SCALE + MARGIN, (y1 - y) * SCALE + MARGIN)
            for x, y in raw]


def _extent(coords: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    return (max(x for x, _ in coords) + MARGIN,
            max(y for _, y in coords) + MARGIN)


def render_graph(g: TriGridGraph, p: Optional[Placement] = None) -> str:
    """One SVG document; pieces drawn as thick colored edges and the
    exposed vertex highlighted when a placement is given."""
    coords = _layout(g)
    w, h = _extent(coords)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">']
    for u, v in sorted(g.edges):
        (x1, y1), (x2, y2) = coords[u - 1], coords[v - 1]
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                     f'y2="{y2:.1f}" stroke="#bbbbbb" stroke-width="2"/>')
    if p is not None:
        for label, (u, v) in enumerate(p.pieces, start=1):
            (x1, y1), (x2, y2) = coords[u - 1], coords[v - 1]
            color = _PIECE_COLORS[(label - 1) % len(_PIECE_COLORS)]
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                f'y2="{y2:.1f}" stroke="{color}" stroke-width="10" '
                f'stroke-linecap="round"/>')
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            parts.append(f'<text x="{mx:.1f}" y="{my + 4:.1f}" '
                         f'font-size="13" text-anchor="middle" '
                         f'fill="#ffffff">{label}</text>')
        ex, ey = coords[p.exposed - 1]
        parts.append(f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="10" '
                     f'fill="none" stroke="#e74c3c" stroke-width="3"/>')
    for v in g.vertex_ids:
        x, y = coords[v - 1]
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" '
                     f'fill="#333333"/>')
        parts.append(f'<text x="{x + 8:.1f}" y="{y - 6:.1f}" font-size="11" '
                     f'fill="#555555">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_plan_frames(g: TriGridGraph, start: Placement, moves: Sequence[Move]) -> List[str]:
    """One SVG per state, from the start through every slide."""
    frames = [render_graph(g, start)]
    cur = start
    for mv in moves:
        cur = slide(cur, mv)
        frames.append(render_graph(g, cur))
    return frames
