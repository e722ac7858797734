"""Planner for 2-connected factor-critical hosts via admissible ear
decompositions: align both placements, then reconfigure level by level."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .grid import Edge, TriGridGraph, edge_key
from .matching import alternating_path_to
from .ears import EarDecomposition, cycle_edges, find_admissible, align_with_ears
from .placement import (Placement, RotationSpec, SlideSequence, expose,
                        invert_sequence, rotate, shortest_slides_within,
                        verify_sequence)


class PlanError(Exception):
    pass


@dataclass
class PlanReport:
    sequence: SlideSequence
    slide_count: int
    strategy: str
    recursion_trace: List[Dict] = field(default_factory=list)


def base_pentagon(p: Placement, q: Placement,
                  edges: Optional[Set[Edge]] = None) -> SlideSequence:
    """Shortest plan from p to q that slides only along `edges` (default:
    every edge of the host), by breadth-first search; for small cores such
    as the pentagon. Raises PlanError if q is unreachable that way."""
    seq = shortest_slides_within(p, p.graph.edges if edges is None else edges,
                                 lambda s: s.pieces == q.pieces)
    if seq is None:
        raise PlanError("core target unreachable within region")
    return seq


def _forced_cycle_dominoes(cycle: Sequence[int], gap: int) -> List[Edge]:
    """Dominoes of the unique tiling of an odd cycle with the given gap,
    listed in cycle order starting after the gap."""
    i = cycle.index(gap)
    order = list(cycle[i + 1:]) + list(cycle[:i])
    return [edge_key(order[t], order[t + 1]) for t in range(0, len(order) - 1, 2)]


class _Planner:
    def __init__(self, g: TriGridGraph, d: EarDecomposition):
        self.g = g
        self.d = d
        self.trace: List[Dict] = []

    def plan(self, i: int, p: Placement, q: Placement) -> SlideSequence:
        """Plan p -> q using only edges of G_i; p and q agree outside G_i."""
        vs, es = self.d.region(i)
        if p.pieces == q.pieces and p.exposed == q.exposed:
            return SlideSequence(p, ())
        if i <= 3:
            if self.d.kind == "pentagon":
                self.trace.append({"level": i, "kind": "pentagon-core"})
                return base_pentagon(p, q, es)
            if self.d.kind == "diamond_cycle":
                self.trace.append({"level": i, "kind": "diamond-core"})
                return base_diamond_cycle(p, q, self.d, region=(vs, es))
            raise PlanError("decomposition is not admissible")
        ear = self.d.ear(i)
        if len(ear) == 2:
            return self._chord_step(i, p, q)
        return self._ear_step(i, p, q)

    # -- length-1 ear: clear the chord on both sides, recurse below
    def _chord_step(self, i: int, p: Placement, q: Placement) -> SlideSequence:
        ear = self.d.ear(i)
        vs, es = self.d.region(i)
        sp = expose(p, ear[0], within=vs, edges=es)
        sq = expose(q, ear[0], within=vs, edges=es)
        mid = self.plan(i - 1, sp.end, sq.end)
        return sp.then(mid).then(invert_sequence(sq))

    # -- proper ear with interior: stage target labels onto the ear
    def _ear_step(self, i: int, p: Placement, q: Placement) -> SlideSequence:
        ear = self.d.ear(i)
        vs, es = self.d.region(i)
        sub_vs, sub_es = self.d.region(i - 1)
        v, u = ear[0], ear[-1]

        sp = expose(p, v, within=vs, edges=es)
        sq = expose(q, v, within=vs, edges=es)
        cur, tgt = sp.end, sq.end
        seq = sp

        q_dominoes = [edge_key(ear[t], ear[t + 1]) for t in range(1, len(ear) - 1, 2)]
        lam = [tgt.label_at(e) for e in q_dominoes]
        assert all(x is not None for x in lam), "target ear is not aligned"
        ell = len(lam)

        ppath = alternating_path_to(self.g, cur.matching, v, u,
                                    within=sub_vs, edges=sub_es)
        cyc = tuple(ear[:-1]) + tuple(reversed(ppath[1:]))
        ces = cycle_edges(cyc)
        p_dominoes = [edge_key(ppath[t], ppath[t + 1])
                      for t in range(1, len(ppath) - 1, 2)]
        hamilton = len(cyc) == len(vs)
        self.trace.append({"level": i, "ell": ell,
                           "branch": "hamilton" if hamilton else "spare-edge"})

        if hamilton:
            seq = seq.then(self._hamilton_fill(i, cur, lam, cyc, ear, ppath))
        else:
            seq = seq.then(self._spare_fill(i, cur, lam, cyc, ear, ppath))
        cur = seq.end

        for lab, e in zip(lam, q_dominoes):
            assert cur.piece(lab) == e, "ear staging failed"
        mid = self.plan(i - 1, cur, tgt)
        return seq.then(mid).then(invert_sequence(sq))

    def _swap(self, i: int, cur: Placement, a: int, b: int) -> SlideSequence:
        """Recursive sub-plan that transposes labels a and b in G_{i-1}."""
        pieces = list(cur.pieces)
        pieces[a - 1], pieces[b - 1] = pieces[b - 1], pieces[a - 1]
        target = Placement(cur.graph, tuple(pieces), cur.exposed)
        return self.plan(i - 1, cur, target)

    def _spare_fill(self, i: int, cur: Placement, lam: List[int],
                    cyc: Tuple[int, ...], ear: Tuple[int, ...],
                    ppath: List[int]) -> SlideSequence:
        """Non-Hamilton branch: park labels at the far end of the ear
        through a spare matched edge off the cycle."""
        v, u = ear[0], ear[-1]
        sub_vs, _ = self.d.region(i - 1)
        e1 = edge_key(ppath[-2], ppath[-1])
        e2 = edge_key(ear[-3], ear[-2])
        staging = edge_key(ppath[1], ppath[2])
        on_cycle = cycle_edges(cyc)
        spare = None
        for e in sorted(cur.pieces):
            if (e[0] in sub_vs and e[1] in sub_vs
                    and e[0] not in cyc and e[1] not in cyc):
                spare = e
                break
        assert spare is not None, "no spare matched edge off the cycle"

        seq = SlideSequence(cur, ())
        for j, lab in enumerate(lam, start=1):
            pos = cur.piece(lab)
            if pos in on_cycle and (pos[0] in ear[1:-1] or pos[1] in ear[1:-1]):
                step = rotate(cur, RotationSpec(cyc, target_exposed=v,
                                                target_pieces=((lab, staging),)))
                seq, cur = seq.then(step), step.end
            if cur.piece(lab) != spare:
                step = self._swap(i, cur, lab, cur.label_at(spare))
                seq, cur = seq.then(step), step.end
            if j >= 2:
                step = rotate(cur, RotationSpec(cyc, target_exposed=v,
                                                target_pieces=((lam[j - 2], e2),)))
                seq, cur = seq.then(step), step.end
            step = self._swap(i, cur, lab, cur.label_at(e1))
            seq, cur = seq.then(step), step.end
        # final notch: pull the train fully onto the ear
        step = rotate(cur, RotationSpec(cyc, target_exposed=v,
                                        target_pieces=((lam[-1], e2),)))
        return seq.then(step)

    def _hamilton_fill(self, i: int, cur: Placement, lam: List[int],
                       cyc: Tuple[int, ...], ear: Tuple[int, ...],
                       ppath: List[int]) -> SlideSequence:
        """Hamilton branch: bubble the target labels into consecutive order
        with a fixed two-domino swap window, then rotate into place."""
        v = ear[0]
        dominoes = _forced_cycle_dominoes(cyc, v)
        w1, w2 = dominoes[-1], dominoes[-2]   # adjacent, both in G_{i-1}
        assert w1 == edge_key(ppath[1], ppath[2])

        def order_after(pl_: Placement, lab: int) -> int:
            idx = dominoes.index(pl_.piece(lab))
            return pl_.label_at(dominoes[(idx + 1) % len(dominoes)])

        seq = SlideSequence(cur, ())
        for j in range(len(lam) - 1, 0, -1):
            a, b = lam[j - 1], lam[j]
            while order_after(cur, a) != b:
                nxt = order_after(cur, a)
                # bring (a, nxt) into the swap window, then transpose
                step = rotate(cur, RotationSpec(cyc, target_exposed=v,
                                                target_pieces=((a, w2),)))
                seq, cur = seq.then(step), step.end
                assert cur.piece(nxt) == w1
                step = self._swap(i, cur, a, nxt)
                seq, cur = seq.then(step), step.end
        step = rotate(cur, RotationSpec(cyc, target_exposed=v,
                                        target_pieces=((lam[0], dominoes[0]),)))
        return seq.then(step)


def base_diamond_cycle(p: Placement, q: Placement,
                       d: Optional[EarDecomposition] = None,
                       region: Optional[Tuple[Set[int], Set[Edge]]] = None) -> SlideSequence:
    """Plan on an odd cycle with an attached diamond via the two-cycle
    rotation loop: stage each target label on the diamond's far edge along
    the Hamilton cycle, then park it with an inner-cycle rotation."""
    g = p.graph
    if d is None:
        d, _ = find_admissible(g)
        if d.kind != "diamond_cycle":
            raise PlanError("host is not a diamond-attached odd cycle")
    if region is None:
        vs, es = d.region(3)
    else:
        vs, es = region
    c_inner = d.base
    p1 = d.ear(2)                 # u, x, y, v along the diamond
    u, x, y, v = p1
    # Hamilton cycle: inner cycle with edge (u, v) replaced by the ear path
    iu, iv = c_inner.index(u), c_inner.index(v)
    ring = list(c_inner)
    if ring[(iu + 1) % len(ring)] != v:
        ring.reverse()
        iu = ring.index(u)
    assert ring[(iu + 1) % len(ring)] == v
    c_prime = tuple(ring[: iu + 1]) + (x, y) + tuple(ring[iu + 1:])

    # w: the inner-cycle neighbor of v away from u
    jv = ring.index(v)
    w = ring[(jv + 1) % len(ring)]
    park_edge = edge_key(v, w)
    mid_edge = edge_key(x, y)

    # align both ends with the Hamilton cycle by clearing the two chords
    sp = _clear_chords(p, c_prime, (edge_key(u, v), _diag_edge(p.graph, p1)), vs, es)
    sq = _clear_chords(q, c_prime, (edge_key(u, v), _diag_edge(q.graph, p1)), vs, es)
    cur, tgt = sp.end, sq.end
    seq = sp

    # target labels along the Hamilton cycle, read against the parking
    # direction so the accumulating train matches the target cyclic order
    dominoes = _forced_cycle_dominoes(c_prime, tgt.exposed)
    labels = [tgt.label_at(e) for e in reversed(dominoes)]
    assert all(lab is not None for lab in labels)

    def run(order: List[int]) -> SlideSequence:
        # once all labels but one form a consecutive train the cyclic order
        # is fixed, so the last label needs no iteration of its own
        body = SlideSequence(cur, ())
        state = cur
        prev = None
        for lab in order[:-1]:
            step = rotate(state, RotationSpec(c_prime, target_pieces=((lab, mid_edge),)))
            body, state = body.then(step), step.end
            if prev is not None:
                step = rotate(state, RotationSpec(c_inner,
                                                  target_pieces=((prev, park_edge),)))
                body, state = body.then(step), step.end
            prev = lab
        # the cyclic order now matches the target: finish with one rotation
        step = rotate(state, RotationSpec(
            c_prime, target_exposed=tgt.exposed,
            target_pieces=tuple((lab, tgt.piece(lab)) for lab in order)))
        return body.then(step)

    # any cyclic shift of the reading produces the same cyclic order; take
    # the cheapest one
    best = None
    for shift in range(len(labels)):
        cand = run(labels[shift:] + labels[:shift])
        if best is None or len(cand.moves) < len(best.moves):
            best = cand
    seq = seq.then(best)
    return seq.then(invert_sequence(sq))


def _diag_edge(g: TriGridGraph, p1: Sequence[int]) -> Edge:
    u, x, y, v = p1
    if g.has_edge(x, v):
        return edge_key(x, v)
    assert g.has_edge(u, y)
    return edge_key(u, y)


def _clear_chords(p: Placement, cyc: Tuple[int, ...], chords: Sequence[Edge],
                  vs: Set[int], es: Set[Edge]) -> SlideSequence:
    """Align with a Hamilton cycle of the region by exposing chord
    endpoints, narrowing the allowed edge set chord by chord."""
    seq = SlideSequence(p, ())
    cur = p
    allowed = set(es)
    for e in chords:
        step = expose(cur, e[0], within=vs, edges=allowed)
        seq, cur = seq.then(step), step.end
        allowed.discard(e)
    return seq


def plan_ear(g: TriGridGraph, p: Placement, q: Placement) -> PlanReport:
    """Full pipeline: find an admissible decomposition, align both ends,
    reconfigure level by level, undo the target alignment."""
    d, _ = find_admissible(g)
    sp = align_with_ears(p, d)
    sq = align_with_ears(q, d)
    planner = _Planner(g, d)
    mid = planner.plan(d.levels, sp.end, sq.end)
    seq = sp.then(mid).then(invert_sequence(sq))
    report = PlanReport(seq, len(seq.moves), "ear",
                        recursion_trace=planner.trace)
    check = verify_sequence(seq, q)
    if not check.ok or check.matches_expected is False:
        raise PlanError(f"plan verification failed: {check.message}")
    return report
