"""Planner for 2-connected factor-critical hosts via admissible ear
decompositions: align both placements, then reconfigure level by level."""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from .grid import Edge, TriGridGraph, edge_key
from .matching import alternating_path_to
from .ears import EarDecomposition, LevelMatchings, align_with_ears, ear_settled, find_admissible
from .placement import (Placement, SlideSequence, align_with_cycle, forced_cycle_dominoes,
                        invert_sequence, rotate)
from .plans import PlanError, PlanReport, finish_plan


class _Planner:
    def __init__(self, g: TriGridGraph, d: EarDecomposition):
        self.d = d
        self.levels = LevelMatchings(g, d)
        self.trace: List[Dict] = []
        self.gadgets: Dict[Hashable, Tuple[int, ...]] = {}
        self.swaps = 0
        self.fallbacks = 0

    def plan(self, i: int, p: Placement, q: Placement) -> SlideSequence:
        """Plan p -> q using only edges of G_i; p and q agree outside G_i.

        A level above the core whose ear is settled (`ear_settled`) in both
        p and q, with the same labels on its dominoes, needs no slides: p
        and q then agree outside G_{i-1}, which holds both gaps, so the
        plan is level i - 1's. At any other level above the core, expose
        the first vertex of ear i on both sides, which aligns the ear,
        stage the target's ear labels onto the ear if it has an interior
        (a chord holds no piece), plan level i - 1, and undo the target
        side's exposing. The core levels (i <= 3) go to `base_pentagon`
        or `base_diamond_cycle`, which plan on the core's cycle."""
        if p.pieces == q.pieces and p.exposed == q.exposed:
            return SlideSequence(p, ())
        while i > 3 and self._settled_alike(self.d.ear(i), p, q):
            i -= 1
        if i <= 3:
            if self.d.kind == "pentagon":
                self.trace.append({"level": i, "kind": "pentagon-core"})
                return base_pentagon(p, q, self.d)
            if self.d.kind == "diamond_cycle":
                self.trace.append({"level": i, "kind": "diamond-core"})
                return base_diamond_cycle(p, q, self.d)
            raise PlanError("decomposition is not admissible")
        ear = self.d.ear(i)
        sp = self.levels.expose(p, i, ear[0])
        sq = self.levels.expose(q, i, ear[0])
        if len(ear) > 2:
            sp = sp.then(self._stage(i, sp.end, sq.end))
        mid = self.plan(i - 1, sp.end, sq.end)
        return sp.then(mid).then(invert_sequence(sq))

    @staticmethod
    def _settled_alike(ear: Tuple[int, ...], p: Placement, q: Placement) -> bool:
        """True iff the ear is settled in both placements, with the same
        label on each of its dominoes."""
        return (ear_settled(p, ear) and ear_settled(q, ear)
                and all(p.label_at(e) == q.label_at(e) for e in zip(ear[1::2], ear[2::2])))

    def _stage(self, i: int, cur: Placement, tgt: Placement) -> SlideSequence:
        """With the gap at the first vertex of ear i on both sides, move
        the labels the target holds on the ear onto the same ear edges.

        The window fill runs where the ear cycle holds them all already, on
        its forced dominoes, and at least two of those dominoes, the swap
        window, lie in G_{i-1}; a cycle that spans G_i always does, as
        G_{i-1} holds the 5-vertex core. The spare-edge fill runs otherwise."""
        cyc = self._ear_cycle(i, cur)
        dominoes = forced_cycle_dominoes(cyc, cyc[0])
        q_dominoes = dominoes[:len(self.d.ear(i)) // 2 - 1]     # the ear's own
        lam = [tgt.label_at(e) for e in q_dominoes]
        assert all(x is not None for x in lam), "target ear is not aligned"
        window = (len(dominoes) - len(lam) >= 2
                  and {cur.piece(lab) for lab in lam} <= set(dominoes))
        self.trace.append({"level": i, "ell": len(lam),
                           "branch": "window" if window else "spare-edge"})
        if window:
            seq = self._window_fill(i, cur, lam, cyc, dominoes)
        else:
            seq = self._spare_fill(i, cur, lam, cyc, dominoes)
        for lab, e in zip(lam, q_dominoes):
            assert seq.end.piece(lab) == e, "ear staging failed"
        return seq

    def _ear_cycle(self, i: int, cur: Placement) -> Tuple[int, ...]:
        """With the gap at the first vertex v of ear i and the ear aligned:
        the odd cycle that runs along the ear from v and back to v through
        G_{i-1}, on the alternating path from v to the ear's last vertex,
        walked on cur's cover map: its dominoes from v are the ear's first."""
        ear = self.d.ear(i)
        ppath = alternating_path_to(cur, self.levels.exposing(i - 1, ear[-1]),
                                    ear[0], ear[-1])
        return tuple(ear[:-1]) + tuple(reversed(ppath[1:]))

    def _swap(self, i: int, cur: Placement, a: int, b: int) -> SlideSequence:
        """Sub-plan of a level-i fill that transposes labels a and b in
        G_{i-1}; counted in `swaps`."""
        self.swaps += 1
        return self._transpose(i - 1, cur, a, b)

    def _transpose(self, j: int, cur: Placement, a: int, b: int) -> SlideSequence:
        """Slides inside G_j that transpose labels a and b, both on edges of
        G_j, and leave every other piece and the gap where they were.

        A slide is fixed by its kept vertex and the gap, not by labels, so
        the memo `gadgets` keeps the word `_conjugate` builds for a key and
        reuses it, unreplayed, for any labels: within one plan, a key must
        fix the level, the unlabeled pieces, the gap and the two positions.
        Words stay uncut; `finish_plan` cuts and checks the whole plan once.
        """
        pieces = list(cur.pieces)
        pieces[a - 1], pieces[b - 1] = pieces[b - 1], pieces[a - 1]
        target = Placement(cur.graph, tuple(pieces), cur.exposed)
        key = (j, frozenset(cur.pieces), cur.exposed,
               frozenset((cur.piece(a), cur.piece(b))))
        word = self.gadgets.get(key)
        if word is None:
            word = self.gadgets[key] = self._conjugate(j, cur, a, b, target)
        return SlideSequence(cur, word, target)

    def _conjugate(self, j: int, cur: Placement, a: int, b: int,
                   target: Placement) -> Tuple[int, ...]:
        """The word of the transposition of labels a and b at level j, from
        cur to target, as E . R . T . R^-1 . E^-1.

        E exposes the first vertex v of ear j, which aligns the ear. R
        turns the labels along `_ear_cycle`, the gap back at v, so that
        both pieces lie in G_{j-1}; a chord needs none, as then no piece
        is on it. T is the same transposition at level j - 1. Slides are
        label-blind, so R's and E's kept vertices in reverse after T undo
        them and leave only the transposition. The core levels (j <= 3)
        are planned directly, and so is level j, counted in `fallbacks`,
        when no turn of the cycle brings both pieces into G_{j-1}.
        """
        if j <= 3:
            return self.plan(j, cur, target).kept
        ear = self.d.ear(j)
        outer = self.levels.expose(cur, j, ear[0])
        if len(ear) > 2:
            turn = self._lower(j, outer.end, a, b)
            if turn is None:
                self.fallbacks += 1
                return self.plan(j, cur, target).kept
            outer = outer.then(turn)
        inner = self._transpose(j - 1, outer.end, a, b)
        return outer.kept + inner.kept + outer.kept[::-1]

    def _lower(self, j: int, cur: Placement, a: int, b: int) -> Optional[SlideSequence]:
        """The shortest rotation along ear j's cycle, the gap at the ear's
        first vertex before and after, that leaves the pieces of a and b
        on edges of G_{j-1}; None if no turn does.

        The cycle's dominoes from the gap are the ear's m and then G_{j-1}'s
        r. Returning the gap turns the k = m + r labels on them by whole
        laps of the cycle, one domino a lap either way, so a turn by t
        costs min(t, k - t) laps.
        """
        cyc = self._ear_cycle(j, cur)
        dominoes = forced_cycle_dominoes(cyc, cyc[0])
        m, k = len(self.d.ear(j)) // 2 - 1, len(dominoes)
        slots = [(x, dominoes.index(cur.piece(x))) for x in (a, b)
                 if cur.piece(x) in dominoes]
        turns = [t for t in range(k) if all((s - t) % k >= m for _, s in slots)]
        if not turns:
            return None
        t = min(turns, key=lambda t: min(t, k - t))
        return rotate(cur, cyc, cyc[0], [(x, dominoes[(s - t) % k]) for x, s in slots])

    def _spare_fill(self, i: int, cur: Placement, lam: List[int],
                    cyc: Tuple[int, ...], dominoes: List[Edge]) -> SlideSequence:
        """Spare-edge branch: park labels at the far end of the ear
        through a spare matched edge off the cycle. Of the cycle's
        `dominoes`, e2 is the ear's last, e1 the next, staging the last."""
        v, ear = cyc[0], self.d.ear(i)
        sub_vs, _ = self.levels.region(i - 1)
        e2, e1, staging = dominoes[len(lam) - 1], dominoes[len(lam)], dominoes[-1]
        spare = None
        for e in sorted(cur.pieces):
            if (e[0] in sub_vs and e[1] in sub_vs
                    and e[0] not in cyc and e[1] not in cyc):
                spare = e
                break
        assert spare is not None, "no spare matched edge off the cycle"

        seq = SlideSequence(cur, ())
        for j, lab in enumerate(lam, start=1):
            pos = seq.end.piece(lab)
            if pos[0] in ear[1:-1] or pos[1] in ear[1:-1]:
                seq = seq.then(rotate(seq.end, cyc, v, [(lab, staging)]))
            if seq.end.piece(lab) != spare:
                seq = seq.then(self._swap(i, seq.end, lab, seq.end.label_at(spare)))
            if j >= 2:
                seq = seq.then(rotate(seq.end, cyc, v, [(lam[j - 2], e2)]))
            seq = seq.then(self._swap(i, seq.end, lab, seq.end.label_at(e1)))
        # final notch: pull the train fully onto the ear
        return seq.then(rotate(seq.end, cyc, v, [(lam[-1], e2)]))

    def _window_fill(self, i: int, cur: Placement, lam: List[int],
                     cyc: Tuple[int, ...], dominoes: List[Edge]) -> SlideSequence:
        """Window branch, with every label of `lam` on the cycle's
        `dominoes`: bubble them into consecutive order with a fixed
        two-domino swap window in G_{i-1}, then rotate into place."""
        v = cyc[0]
        w1, w2 = dominoes[-1], dominoes[-2]   # adjacent, both in G_{i-1}

        def order_after(pl_: Placement, lab: int) -> int:
            idx = dominoes.index(pl_.piece(lab))
            return pl_.label_at(dominoes[(idx + 1) % len(dominoes)])

        seq = SlideSequence(cur, ())
        for j in range(len(lam) - 1, 0, -1):
            a, b = lam[j - 1], lam[j]
            while (nxt := order_after(seq.end, a)) != b:
                # bring (a, nxt) into the swap window, then transpose
                seq = seq.then(rotate(seq.end, cyc, v, [(a, w2)]))
                assert seq.end.piece(nxt) == w1
                seq = seq.then(self._swap(i, seq.end, a, nxt))
        return seq.then(rotate(seq.end, cyc, v, [(lam[0], dominoes[0])]))


def base_pentagon(p: Placement, q: Placement, d: EarDecomposition) -> SlideSequence:
    """Plan on the pentagon core of `d`, the base 5-cycle with the apex's
    chords `d.ear(2)` and `d.ear(3)`: align both ends with the cycle, turn
    once along it, and undo the target side's alignment. p and q agree
    off the core, which holds two labels. These have one cyclic order, and
    5 and 2 are coprime, so the 10 aligned states lie on one turn (`rotate`)."""
    chords = (edge_key(*d.ear(2)), edge_key(*d.ear(3)))
    sp = align_with_cycle(p, d.base, chords)
    sq = align_with_cycle(q, d.base, chords)
    tgt = sq.end
    turn = rotate(sp.end, d.base, tgt.exposed,
                  [(tgt.label_at(e), e) for e in forced_cycle_dominoes(d.base, tgt.exposed)])
    return sp.then(turn).then(invert_sequence(sq))


def base_diamond_cycle(p: Placement, q: Placement, d: EarDecomposition) -> SlideSequence:
    """Plan on the diamond core of `d`, an odd cycle with an attached
    diamond: align both ends with the core's Hamilton cycle
    (`align_with_cycle`), stage each target label on the diamond's far edge
    along that cycle and park it with an inner-cycle rotation, then undo
    the target side's alignment. The base runs from the diamond's u to v, as
    `_diamond_structure` lists it (else PlanError), so the reversed base
    closed by the diamond's x, y is that Hamilton cycle."""
    c_inner = d.base
    u, x, y, v = d.ear(2)         # the diamond's path; d.ear(3) is its diagonal
    if c_inner[0] != u or c_inner[-1] != v:
        raise PlanError("decomposition is not admissible")
    c_prime = c_inner[::-1] + (x, y)
    park_edge = edge_key(v, c_inner[-2])   # v's inner-cycle edge away from u
    mid_edge = edge_key(x, y)

    chords = (edge_key(u, v), d.ear(3))
    sp = align_with_cycle(p, c_prime, chords)
    sq = align_with_cycle(q, c_prime, chords)
    cur, tgt = sp.end, sq.end

    # target labels along the Hamilton cycle, read against the parking
    # direction so the accumulating train matches the target cyclic order
    labels = tgt.ring(c_prime)[1][::-1]

    def run(order: List[int]) -> SlideSequence:
        # once all labels but one form a consecutive train the cyclic order
        # is fixed, so the last label needs no iteration of its own
        body = SlideSequence(cur, ())
        prev = None
        for lab in order[:-1]:
            body = body.then(rotate(body.end, c_prime, pieces=[(lab, mid_edge)]))
            if prev is not None:
                body = body.then(rotate(body.end, c_inner, pieces=[(prev, park_edge)]))
            prev = lab
        # the cyclic order now matches the target: finish with one rotation
        return body.then(rotate(body.end, c_prime, tgt.exposed,
                                [(lab, tgt.piece(lab)) for lab in order]))

    # any cyclic shift of the reading produces the same cyclic order; take
    # the first cheapest one
    best = min((run(labels[shift:] + labels[:shift]) for shift in range(len(labels))),
               key=len)
    return sp.then(best).then(invert_sequence(sq))


def plan_ear(g: TriGridGraph, p: Placement, q: Placement) -> PlanReport:
    """Full pipeline: find an admissible decomposition, align both ends,
    reconfigure level by level, undo the target alignment."""
    d = find_admissible(g)
    planner = _Planner(g, d)
    sp = align_with_ears(p, planner.levels)
    sq = align_with_ears(q, planner.levels)
    mid = planner.plan(d.levels, sp.end, sq.end)
    return finish_plan(sp.then(mid).then(invert_sequence(sq)), q, "ear",
                       planner.trace, planner.swaps, len(planner.gadgets),
                       planner.fallbacks)
