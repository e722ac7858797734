"""Reconfiguration planner driven by a Hamilton cycle.

Pipeline: align both placements with a spanning cycle, pin the gap at the
diamond corner, bubble-sort the label order along the cycle using the
parity diamond's adjacent swap, then undo the target-side alignment.
Slide counts grow as O(n^3).
"""

from typing import Dict, List, Optional, Tuple

from .grid import Edge, TriGridGraph, edge_key, is_locally_connected, is_star_of_david
from .ears import EarDecomposition, cycle_edges
from .ear_planner import PlanError, PlanReport, _forced_cycle_dominoes, base_pentagon
from .hamilton import (HamiltonCycle, ParityDiamond, find_hamilton,
                       find_local_structure)
from .placement import (Placement, RotationSpec, SlideMove, SlideSequence,
                        invert_sequence, rotate, slide, verify_sequence)


def hamilton_decomposition(g: TriGridGraph, h: HamiltonCycle) -> EarDecomposition:
    """The spanning cycle as a base with every chord as a length-1 ear."""
    chords = sorted(g.edges - cycle_edges(h.order))
    return EarDecomposition(h.order, tuple(chords))


def align_with_hamilton(p: Placement, h: HamiltonCycle) -> SlideSequence:
    """Move every piece onto the cycle, chord by chord; afterwards the
    cycle alternates and holds the exposed vertex."""
    from .ears import align_with_ears
    d = hamilton_decomposition(p.graph, h)
    seq = align_with_ears(p, d)
    assert seq.end.matching.edges <= h.edges
    return seq


# ---------------------------------------------------------------------------
# adjacent swaps at the diamond

def _dominoes(pd: ParityDiamond, p: Placement) -> List[Edge]:
    return _forced_cycle_dominoes(pd.cycle.order, p.exposed)


def _special_pair(pd: ParityDiamond, dominoes: List[Edge]) -> Tuple[int, int]:
    """Indices of the two swap dominoes: the one on (a, b) and its
    neighbor along p1 (the domino covering the p1-neighbor of a)."""
    i_ab = dominoes.index(edge_key(pd.a, pd.b))
    v1 = pd.p1[-2]
    i_v = next(i for i, e in enumerate(dominoes) if v1 in e)
    n = len(dominoes)
    assert (i_v - i_ab) % n in (1, n - 1), "swap dominoes not adjacent"
    return i_ab, i_v


def _swap_special(cur: Placement, pd: ParityDiamond) -> SlideSequence:
    """Exchange the labels on the two swap dominoes; gap stays at c.

    Short even side (two edges): the five vertices a, b, c, d and the
    inner vertex of p1 form a pentagon, solved by `base_pentagon` on the
    edges among them. Longer even side: slide the (a, b) piece to (b, c),
    rotate the p1 + (a, d) cycle one notch, then rotate the p1 + (a, b),
    (b, c), (c, d) cycle back to the swapped state.
    """
    a, b, c, d = pd.a, pd.b, pd.c, pd.d
    assert cur.exposed == c
    dominoes = _dominoes(pd, cur)
    i_ab, i_v = _special_pair(pd, dominoes)
    hi = cur.label_at(dominoes[i_ab])
    lo = cur.label_at(dominoes[i_v])
    assert hi is not None and lo is not None

    target_pieces = list(cur.pieces)
    target_pieces[hi - 1], target_pieces[lo - 1] = \
        target_pieces[lo - 1], target_pieces[hi - 1]
    target = Placement(cur.graph, tuple(target_pieces), cur.exposed)

    if len(pd.p1) == 3:
        v = pd.p1[1]
        vs = {a, b, c, d, v}
        es = {edge_key(x, y) for x in vs for y in vs
              if x < y and cur.graph.has_edge(x, y)}
        seq = base_pentagon(cur, target, es)
    else:
        v1, v2, v3 = pd.p1[-2], pd.p1[-3], pd.p1[1]
        mv = SlideMove(hi, b, c)
        s1 = SlideSequence(cur, (mv,))
        cur1 = s1.end
        cyc_a = tuple(pd.p1)                       # d .. a, closed by (a, d)
        s2 = rotate(cur1, RotationSpec(cyc_a, target_exposed=a,
                                       target_pieces=((lo, edge_key(d, v3)),)))
        cur2 = s2.end
        cyc_b = tuple(pd.p1) + (b, c)              # d .. a, b, c, closed by (c, d)
        s3 = rotate(cur2, RotationSpec(
            cyc_b, target_exposed=c,
            target_pieces=((hi, edge_key(v1, v2)), (lo, edge_key(a, b)))))
        seq = s1.then(s2).then(s3)
    assert seq.end.pieces == target.pieces and seq.end.exposed == c
    return seq


def swap_adjacent(p_aligned: Placement, j: int, pd: ParityDiamond) -> SlideSequence:
    """Transpose the labels on dominoes j and j + 1 (cyclic positions along
    the cycle from the gap at c); every other piece is restored.

    Rotates the chosen pair onto the swap dominoes, exchanges there, and
    rotates back — O(n) slides per call.
    """
    cur = p_aligned
    assert cur.exposed == pd.c
    dominoes = _dominoes(pd, cur)
    n = len(dominoes)
    j2 = (j + 1) % n
    if j == j2:
        return SlideSequence(cur, ())
    x = cur.label_at(dominoes[j])
    y = cur.label_at(dominoes[j2])
    assert x is not None and y is not None
    i_ab, i_v = _special_pair(pd, dominoes)
    lo_i = i_ab if (i_v - i_ab) % n == 1 else i_v

    def rotate_pair_to(state: Placement, lab: int, slot: int) -> SlideSequence:
        return rotate(state, RotationSpec(
            pd.cycle.order, target_exposed=pd.c,
            target_pieces=((lab, dominoes[slot]),)))

    s_in = rotate_pair_to(cur, x, lo_i)
    mid = _swap_special(s_in.end, pd)
    s_out = rotate_pair_to(mid.end, y, j)
    seq = s_in.then(mid).then(s_out)
    out = seq.end
    assert out.exposed == pd.c
    assert out.piece(x) == dominoes[j2] and out.piece(y) == dominoes[j]
    for lab in range(1, cur.n + 1):
        if lab not in (x, y):
            assert out.piece(lab) == cur.piece(lab)
    return seq


# ---------------------------------------------------------------------------
# full plan

def _label_order(p: Placement, dominoes: List[Edge]) -> List[int]:
    out = []
    for e in dominoes:
        lab = p.label_at(e)
        assert lab is not None
        out.append(lab)
    return out


def plan_hamilton(g: TriGridGraph, p: Placement, q: Placement,
                  h: Optional[HamiltonCycle] = None) -> PlanReport:
    """A verified slide plan from p to q on a locally-connected graph.

    Aligns both placements with a Hamilton cycle, pins the gap at the
    diamond corner c, sorts the piece order by adjacent swaps, and undoes
    the target-side alignment.
    """
    if g.is_lattice and is_star_of_david(g):
        raise PlanError("the Star of David graph is not reconfigurable")
    if g.is_lattice and not is_locally_connected(g):
        raise PlanError("cycle planner needs a locally-connected graph")
    if h is None:
        h = find_hamilton(g)
    pd = find_local_structure(g, h)

    sp = align_with_hamilton(p, h)
    sq = align_with_hamilton(q, h)
    rp = rotate(sp.end, RotationSpec(h.order, target_exposed=pd.c))
    rq = rotate(sq.end, RotationSpec(h.order, target_exposed=pd.c))
    seq = sp.then(rp)
    cur = seq.end
    tgt = rq.end

    dominoes = _dominoes(pd, cur)
    want = _label_order(tgt, dominoes)
    trace: List[Dict] = [{"phase": "align", "cycle": h.order,
                          "diamond": (pd.a, pd.b, pd.c, pd.d), "case": pd.case}]
    swaps = 0
    # bubble sort on the domino positions: walk each wanted label leftwards
    while True:
        have = _label_order(cur, dominoes)
        if have == want:
            break
        j = next(i for i in range(len(want)) if have[i] != want[i])
        k = have.index(want[j])
        step = swap_adjacent(cur, k - 1, pd)
        seq = seq.then(step)
        cur = step.end
        swaps += 1
    assert cur.pieces == tgt.pieces and cur.exposed == tgt.exposed
    trace.append({"phase": "sort", "swaps": swaps})

    seq = seq.then(invert_sequence(sq.then(rq)))
    report = verify_sequence(seq, expected_end=q)
    if not report.ok:
        raise PlanError(f"plan verification failed: {report.message}")
    return PlanReport(sequence=seq, slide_count=len(seq.moves),
                      strategy="hamilton", recursion_trace=trace)
