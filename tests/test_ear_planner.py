import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrid import ear_planner, matching
from trigrid.ear_planner import _Planner, base_diamond_cycle, base_pentagon, plan_ear
from trigrid.ears import (EarDecomposition, LevelMatchings, align_with_ears, find_admissible,
                          validate_decomposition)
from trigrid.grid import (DIRS, build_abstract, build_graph, degree6_vertices,
                          diamond_cycle_graph, edge_key, hex_with_hole_graph, hexagon_points,
                          is_two_connected)
from trigrid.matching import enumerate_near_perfect_matchings, is_factor_critical
from trigrid.oracle import bfs_component
from trigrid.placement import (Placement, cut_loops, forced_cycle_dominoes, slide,
                               verify_sequence)
from trigrid.plans import PlanError, PlanInvariantError

from conftest import random_placement
from corpus import degree6_corpus, locally_connected_corpus
from support import label_word, reference_slides_within, spy_everywhere, verify_word


def _all_states(g):
    out = []
    for m in enumerate_near_perfect_matchings(g):
        for perm in itertools.permutations(sorted(m.edges)):
            out.append(Placement.make(g, perm))
    return out


def test_base_pentagon_all_pairs(pentagon):
    """The pentagon core's plan between any two of its 14 states verifies,
    takes at most 8 slides and at most 2 more than the shortest plan that
    stays inside the core."""
    d = find_admissible(pentagon)
    assert d.kind == "pentagon"
    states = _all_states(pentagon)
    lengths, shortest = [], []
    for p in states:
        for q in states:
            seq = base_pentagon(p, q, d)
            ref = reference_slides_within(p, pentagon.edges, lambda s: s.pieces == q.pieces)
            assert len(seq) <= 8 and len(seq) <= len(ref) + 2
            rep = verify_word(seq, expected_end=q)
            assert rep.ok and rep.matches_expected
            lengths.append(len(seq))
            shortest.append(len(ref))
    over = [a - b for a, b in zip(lengths, shortest)]
    print(f"pentagon core, {len(lengths)} pairs: mean {sum(lengths) / len(lengths):.2f} "
          f"slides against the shortest in-core plan's {sum(shortest) / len(shortest):.2f}, "
          f"worst {max(lengths)}, at most {max(over)} above the shortest")


def test_plan_refuses_a_core_of_neither_kind(pentagon):
    """`_Planner.plan` plans a core only as a pentagon or a diamond
    cycle: the pentagon's own decomposition, its kind left at the
    default, is refused when the plan reaches the core."""
    d = find_admissible(pentagon)
    planner = _Planner(pentagon, EarDecomposition(d.base, d.ears))
    p, q = _all_states(pentagon)[:2]
    with pytest.raises(PlanError, match="^decomposition is not admissible$"):
        planner.plan(d.levels, p, q)


def test_plan_exposes_a_chord_level_without_staging(hex7):
    """On hex7 the top level is the chord (6, 7). A start with a piece on
    it is not settled there, so the plan exposes the chord's first vertex
    on both sides and, a chord having no interior, stages nothing at that
    level: no plan from aligned ends gets here, as an aligned start leaves
    the chords empty."""
    d = find_admissible(hex7)
    assert d.ear(d.levels) == (6, 7)
    planner = _Planner(hex7, d)
    p = Placement.make(hex7, [(6, 7), (1, 2), (3, 4)])
    q = align_with_ears(Placement.make(hex7, [(1, 2), (3, 4), (5, 7)]), planner.levels).end
    assert q.label_at((6, 7)) is None
    seq = planner.plan(d.levels, p, q)
    assert not any(t["level"] == d.levels for t in planner.trace)
    rep = verify_word(seq, expected_end=q)
    assert rep.ok and rep.matches_expected


def test_base_diamond_cycle_refuses_a_base_from_v_to_u(rng):
    """The diamond core reads its Hamilton cycle off a base listed from the
    diamond's u to its v, as `_diamond_structure` lists it; the same
    decomposition with its base listed from v to u is refused."""
    g = diamond_cycle_graph(3)
    d = find_admissible(g)
    u, _, _, v = d.ear(2)
    assert (d.base[0], d.base[-1]) == (u, v)
    reversed_base = EarDecomposition(d.base[::-1], d.ears, kind="diamond_cycle")
    p, q = random_placement(g, rng), random_placement(g, rng)
    with pytest.raises(PlanError, match="^decomposition is not admissible$"):
        base_diamond_cycle(p, q, reversed_base)


def _ring_reversed_diamond_cycle():
    """diamond_cycle(3) relabelled so that its base cycle runs from the
    diamond's u = 1 to 2, away from its v = 6: `base_diamond_cycle` lists
    its Hamilton cycle from v back along the base to u, then the diamond's
    path."""
    g = build_abstract(7, [(1, 2), (1, 6), (1, 7), (2, 3), (3, 5), (4, 6), (4, 7),
                           (5, 6), (6, 7)])
    d = EarDecomposition((1, 2, 3, 5, 6), ((1, 7, 4, 6), (6, 7)), kind="diamond_cycle")
    validate_decomposition(g, d)
    return g, d


@pytest.mark.parametrize("n, host", [(3, None), (4, None), (3, _ring_reversed_diamond_cycle)],
                         ids=["3", "4", "3-ring-reversed"])
def test_base_diamond_cycle_bound(n, host, rng):
    if host is None:
        g = diamond_cycle_graph(n)
        d = find_admissible(g)
    else:
        g, d = host()
    for _ in range(25):
        p = random_placement(g, rng)
        q = random_placement(g, rng)
        seq = base_diamond_cycle(p, q, d)
        assert len(seq) <= n ** 3 + n ** 2
        rep = verify_word(seq, expected_end=q)
        assert rep.ok and rep.matches_expected


@pytest.mark.parametrize("n", [3, 4, 5, 6, "pentagon"])
def test_base_cores_run_no_matching_search(n, rng, monkeypatch, pentagon):
    """Both cores align both ends through their cycle's forced dominoes:
    given its decomposition, neither the diamond core of diamond_cycle(n)
    nor the pentagon core calls the blossom."""
    g = pentagon if n == "pentagon" else diamond_cycle_graph(n)
    d = find_admissible(g)
    assert d.kind == ("pentagon" if n == "pentagon" else "diamond_cycle")
    core = base_pentagon if n == "pentagon" else base_diamond_cycle
    pairs = [(random_placement(g, rng), random_placement(g, rng)) for _ in range(10)]

    def no_search(adj):
        raise AssertionError("the core ran a matching search")

    monkeypatch.setattr(matching, "max_cardinality_matching", no_search)
    for p, q in pairs:
        rep = verify_word(core(p, q, d), expected_end=q)
        assert rep.ok and rep.matches_expected


def test_plan_ear_core_calls_stay_in_the_pentagon(monkeypatch, rng):
    """Every pentagon-core call inside `plan_ear` on the degree-6 corpus
    ends at its target, and every move's kept vertex and gap lie on the
    base 5-cycle."""
    calls = []

    def spy(p, q, d):
        seq = base_pentagon(p, q, d)
        calls.append((q, d, seq))
        return seq

    monkeypatch.setattr(ear_planner, "base_pentagon", spy)
    for g in degree6_corpus():
        for _ in range(5):
            p, q = random_placement(g, rng), random_placement(g, rng)
            plan_ear(g, p, q)
    assert calls
    for q, d, seq in calls:
        rep = verify_word(seq, expected_end=q)
        assert rep.ok and rep.matches_expected
        assert all(kept in d.base and gap in d.base for _, kept, gap in label_word(seq))


def test_plan_ear_report_fields(pentagon, rng):
    p = random_placement(pentagon, rng)
    q = random_placement(pentagon, rng)
    rep = plan_ear(pentagon, p, q)
    assert rep.strategy == "ear"
    assert rep.slide_count == len(rep.moves)
    check = verify_sequence(rep.start, rep.moves, expected_end=q)
    assert check.ok and check.matches_expected


def test_plan_ear_identity(pentagon, rng):
    p = random_placement(pentagon, rng)
    rep = plan_ear(pentagon, p, p)
    assert rep.moves == ()
    assert verify_sequence(rep.start, rep.moves, expected_end=p).matches_expected


def test_plan_ear_corpus_sample(rng):
    for g in degree6_corpus(max_vertices=9):
        for _ in range(5):
            p = random_placement(g, rng)
            q = random_placement(g, rng)
            rep = plan_ear(g, p, q)
            check = verify_sequence(rep.start, rep.moves, expected_end=q)
            assert check.ok and check.matches_expected


def _frontier(pts):
    """The lattice points next to the set and not in it, sorted."""
    return sorted({(x + dx, y + dy) for x, y in pts for dx, dy in DIRS} - pts)


def _grown_host(rng, size):
    """`hex7` grown to `size` vertices two lattice points at a time, each
    pair kept only if the host stays 2-connected and factor-critical; the
    hexagon's centre keeps degree 6."""
    pts = set(hexagon_points(1))
    while len(pts) < size:
        a = rng.choice(_frontier(pts))
        b = rng.choice(_frontier(pts | {a}))
        g = build_graph(pts | {a, b})
        if is_two_connected(g) and is_factor_critical(g):
            pts |= {a, b}
    return build_graph(pts)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.sampled_from([9, 11, 13, 15, 17]))
def test_plan_ear_plans_its_whole_domain(seed, size):
    """The paper's first theorem as the ear planner's contract: on a random
    2-connected, factor-critical host with a degree-6 vertex, any start and
    target get a plan that replays to the target."""
    rng = random.Random(seed)
    g = _grown_host(rng, size)
    assert degree6_vertices(g)
    p, q = random_placement(g, rng), random_placement(g, rng)
    rep = plan_ear(g, p, q)
    check = verify_sequence(rep.start, rep.moves, expected_end=q)
    assert check.ok and check.matches_expected


def test_plan_ear_matches_oracle_reachability(rng):
    g = next(iter(degree6_corpus(max_vertices=7)))
    p = random_placement(g, rng)
    comp = bfs_component(g, p)
    for _ in range(5):
        q = random_placement(g, rng)
        assert comp.contains(q)
        rep = plan_ear(g, p, q)
        assert rep.slide_count >= comp.distance_to(q)


def test_plan_ear_cuts_loops_once(monkeypatch, rng):
    """Each ear plan is cut once, whole, in `finish_plan`: the gadget words
    the plan builds and reuses keep their loops until then."""
    calls = spy_everywhere(monkeypatch, cut_loops)
    gadgets = 0
    for g in degree6_corpus(max_vertices=19):
        p, q = random_placement(g, rng), random_placement(g, rng)
        calls.clear()
        rep = plan_ear(g, p, q)
        gadgets += rep.stats["gadgets"]
        assert len(calls) == 1 and len(calls[0][0]) == rep.stats["uncut_slides"]
    assert gadgets > 0


def test_plan_ear_refuses_triangle():
    g = build_graph([(0, 0), (1, 0), (0, 1)])
    p = Placement.make(g, [(1, 2)])
    with pytest.raises(Exception):
        plan_ear(g, p, p)


def test_plan_ear_passes_through_settled_levels(rng):
    """On hex19, q is an aligned p with the two labels on G_3's edges
    swapped. Every ear above the core is settled on both sides with the
    same labels, so the plan stays in G_3 and plans only the core."""
    g = build_graph(hexagon_points(2))
    d = find_admissible(g)
    _, core_edges = d.region(3)
    for _ in range(3):
        p = align_with_ears(random_placement(g, rng), LevelMatchings(g, d)).end
        a, b = [lab for lab in range(1, p.n + 1) if p.piece(lab) in core_edges]
        pieces = list(p.pieces)
        pieces[a - 1], pieces[b - 1] = pieces[b - 1], pieces[a - 1]
        q = Placement(g, tuple(pieces), p.exposed)
        rep = plan_ear(g, p, q)
        assert rep.slide_count > 0
        assert all(edge_key(kept, dest) in core_edges for _, kept, dest in rep.moves)
        assert rep.recursion_trace == [{"level": 3, "kind": "pentagon-core"}]


def test_plan_ear_matches_each_level_once(monkeypatch, rng):
    """One plan computes the matching of G_i exposing v at most once per
    (level, vertex), however often the recursion re-plans a level. Each
    blossom call is keyed by the adjacency it runs on, which names the
    level (its edge set) and the exposed vertex (the one left out)."""
    g = build_graph(hexagon_points(2))
    p, q = random_placement(g, rng), random_placement(g, rng)
    calls = []
    blossom = matching.max_cardinality_matching

    def counting(adj):
        calls.append((frozenset(adj),
                      frozenset(edge_key(v, w) for v in adj for w in adj[v])))
        return blossom(adj)

    monkeypatch.setattr(matching, "max_cardinality_matching", counting)
    find_admissible(g)                   # plan_ear runs this search first
    search = len(calls)
    calls.clear()
    rep = plan_ear(g, p, q)
    level_calls = calls[search:]
    assert rep.recursion_trace and level_calls
    assert len(level_calls) == len(set(level_calls))


def _gadget_key(j, cur, a, b):
    return (j, frozenset(cur.pieces), cur.exposed,
            frozenset((cur.piece(a), cur.piece(b))))


def test_plan_ear_builds_each_gadget_once(monkeypatch, rng):
    """A transposition of two positions from one unlabeled state at one
    level is built once per plan, at every level of the recursion; later
    transpositions of the same key, nested ones included, reuse its word.
    `swaps` counts only the fills' transpositions and `gadgets` the
    builds."""
    g = build_graph(hexagon_points(2))
    p, q = random_placement(g, rng), random_placement(g, rng)
    swaps, transposes, builds = [], [], []
    swap, transpose, conjugate = _Planner._swap, _Planner._transpose, _Planner._conjugate

    def counting_swap(self, i, cur, a, b):
        swaps.append(_gadget_key(i - 1, cur, a, b))
        return swap(self, i, cur, a, b)

    def counting_transpose(self, j, cur, a, b):
        transposes.append(_gadget_key(j, cur, a, b))
        return transpose(self, j, cur, a, b)

    def counting_conjugate(self, j, cur, a, b, target):
        builds.append(_gadget_key(j, cur, a, b))
        return conjugate(self, j, cur, a, b, target)

    monkeypatch.setattr(_Planner, "_swap", counting_swap)
    monkeypatch.setattr(_Planner, "_transpose", counting_transpose)
    monkeypatch.setattr(_Planner, "_conjugate", counting_conjugate)
    rep = plan_ear(g, p, q)
    assert builds and len(builds) == len(set(builds)) == len(set(transposes))
    assert len(builds) < len(transposes)
    assert len(transposes) > len(swaps) and set(swaps) <= set(transposes)
    assert len({key[0] for key in builds}) > 1, "builds at one level only"
    assert rep.stats["swaps"] == len(swaps) and rep.stats["gadgets"] == len(builds)
    check = verify_sequence(rep.start, rep.moves, expected_end=q)
    assert check.ok and check.matches_expected


def test_plan_ear_corrupted_gadget_fails_verification(monkeypatch, rng):
    """A stored gadget word that no longer transposes its two positions is
    reused, unreplayed, by every later transposition of its key, at its
    own level or nested in a higher one, and fails `finish_plan`'s check
    of the whole plan."""
    g = build_graph(hexagon_points(2))
    p, q = random_placement(g, rng), random_placement(g, rng)
    stored = []

    class Corrupting(dict):
        def __setitem__(self, key, kept):
            stored.append(key)
            super().__setitem__(key, kept[:-1])

    init = _Planner.__init__

    def corrupting_init(self, *args):
        init(self, *args)
        self.gadgets = Corrupting()

    monkeypatch.setattr(_Planner, "__init__", corrupting_init)
    with pytest.raises(PlanInvariantError, match="^plan verification failed: "):
        plan_ear(g, p, q)
    assert stored


def test_plan_ear_wrong_gadget_build_fails_verification(monkeypatch, rng):
    """A built gadget word that misses its target is taken as built, and
    the plan fails `finish_plan`'s check of the whole plan."""
    g = build_graph(hexagon_points(2))
    p, q = random_placement(g, rng), random_placement(g, rng)
    conjugate = _Planner._conjugate

    def short(self, j, cur, a, b, target):
        return conjugate(self, j, cur, a, b, target)[:-1]

    monkeypatch.setattr(_Planner, "_conjugate", short)
    with pytest.raises(PlanInvariantError, match="^plan verification failed: "):
        plan_ear(g, p, q)


def test_plan_ear_cuts_and_verifies_once_and_never_slides(monkeypatch, rng):
    """An ear plan steps no piece while it is built: exposures and
    rotations are written down in closed form and gadget words, reused or
    built, are joined as words. The whole plan is cut once by `cut_loops`
    and checked once by `verify_sequence`, and the checked `slide` never
    runs."""
    cuts = spy_everywhere(monkeypatch, cut_loops)
    verifies = spy_everywhere(monkeypatch, verify_sequence)
    slides = spy_everywhere(monkeypatch, slide)
    gadgets = 0
    for g in [build_graph(hexagon_points(2)), hex_with_hole_graph(2)]:
        p, q = random_placement(g, rng), random_placement(g, rng)
        for calls in (cuts, verifies, slides):
            calls.clear()
        rep = plan_ear(g, p, q)
        gadgets += rep.stats["gadgets"]
        assert len(cuts) == len(verifies) == 1 and slides == []
    assert gadgets > 0


def _g_j_state(planner, j, rng):
    """A random placement, aligned with the decomposition and then with
    its gap moved to a random vertex of G_j inside G_j, and two labels
    on edges of G_j."""
    cur = align_with_ears(random_placement(planner.levels.g, rng), planner.levels).end
    vs, es = planner.levels.region(j)
    cur = planner.levels.expose(cur, j, rng.choice(sorted(vs))).end
    a, b = rng.sample([x for x in range(1, cur.n + 1) if cur.piece(x) in es], 2)
    return cur, a, b


@pytest.mark.parametrize("build,kinds", [
    (lambda: build_graph(hexagon_points(2)), {"core", "ear", "chord", "fallback"}),
    (lambda: hex_with_hole_graph(2), {"core", "ear", "chord", "fallback"}),
    (lambda: diamond_cycle_graph(6), {"core"}),
], ids=["hex19", "hex_with_hole2", "diamond_cycle6"])
def test_transpose_at_every_level(build, kinds):
    """`_transpose(j, ...)` at every level, from seeded random states of
    G_j: it ends exactly at the placement with the two labels swapped and
    the gap where it started, and every piece it slides leaves and lands
    on edges of G_j. The levels are the core's (j <= 3; all of
    diamond_cycle(6)), proper ears and chords, and on both lattice hosts
    some states need the plan(j) fallback."""
    g = build()
    d = find_admissible(g)
    rng = random.Random(17)
    seen = set()
    for j in range(3, d.levels + 1):
        _, es = d.region(j)
        seen.add("core" if j <= 3 else "chord" if len(d.ear(j)) == 2 else "ear")
        for _ in range(3):
            planner = _Planner(g, d)
            cur, a, b = _g_j_state(planner, j, rng)
            pieces = list(cur.pieces)
            pieces[a - 1], pieces[b - 1] = pieces[b - 1], pieces[a - 1]
            seq = planner._transpose(j, cur, a, b)
            check = verify_word(seq, expected_end=Placement(g, tuple(pieces), cur.exposed))
            assert check.ok and check.matches_expected, (j, a, b)
            now = list(cur.pieces)
            for label, kept, dest in label_word(seq):
                assert now[label - 1] in es and edge_key(kept, dest) in es, j
                now[label - 1] = edge_key(kept, dest)
            if planner.fallbacks:
                seen.add("fallback")
    assert seen == kinds


def test_fills_follow_what_the_ear_cycle_holds(monkeypatch, rng):
    """`_stage` runs `_window_fill` on ear cycles that do not span G_i
    too, wherever every target label lies on the cycle's forced dominoes
    and two of those lie in G_{i-1}; each such fill's word replays to its
    end, with the labels on the ear's dominoes in order. `_spare_fill`
    still runs where a target label lies off the cycle."""
    window, spare = [], []
    for name, calls in (("_window_fill", window), ("_spare_fill", spare)):
        def recorded(self, i, cur, lam, cyc, *rest, _fill=getattr(_Planner, name),
                     _calls=calls):
            seq = _fill(self, i, cur, lam, cyc, *rest)
            _calls.append((self, i, cur, lam, cyc, seq))
            return seq
        monkeypatch.setattr(_Planner, name, recorded)
    for g in [build_graph(hexagon_points(2)), hex_with_hole_graph(2)]:
        for _ in range(4):
            p, q = random_placement(g, rng), random_placement(g, rng)
            rep = plan_ear(g, p, q)
            check = verify_sequence(rep.start, rep.moves, expected_end=q)
            assert check.ok and check.matches_expected

    def held(cur, lam, cyc):
        dominoes = forced_cycle_dominoes(cyc, cyc[0])
        return (len(dominoes) - len(lam) >= 2
                and all(cur.piece(lab) in dominoes for lab in lam))

    spanning = 0
    for planner, i, cur, lam, cyc, seq in window:
        assert held(cur, lam, cyc)
        spanning += len(cyc) == len(planner.levels.region(i)[0])
        ear = planner.d.ear(i)
        assert [seq.end.piece(lab) for lab in lam] == [
            edge_key(ear[t], ear[t + 1]) for t in range(1, len(ear) - 1, 2)]
        check = verify_word(seq, expected_end=seq.end)
        assert check.ok and check.matches_expected
    assert 0 < spanning < len(window), "no window fill on a non-Hamilton ear cycle"
    assert spare and not any(held(cur, lam, cyc) for _, _, cur, lam, cyc, _ in spare)
    assert any(cur.piece(lab) not in forced_cycle_dominoes(cyc, cyc[0])
               for _, _, cur, lam, cyc, _ in spare for lab in lam)


# sums of ear-plan slides over pairs 1-10 (`random.Random(k)`), measured
# when only ear cycles that span G_i got the window fill
HAMILTON_ONLY_WINDOW_SLIDES = {
    "pent5": 45, "hex7": 108, "hex9": 331, "hex11": 581, "hex13": 1047, "para15": 1674,
    "hex19": 3633, "para21": 3814, "hex23": 5866, "para25": 6512, "deg6-7v-0": 108,
    "deg6-9v-1": 301, "deg6-9v-2": 274, "deg6-9v-3": 223, "deg6-9v-4": 191,
    "deg6-11v-5": 361, "deg6-11v-6": 520, "deg6-11v-7": 536, "deg6-11v-8": 727,
    "deg6-11v-9": 732, "deg6-11v-10": 663, "deg6-11v-11": 398, "deg6-11v-12": 541,
    "deg6-11v-13": 453, "deg6-11v-14": 353, "deg6-11v-15": 528, "deg6-11v-16": 581,
    "deg6-11v-17": 665, "deg6-11v-18": 657, "deg6-11v-19": 521, "deg6-11v-20": 592,
    "deg6-11v-21": 514, "deg6-11v-22": 565, "deg6-11v-23": 721, "deg6-13v-24": 1429,
    "deg6-13v-25": 1218, "deg6-13v-26": 905, "deg6-13v-27": 1102, "deg6-13v-28": 834,
    "deg6-13v-29": 1197, "deg6-13v-30": 870, "deg6-13v-31": 1172, "deg6-13v-32": 649,
    "deg6-13v-33": 1106, "deg6-13v-34": 1106, "deg6-13v-35": 869, "deg6-13v-36": 1163,
    "deg6-13v-37": 869, "deg6-13v-38": 923, "deg6-13v-39": 1222, "hex37": 14654,
    "hex_with_hole(r=2)": 2842, "hex_with_hole(r=3)": 18233}


def test_window_fill_shortens_mean_ear_plans_on_every_host(capsys):
    """Over pairs 1-10, no corpus host's mean ear plan, nor `hex37`'s or
    `hex_with_hole(2)`'s and `(3)`'s, is longer than when only ear cycles
    that span G_i got the window fill, and `hex19`'s and `hex37`'s are at
    least 15% shorter. Prints both means for each host."""
    hosts = (locally_connected_corpus() + degree6_corpus(13, 40)
             + [build_graph(hexagon_points(3), name="hex37"),
                hex_with_hole_graph(2), hex_with_hole_graph(3)])
    assert len(hosts) == len(HAMILTON_ONLY_WINDOW_SLIDES)
    lines = []
    for g in hosts:
        total = 0
        for k in range(1, 11):
            rng = random.Random(k)
            total += plan_ear(g, random_placement(g, rng), random_placement(g, rng)).slide_count
        before = HAMILTON_ONLY_WINDOW_SLIDES[g.name]
        lines.append(f"{g.name}: mean {total / 10:.1f} slides, window fill on Hamilton "
                     f"ear cycles only {before / 10:.1f} ({(total - before) / before:+.1%})")
        assert total <= before, lines[-1]
        if g.name in ("hex19", "hex37"):
            assert total <= 0.85 * before, lines[-1]
    with capsys.disabled():
        print("\near plans over pairs 1-10:\n" + "\n".join(lines))
