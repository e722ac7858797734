"""Maximum-cardinality matching by Edmonds' search with Gabow's path labels.

`max_cardinality_matching` grows alternating trees from the single vertices
and shrinks the odd cycles it meets into blossoms (J. Edmonds, "Paths,
trees, and flowers", Canad. J. Math. 17, 1965). It keeps no blossom
objects. As in H. N. Gabow, "An efficient implementation of Edmonds'
algorithm for maximum matching on graphs", J. ACM 23, 1976, each vertex
records the base of its blossom, and each outer vertex x a label from which
its even alternating path P(x) to its root is read:

- none, for a root: P(x) = x;
- a vertex label v, when x is the mate of an inner vertex that the outer
  vertex v reached: P(x) = x, mate(x), P(v);
- an edge label (v, w), when x was inner and turned outer in the blossom
  that the edge v-w closed: P(x) runs from x along P(v) backwards to v,
  then crosses to w and follows P(w).

An augmenting path through the edge v-w is P(v) + P(w), and Gabow's
R(v, w); R(w, v), run on an explicit stack, flips it.

Search order: the search takes its candidates in the order of networkx's
`max_weight_matching` (unit weights, ``maxcardinality=True``), so for the
same input order it returns networkx's matching, not merely one of the
same size. Which maximum matching comes back steers the ear planner's plans
and the benchmark's placements. The graph is a dict from each vertex (an
int) to the list of its neighbours, with no loops and no repeated edges.

- Greedy stages: while the last single vertex v in the dict's order has a
  single neighbour, v is matched to the first one, in O(deg v). That is the
  match networkx's stage makes there: it pops v first, each matched
  neighbour before the first single one either turns inner or closes a
  blossom based at v, no other vertex is scanned yet, and the first single
  neighbour u ends the stage with the augmenting path v-u.
- Every later stage starts from the matching alone. The single vertices
  are outer roots, queued in the dict's order and popped last in, first
  out. A popped vertex v scans its neighbours w in list order. A free w
  turns inner and its mate outer, with the vertex label v, and the mate is
  queued. An outer w in another blossom starts a trace up both trees, base
  by base and taking turns, as networkx's ``scan_blossom`` does. A trace
  that meets a base it has passed closes a blossom there: the inner
  vertices on v's path get the edge label (v, w), those on w's path
  (w, v), and they are queued in the order of networkx's
  ``_Blossom.leaves()``, w's side from the base down, then v's side from v
  up. A trace that ends at two roots augments, and the stage ends.

Certificate: a matching that leaves at most one vertex single is maximum by
its size. Otherwise the last stage found no augmenting path, and its inner
vertices A are a Tutte-Berge barrier. Each top-level blossom of outer
vertices is an odd component of G - A, one per tree and one per inner
vertex, and the unlabelled vertices are matched among themselves, so
G - A has |A| + (single vertices) odd components and no matching leaves
fewer vertices single. `check_barrier` counts them and raises unless they
are that many; it raises explicitly, so ``python -O`` keeps the check.
"""

from typing import Dict, Iterable, List, Optional, Set


def max_cardinality_matching(adj: Dict[int, List[int]]) -> Dict[int, int]:
    """A maximum matching of the graph `adj`, as a dict from each matched
    vertex to its partner (both directions are present).

    `adj` maps every vertex to its neighbours; see the module docstring for
    how their order decides which maximum matching is returned.
    """
    mate: Dict[int, int] = {}
    # Greedy stages: the last single vertex takes its first single neighbour.
    for v in reversed(list(adj)):
        if v in mate:
            continue
        for w in adj[v]:
            if w not in mate:
                mate[v] = w
                mate[w] = v
                break
        else:
            break
    single = [v for v in adj if v not in mate]
    barrier = None
    while barrier is None and len(single) >= 2:
        barrier = search(adj, mate, single)
        single = [v for v in single if v not in mate]
    if len(single) >= 2:
        check_barrier(adj, mate, barrier)
    return mate


def search(adj: Dict[int, List[int]], mate: Dict[int, int],
           single: List[int]) -> Optional[Set[int]]:
    """One stage from the `single` vertices, in the dict's order: augment
    `mate` along the first augmenting path found and return None, or return
    the inner vertices if there is none."""
    label: Dict = dict.fromkeys(single)  # outer vertex -> its label, None at a root
    queue = list(single)
    base: Dict[int, int] = {}  # a vertex's blossom base, if not itself
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in label:
                if mate[w] not in label:  # w is free: it turns inner, its mate outer
                    label[mate[w]] = v
                    queue.append(mate[w])
                continue
            if base.get(v, v) == base.get(w, w):
                continue
            # Trace up both trees, taking turns, to the first base passed
            # twice; past the roots there is none.
            seen, x, y = set(), v, w
            while x is not None:
                b = base.get(x, x)
                if b in seen:
                    break
                seen.add(b)
                x = label[b]
                if y is not None:
                    x, y = y, x
            else:
                _augment(mate, label, v, w)
                return None
            # A blossom based at b: the bases below b on each path, and the
            # inner vertices matched to them, which turn outer.
            vside, wside = [], []
            for x, side in ((v, vside), (w, wside)):
                while base.get(x, x) != b:
                    side.append(base.get(x, x))
                    x = label[side[-1]]
            for bases, edge in ((wside[::-1], (w, v)), (vside, (v, w))):
                for t in map(mate.get, bases):
                    label[t] = edge
                    queue.append(t)
            merged = {*vside, *wside, *map(mate.get, vside + wside)}
            for x in [*base, *merged]:
                if base.get(x, x) in merged:
                    base[x] = b
    return {x for x in adj if x not in label and mate[x] in label}


def _augment(mate: Dict[int, int], label: Dict, v: int, w: int) -> None:
    """Gabow's R(v, w); R(w, v): match v to w and flip P(v) and P(w).
    R(x, y) matches x to y; unless x is a root, or x's old mate t has
    already been rematched by the call that reached x, it continues along
    P(x): for a vertex label u it matches t to u and calls R(u, t), for an
    edge label (p, q) it calls R(p, q), then R(q, p)."""
    stack = [(w, v), (v, w)]
    while stack:
        x, y = stack.pop()
        t = mate.get(x)
        mate[x] = y
        if t is None or mate[t] != x:
            continue
        lab = label[x]
        if isinstance(lab, tuple):
            stack += [lab[::-1], lab]
        else:
            mate[t] = lab
            stack.append((lab, t))


def check_barrier(adj: Dict[int, List[int]], mate: Dict[int, int],
                  barrier: Iterable[int]) -> None:
    """Raise AssertionError unless `mate` is a matching of `adj` and
    G - `barrier` has |barrier| + (vertices `mate` leaves single) odd
    components. By the Tutte-Berge formula every matching leaves at least
    (odd components) - |barrier| vertices single, so the check passes only
    for a maximum matching, and for a non-maximum one it fails whatever
    vertex set it is given."""
    if any(mate.get(w) != v or w not in adj[v] for v, w in mate.items()):
        raise AssertionError("the mate dict is not a matching of the graph")
    barrier = set(barrier)
    seen, odd = set(barrier), 0
    for s in adj:
        if s in seen:
            continue
        seen.add(s)
        stack, size = [s], 0
        while stack:
            size += 1
            for x in adj[stack.pop()]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        odd += size % 2
    single = len(adj) - len(mate)
    if odd != len(barrier) + single:
        raise AssertionError(f"G - A has {odd} odd components, not |A| + {single} "
                             f"= {len(barrier) + single}: the matching is not certified")
