"""Maximum-cardinality matching by Edmonds' blossom method.

`max_cardinality_matching` ports networkx 3.x's `max_weight_matching`
(`networkx/algorithms/matching.py`), specialised to unit edge weights and
``maxcardinality=True``. The algorithm is Edmonds' blossom method (J.
Edmonds, "Paths, trees, and flowers", Canad. J. Math. 17, 1965) in the
primal-dual form of Z. Galil, "Efficient algorithms for finding maximum
matching in graphs", ACM Computing Surveys 18, 1986, whose terms the
comments use: S- and T-vertices and blossoms, dual variables, slack.

What unit weights remove: every vertex dual starts at 1/2, so every edge
has zero slack, and the duals change only in the last stage, the one that
finds no augmenting path. Until then every edge is allowable, and each stage is a
plain search for an augmenting path that grows alternating trees from all
single vertices at once and shrinks the odd cycles it meets into blossoms.
A blossom is an S-blossom when it is made and stays one to the end of its
stage; with zero dual it is then expanded, so no blossom outlives its stage
and no T-blossom ever exists. networkx's least-slack edges, its delta steps
2-4 and its mid-stage expansion of T-blossoms therefore never run, and the
port leaves them out. It keeps networkx's order and its asserts on the code
that does run.

Input order: the graph is a dict from each vertex to the list of its
neighbours, with no loops and no repeated edges. Wherever the algorithm has
a choice it takes candidates in that order: single vertices in the dict's
order (the last one queued is grown first, as in networkx), neighbours in
each list's order. networkx takes nodes and neighbours in insertion order,
so for a graph built with the same orders both return the same matching,
not merely one of the same size.

Certificates: a matching that leaves at most one vertex exposed is maximum
by its size alone. One that leaves two or more exposed is checked against
the duals of the last stage, networkx's final delta step: S-vertices drop to
0, T-vertices rise to 2, top-level blossoms get z = 1 (all doubled). The
check (networkx's `verifyOptimum`) fails an assert unless those duals prove
that no larger matching exists. Under ``python -O`` the asserts, the dual
check among them, are stripped, as they are in networkx.

The port keeps networkx's copyright notice and licence:

   Copyright (c) 2004-2025, NetworkX Developers
   Aric Hagberg <hagberg@lanl.gov>
   Dan Schult <dschult@colgate.edu>
   Pieter Swart <swart@lanl.gov>
   All rights reserved.

   Redistribution and use in source and binary forms, with or without
   modification, are permitted provided that the following conditions are
   met:

     * Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

     * Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

     * Neither the name of the NetworkX Developers nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from typing import Dict, List


class _NoNode:
    """Sentinel different from every vertex."""


class _Blossom:
    """A non-trivial blossom or sub-blossom.

    ``childs`` lists its sub-blossoms, starting with the base and going round
    the blossom. ``edges[i] = (v, w)`` connects v in ``childs[i]`` to w in
    ``childs[i + 1]`` (wrapping).
    """

    __slots__ = ("childs", "edges")

    def leaves(self):
        stack = [*self.childs]
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


def max_cardinality_matching(adj: Dict[int, List[int]]) -> Dict[int, int]:
    """A maximum matching of the graph `adj`, as a dict from each matched
    vertex to its partner (both directions are present).

    `adj` maps every vertex to its neighbours; see the module docstring for
    how their order decides which maximum matching is returned.
    """
    gnodes = list(adj)

    # mate[v] is v's partner; single vertices are not keys.
    mate: Dict = {}

    # For a top-level blossom b, label.get(b) is None (free), 1 (S) or 2 (T).
    label: Dict = {}

    # labeledge[b] = (v, w) is the edge through which the labeled top-level
    # blossom b got its label (w in b), or None if b's base is single.
    labeledge: Dict = {}

    # inblossom[v] is the top-level blossom containing vertex v.
    inblossom = dict(zip(gnodes, gnodes))

    # blossomparent[b] is the parent of sub-blossom b, None at top level.
    blossomparent: Dict = dict.fromkeys(gnodes)

    # blossombase[b] is the base vertex of (sub-)blossom b.
    blossombase: Dict = dict(zip(gnodes, gnodes))

    # The blossoms made in this stage, in the order they were made.
    blossoms: List[_Blossom] = []

    # Newly discovered S-vertices.
    queue: List = []

    # Trace back from v and w to find a new blossom's base vertex, or
    # _NoNode if the two paths end at different single vertices (an
    # augmenting path).
    def scan_blossom(v, w):
        path = []
        base = _NoNode
        while v is not _NoNode:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                # b's base is single; stop tracing this path.
                assert blossombase[b] not in mate
                v = _NoNode
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                # b is a T-vertex; trace one more step back.
                v = labeledge[b][0]
            # Alternate between the two paths.
            if w is not _NoNode:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    # Make a new S-blossom with the given base through S-vertices v and w;
    # its T-vertices turn S and join the queue.
    def add_blossom(base, v, w):
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = _Blossom()
        blossoms.append(b)
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        b.childs = path = []
        b.edges = edgs = [(v, w)]
        # Trace back from v to base.
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]]
            )
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # Trace back from w to base.
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            w = labeledge[bw][0]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        for v in b.leaves():
            if label[inblossom[v]] == 2:
                # A T-vertex turns S inside the new S-blossom.
                queue.append(v)
            inblossom[v] = b

    # Swap matched and unmatched edges along the alternating path through
    # blossom b from vertex v to the base, keeping the blossom bookkeeping
    # consistent. The recursion runs as a trampoline: each generator yields
    # the sub-blossom calls it needs, so the call stack stays flat.
    def augment_blossom(b, v):
        def _recurse(b, v):
            # Bubble up from v to an immediate sub-blossom of b.
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if isinstance(t, _Blossom):
                yield (t, v)
            i = j = b.childs.index(t)
            if i & 1:
                # Odd start: go forward and wrap.
                j -= len(b.childs)
                jstep = 1
            else:
                # Even start: go backward.
                jstep = -1
            while j != 0:
                # Step to the next sub-blossom and augment it.
                j += jstep
                t = b.childs[j]
                if jstep == 1:
                    w, x = b.edges[j]
                else:
                    x, w = b.edges[j - 1]
                if isinstance(t, _Blossom):
                    yield (t, w)
                # And the one after it.
                j += jstep
                t = b.childs[j]
                if isinstance(t, _Blossom):
                    yield (t, x)
                # Match the edge between those two.
                mate[w] = x
                mate[x] = w
            # Rotate the sub-blossoms to put the new base first.
            b.childs = b.childs[i:] + b.childs[:i]
            b.edges = b.edges[i:] + b.edges[:i]
            blossombase[b] = blossombase[b.childs[0]]
            assert blossombase[b] == v

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    # Augment along the path between two single vertices through the
    # S-vertices v and w.
    def augment_matching(v, w):
        for s, j in ((v, w), (w, v)):
            # Match s to j, then trace back from s to a single vertex,
            # swapping matched and unmatched edges.
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (labeledge[bs] is None and blossombase[bs] not in mate) or (
                    labeledge[bs][0] == mate[blossombase[bs]]
                )
                if isinstance(bs, _Blossom):
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    # Reached a single vertex.
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                s, j = labeledge[bt]
                # A T-blossom is a single vertex, so there is nothing to
                # augment through.
                assert bt == t
                mate[j] = s

    # Each stage finds one augmenting path, until none is left.
    while 1:
        label.clear()
        labeledge.clear()
        queue.clear()

        # Single vertices become S-roots and join the queue.
        for v in gnodes:
            if v not in mate:
                label[v] = 1
                labeledge[v] = None
                queue.append(v)

        augmented = False
        while queue and not augmented:
            v = queue.pop()
            assert label[inblossom[v]] == 1
            for w in adj[v]:
                bv = inblossom[v]
                bw = inblossom[w]
                if bv == bw:
                    # An edge inside a blossom.
                    continue
                if label.get(bw) is None:
                    # (C1) w is free, so it is matched and its mate is free
                    # too: w becomes T and its mate S.
                    x = mate[w]
                    assert label.get(x) is None
                    label[w] = 2
                    labeledge[w] = (v, w)
                    label[x] = 1
                    labeledge[x] = (w, x)
                    queue.append(x)
                elif label.get(bw) == 1:
                    # (C2) w is an S-vertex in another blossom: a new
                    # blossom or an augmenting path.
                    base = scan_blossom(v, w)
                    if base is not _NoNode:
                        add_blossom(base, v, w)
                    else:
                        augment_matching(v, w)
                        augmented = True
                        break

        # The matching stays symmetric.
        for v in mate:
            assert mate[mate[v]] == v

        if not augmented:
            break

        # End of a stage: every blossom is an S-blossom with zero dual, so
        # all are expanded and each vertex is its own blossom again.
        for b in blossoms:
            del blossomparent[b]
            del blossombase[b]
            for v in b.childs:
                if not isinstance(v, _Blossom):
                    blossomparent[v] = None
                    inblossom[v] = v
        blossoms.clear()

    # At most one vertex left exposed: maximum by size. Otherwise the duals
    # of the last stage must certify it.
    if len(gnodes) - len(mate) >= 2:
        _verify_optimum(adj, mate, label, inblossom, blossomparent, blossoms)
    return mate


def _verify_optimum(adj, mate, label, inblossom, blossomparent, blossoms):
    """networkx's `verifyOptimum` on the duals of the last stage, which
    found no augmenting path: its final delta step (delta = 1, all values
    doubled) takes S-vertices from 2 * u = 1 to 0 and T-vertices to 2,
    leaves free vertices at 1 and raises each top-level blossom, all of
    them S, from z = 0 to 1. (networkx starts an edgeless graph's duals at
    0, but such a graph has no T-vertex, free vertex or blossom.)"""
    dualvar = {v: {1: 0, 2: 2}.get(label.get(inblossom[v]), 1) for v in adj}
    blossomdual = {b: 1 if blossomparent[b] is None else 0 for b in blossoms}
    # 0. all dual variables are non-negative (networkx's offset for
    # negative vertex duals is 0 here)
    assert min(dualvar.values()) >= 0
    assert len(blossomdual) == 0 or min(blossomdual.values()) >= 0
    # 0. all edges have non-negative slack and
    # 1. all matched edges have zero slack;
    for i, nbrs in adj.items():
        for j in nbrs:
            if j < i:
                continue
            s = dualvar[i] + dualvar[j] - 2
            iblossoms = [i]
            jblossoms = [j]
            while blossomparent[iblossoms[-1]] is not None:
                iblossoms.append(blossomparent[iblossoms[-1]])
            while blossomparent[jblossoms[-1]] is not None:
                jblossoms.append(blossomparent[jblossoms[-1]])
            iblossoms.reverse()
            jblossoms.reverse()
            for bi, bj in zip(iblossoms, jblossoms):
                if bi != bj:
                    break
                s += 2 * blossomdual[bi]
            assert s >= 0
            if mate.get(i) == j or mate.get(j) == i:
                assert mate[i] == j and mate[j] == i
                assert s == 0
    # 2. all single vertices have zero dual value;
    for v in adj:
        assert (v in mate) or dualvar[v] == 0
    # 3. all blossoms with positive dual value are full.
    for b in blossomdual:
        if blossomdual[b] > 0:
            assert len(b.edges) % 2 == 1
            for i, j in b.edges[1::2]:
                assert mate[i] == j and mate[j] == i
