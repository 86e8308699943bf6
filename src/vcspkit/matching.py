"""Maximum-weight matching on general graphs with exact integer weights.

``max_weight_matching`` is the primal-dual O(n^3) blossom algorithm of
Edmonds in the form given by Galil ("Efficient algorithms for finding
maximum matching in graphs", ACM Computing Surveys 18(1), 1986).  The edge
weights are ints and the vertex duals are kept doubled, so every dual,
slack and step is an int, and halving the slack of an edge between two
S-blossoms is exact: never floats.  Before it returns, the final duals are
checked as a proof that the matching is maximum.

The search follows networkx's ``max_weight_matching`` step by step, without
its ``maxcardinality`` branch and graph object; vertices, neighbours and
blossoms are visited in the order networkx visits them for a graph built
from ``range(num_vertices)`` and then the edges in order, so ties break the
same way.  networkx carries this notice:

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

from __future__ import annotations

from typing import Tuple

from .errors import InstanceError, InternalError
from .frozen import Frozen


class MatchingGraph(Frozen):
    """Undirected graph with non-negative integer edge weights."""

    __slots__ = _fields = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: Tuple[Tuple[int, int, int], ...]):
        Frozen.__init__(self, num_vertices, edges)
        seen = set()
        for u, v, _ in edges:
            if u == v:
                raise InstanceError(f"self-loop on vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise InstanceError(f"edge ({u}, {v}) outside vertex range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InstanceError(f"duplicate edge {key}")
            seen.add(key)


class _Blossom:
    """A non-trivial blossom.  ``childs`` are its sub-blossoms (vertices or
    blossoms) from the base round the cycle; ``edges[i] = (v, w)`` joins v in
    ``childs[i]`` to w in the next child; ``mybestedges`` lists least-slack
    edges to other S-blossoms while the blossom is a top-level S-blossom,
    else None."""

    __slots__ = ("childs", "edges", "mybestedges")

    def leaves(self):
        stack = [*self.childs]
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


def _run_flat(call):
    """Run a recursive generator without Python recursion: each generator it
    yields is a nested call, run to its end before the caller resumes."""
    stack = [call]
    while stack:
        for nested in stack[-1]:
            stack.append(nested)
            break
        else:
            stack.pop()


def max_weight_matching(g: MatchingGraph):
    """A matching of maximum total weight (not necessarily perfect).

    Returns ``(matching, total)`` where matching is a frozenset of (u, v)
    pairs with u < v and total its int weight.  Raises ``InstanceError`` if the final duals do not
    prove the matching maximum.
    """
    if not g.edges:
        return frozenset(), 0
    n = g.num_vertices
    adj = [{} for _ in range(n)]  # neighbours in networkx's insertion order
    for u, v, w in g.edges:
        adj[u][v] = adj[v][u] = w

    # mate[v] is v's partner; label[b] of a top-level blossom (or vertex) is
    # 1 for S, 2 for T, absent or None for free (5 marks a breadcrumb);
    # labeledge[b] is the edge (v, w) by which b got its label, w in b;
    # inblossom[v] is v's top-level blossom, blossombase[b] b's base vertex;
    # bestedge[b] is b's least-slack edge to an S-blossom; dualvar[v] is
    # twice v's dual, blossomdual[b] the dual of blossom b.
    mate = {}
    label = {}
    labeledge = {}
    inblossom = list(range(n))
    blossomparent = dict.fromkeys(range(n))
    blossombase = {v: v for v in range(n)}
    bestedge = {}
    dualvar = [max(w for _, _, w in g.edges)] * n
    blossomdual = {}
    allowedge = set()  # ordered pairs known to have zero slack
    queue = []  # S-vertices still to scan

    def slack(v, w):
        return dualvar[v] + dualvar[w] - 2 * adj[v][w]

    def assign_label(w, t, v):
        b = inblossom[w]
        label[w] = label[b] = t
        labeledge[w] = labeledge[b] = None if v is None else (v, w)
        bestedge[w] = bestedge[b] = None
        if t == 1:
            if isinstance(b, _Blossom):
                queue.extend(b.leaves())
            else:
                queue.append(b)
        else:
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v, w):
        # the base of the blossom closed by S-vertices v and w, or None if
        # their trees end at two different single vertices
        path = []
        base = None
        while v is not None:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = None
            else:
                v = labeledge[inblossom[labeledge[b][0]]][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w):
        bb, bv, bw = inblossom[base], inblossom[v], inblossom[w]
        b = _Blossom()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        b.childs = path = []
        b.edges = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            bv = inblossom[labeledge[bv][0]]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            bw = inblossom[labeledge[bw][0]]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in b.leaves():
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        bestedgeto = {}
        for bv in path:
            if not isinstance(bv, _Blossom):
                nblist = [(bv, w) for w in adj[bv]]
            elif bv.mybestedges is not None:
                nblist, bv.mybestedges = bv.mybestedges, None
            else:
                nblist = [(v, w) for v in bv.leaves() for w in adj[v]]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (bj != b and label.get(bj) == 1
                        and (bj not in bestedgeto or slack(i, j) < slack(*bestedgeto[bj]))):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        b.mybestedges = list(bestedgeto.values())
        bestedge[b] = min(b.mybestedges, key=lambda k: slack(*k), default=None)

    def expand_blossom(b, endstage):
        for s in b.childs:
            blossomparent[s] = None
            if not isinstance(s, _Blossom):
                inblossom[s] = s
            elif endstage and blossomdual[s] == 0:
                yield expand_blossom(s, endstage)
            else:
                for v in s.leaves():
                    inblossom[v] = s
        if not endstage and label.get(b) == 2:
            # relabel the sub-blossoms from the one b was entered by round
            # to the base, on the even-length side
            entrychild = inblossom[labeledge[b][1]]
            j = b.childs.index(entrychild)
            if j & 1:
                j -= len(b.childs)
                jstep = 1
            else:
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                if jstep == 1:
                    p, q = b.edges[j]
                else:
                    q, p = b.edges[j - 1]
                label[w] = label[q] = None
                assign_label(w, 2, v)
                allowedge.update(((p, q), (q, p)))
                j += jstep
                if jstep == 1:
                    v, w = b.edges[j]
                else:
                    w, v = b.edges[j - 1]
                allowedge.update(((v, w), (w, v)))
                j += jstep
            bw = b.childs[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw] = None
            j += jstep
            while b.childs[j] != entrychild:
                # a sub-blossom on the odd side is T if a vertex in it is
                # reachable from an S-vertex outside b
                bv = b.childs[j]
                if label.get(bv) != 1:
                    if isinstance(bv, _Blossom):
                        for v in bv.leaves():
                            if label.get(v):
                                break
                    else:
                        v = bv
                    if label.get(v):
                        label[v] = label[mate[blossombase[bv]]] = None
                        assign_label(v, 2, labeledge[v][0])
                j += jstep
        label.pop(b, None)
        labeledge.pop(b, None)
        bestedge.pop(b, None)
        del blossomparent[b], blossombase[b], blossomdual[b]

    def augment_blossom(b, v):
        # swap matched and unmatched edges on the even path from v round b
        # to its base, which becomes v
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if isinstance(t, _Blossom):
            yield augment_blossom(t, v)
        i = j = b.childs.index(t)
        if i & 1:
            j -= len(b.childs)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = b.childs[j]
            if jstep == 1:
                w, x = b.edges[j]
            else:
                x, w = b.edges[j - 1]
            if isinstance(t, _Blossom):
                yield augment_blossom(t, w)
            j += jstep
            t = b.childs[j]
            if isinstance(t, _Blossom):
                yield augment_blossom(t, x)
            mate[w], mate[x] = x, w
        b.childs = b.childs[i:] + b.childs[:i]
        b.edges = b.edges[i:] + b.edges[:i]
        blossombase[b] = blossombase[b.childs[0]]

    def augment_matching(v, w):
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if isinstance(bs, _Blossom):
                    _run_flat(augment_blossom(bs, s))
                mate[s] = j
                if labeledge[bs] is None:
                    break
                bt = inblossom[labeledge[bs][0]]
                s, j = labeledge[bt]
                if isinstance(bt, _Blossom):
                    _run_flat(augment_blossom(bt, j))
                mate[j] = s

    while True:  # one stage per augmentation
        label.clear()
        labeledge.clear()
        bestedge.clear()
        for b in blossomdual:
            b.mybestedges = None
        allowedge.clear()
        queue.clear()
        for v in range(n):
            if v not in mate and label.get(inblossom[v]) is None:
                assign_label(v, 1, None)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                for w in adj[v]:
                    bv, bw = inblossom[v], inblossom[w]
                    if bv == bw:
                        continue
                    if (v, w) not in allowedge:
                        kslack = slack(v, w)
                        if kslack <= 0:
                            allowedge.update(((v, w), (w, v)))
                    if (v, w) in allowedge:
                        if label.get(bw) is None:
                            assign_label(w, 2, v)
                        elif label.get(bw) == 1:
                            base = scan_blossom(v, w)
                            if base is not None:
                                add_blossom(base, v, w)
                            else:
                                augment_matching(v, w)
                                augmented = True
                                break
                        elif label.get(w) is None:
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label.get(bw) == 1:
                        if bestedge.get(bv) is None or kslack < slack(*bestedge[bv]):
                            bestedge[bv] = (v, w)
                    elif label.get(w) is None:
                        if bestedge.get(w) is None or kslack < slack(*bestedge[w]):
                            bestedge[w] = (v, w)
            if augmented:
                break

            # no augmenting path on tight edges: move the duals by the
            # largest step that keeps them feasible (all pre-multiplied by 2)
            deltatype, delta = 1, min(dualvar)
            for v in range(n):
                if label.get(inblossom[v]) is None and bestedge.get(v) is not None:
                    d = slack(*bestedge[v])
                    if d < delta:
                        deltatype, delta, deltaedge = 2, d, bestedge[v]
            for b in blossomparent:
                if blossomparent[b] is None and label.get(b) == 1 and bestedge.get(b) is not None:
                    d = slack(*bestedge[b]) // 2  # even: both ends are S-vertices
                    if d < delta:
                        deltatype, delta, deltaedge = 3, d, bestedge[b]
            for b in blossomdual:
                if blossomparent[b] is None and label.get(b) == 2 and blossomdual[b] < delta:
                    deltatype, delta, deltablossom = 4, blossomdual[b], b
            for v in range(n):
                t = label.get(inblossom[v])
                if t == 1:
                    dualvar[v] -= delta
                elif t == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    t = label.get(b)
                    if t == 1:
                        blossomdual[b] += delta
                    elif t == 2:
                        blossomdual[b] -= delta
            if deltatype == 1:
                break
            if deltatype == 4:
                _run_flat(expand_blossom(deltablossom, False))
            else:
                v, w = deltaedge
                allowedge.update(((v, w), (w, v)))
                queue.append(v)
        if not augmented:
            break
        for b in list(blossomdual):
            if (b in blossomdual and blossomparent[b] is None and label.get(b) == 1
                    and blossomdual[b] == 0):
                _run_flat(expand_blossom(b, True))

    _certify(adj, mate, dualvar, blossomparent, blossomdual)
    matching = frozenset((v, w) for v, w in mate.items() if v < w)
    return matching, sum(adj[v][w] for v, w in matching)


def _certify(adj, mate, dualvar, blossomparent, blossomdual):
    """Raise ``InstanceError`` unless the duals prove ``mate`` maximum.

    With u(v) = dualvar[v] / 2 and z(B) = blossomdual[B], every matching
    weighs at most sum u + sum z(B) (|B| - 1) / 2 when all duals are
    non-negative and every edge (i, j) has non-negative slack
    u(i) + u(j) - w(i, j) + (z summed over the blossoms holding i and j).
    ``mate`` weighs exactly that when its edges have zero slack, its single
    vertices have u = 0 and each blossom of positive z holds (|B| - 1) / 2
    of its edges.  The blossoms holding both ends of an edge are their
    lowest common blossom and its ancestors, which Tarjan's offline
    common-ancestor search finds during one depth-first walk over the
    blossom forest, so the check takes O(n + m) steps besides its
    path-halving ancestor lookups.
    """
    n = len(adj)
    ok = min(dualvar) >= 0 and all(z >= 0 for z in blossomdual.values())
    up = {None: None}  # a finished node points to its parent, an open blossom to itself
    zsum = {None: 0}  # z summed over an open blossom and its ancestors
    inside = {None: [0, 0]}  # vertices and matched edges in an open blossom
    seen = [False] * n
    stack = [(x, None, True) for x, p in blossomparent.items() if p is None]
    while stack and ok:
        x, p, enter = stack.pop()
        if not isinstance(x, _Blossom):
            m = mate.get(x)
            ok = not seen[x] and (dualvar[x] == 0 if m is None else mate.get(m) == x)
            seen[x] = True
            up[x] = p
            inside[p][0] += 1
            for w, wt in adj[x].items():
                if seen[w]:
                    lca = w
                    while up[lca] is not lca:
                        up[lca] = up[up[lca]]
                        lca = up[lca]
                    s = dualvar[x] + dualvar[w] - 2 * wt + 2 * zsum[lca]
                    if w == m:
                        ok &= s == 0
                        inside[lca][1] += 1
                    ok &= s >= 0
        elif enter:
            up[x] = x
            zsum[x] = zsum[p] + blossomdual[x]
            inside[x] = [0, 0]
            stack.append((x, p, False))
            stack.extend((c, x, True) for c in x.childs)
        else:
            verts, matched = inside.pop(x)
            ok = blossomdual[x] == 0 or verts == 2 * matched + 1
            inside[p][0] += verts
            inside[p][1] += matched
            up[x] = p
    if not ok or inside[None] != [n, len(mate) // 2]:
        raise InternalError("the matching's duals fail the optimality check")
