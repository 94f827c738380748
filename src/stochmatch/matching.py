"""Deterministic maximum-cardinality matching (Edmonds blossom).

The matching routine is a pure function of the edge set.  Each call filters
the graph's cached adjacency (``StochasticGraph.half_edges``, the flattened
``adjacency``, ascending by vertex and then neighbor id) through a presence
test on the edge set: the realization's ``present`` mask, or a byte mask of
the given edge ids.  Every vertex's neighbor list is therefore ascending
without a per-call sort or an edge lookup table.  Only vertices with at least
one present edge take part.  A greedy seed matching scans them in
ascending id order, and augmenting searches start from free vertices in
ascending id order with a FIFO frontier.  Two calls on the same edge set (in
any input order or form) return identical matchings, which is what makes
per-edge matching probabilities well defined downstream.

Layout.  The search state is vertex-indexed lists of length n: ``match``,
``parent``, ``base`` (the base of the blossom holding a vertex) and
``in_queue``.  They are allocated once per call and reset per search root by
slice copies from constant templates.  Each lowest common ancestor search
marks its path with a fresh integer stamp in one list that is never reset.

Contraction.  The classic formulation relabels every vertex ``x`` with
``in_blossom[base[x]]`` by one scan over all vertices in ascending id order,
pushing each onto the frontier unless it was queued before.  Here each
nontrivial base keeps its member list (the vertices whose ``base`` it is;
a vertex that is its own base has the implicit list ``[x]``).  The vertices
the scan would relabel are exactly the union of the members of the bases
the two path walks marked.  That union is sorted before relabeling and
pushing, so the frontier receives the same vertices in the same ascending
order as the scan, at a cost proportional to the blossom instead of to n.
"""

from __future__ import annotations

from bisect import bisect_left

from .graph import Matching, Realization, StochasticGraph

__all__ = ["max_matching", "mu"]


def _presence(g: StochasticGraph, edge_set):
    """Bytes-like presence test indexed by edge id (nonzero = present)."""
    if edge_set is None:
        return b"\x01" * g.m
    if isinstance(edge_set, Realization):
        if edge_set.parent is not g:
            raise ValueError("realization belongs to a different graph")
        return edge_set.present.tobytes()
    m = g.m
    mask = bytearray(m)
    for e in edge_set:
        if not 0 <= e < m:
            raise ValueError(f"edge id {e} out of range for a graph with {m} edges")
        mask[e] = 1
    return mask


def max_matching(g: StochasticGraph, edge_set=None) -> Matching:
    """Maximum-cardinality matching of the given edge subset of ``g``.

    ``edge_set`` may be a Realization of ``g``, an iterable of edge ids in
    ``[0, g.m)``, or None for the whole graph.  The empty edge set yields the
    empty matching.
    """
    present = _presence(g, edge_set)
    adj = [[] for _ in range(g.n)]
    for v, u, e in g.half_edges:
        if present[e]:
            adj[v].append(u)
    verts = [v for v, nbrs in enumerate(adj) if nbrs]
    match = _blossom(g.n, verts, adj)
    rows = g.adjacency
    out = []
    for v in verts:
        u = match[v]
        if u > v:
            row = rows[v]
            out.append(row[bisect_left(row, (u,))][1])
    return Matching(g, out)


def mu(g: StochasticGraph, edge_set=None) -> int:
    """Maximum matching size of the given edge subset."""
    return len(max_matching(g, edge_set))


def _blossom(n: int, verts: list[int], adj: list[list[int]]) -> list[int]:
    """Edmonds' algorithm on vertex-indexed neighbor lists; returns ``match``.

    Classic O(V^3) contraction-by-base-array formulation.  All iteration
    orders are fixed by the ascending inputs, so the result is canonical.
    """
    match = [-1] * n

    # Greedy seed keeps the number of augmenting searches small.
    for v in verts:
        if match[v] < 0:
            for u in adj[v]:
                if match[u] < 0:
                    match[v] = u
                    match[u] = v
                    break

    # Search state, allocated once and reset per root from constant templates.
    neg, ident, unqueued = [-1] * n, list(range(n)), [False] * n
    parent, base, in_queue = neg[:], ident[:], unqueued[:]
    on_path = [0] * n
    stamp = 0
    for root in verts:
        if match[root] >= 0:
            continue
        parent[:] = neg
        base[:] = ident
        in_queue[:] = unqueued
        members = {}
        in_queue[root] = True
        queue = [root]
        # The loop reads the frontier while it grows, which is FIFO order.
        for v in queue:
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] >= 0 and parent[match[to]] >= 0):
                    # Odd cycle through the root of both alternating paths:
                    # contract it at the lowest common ancestor base.
                    stamp += 1
                    x = v
                    while True:
                        x = base[x]
                        on_path[x] = stamp
                        if match[x] < 0:
                            break
                        x = parent[match[x]]
                    cur_base = to
                    while True:
                        cur_base = base[cur_base]
                        if on_path[cur_base] == stamp:
                            break
                        cur_base = parent[match[cur_base]]
                    marked = set()
                    _mark_path(v, cur_base, to, base, match, parent, marked)
                    _mark_path(to, cur_base, v, base, match, parent, marked)
                    blossom = []
                    for b in marked:
                        blossom.extend(members.pop(b, (b,)))
                    blossom.sort()
                    for x in blossom:
                        base[x] = cur_base
                        if not in_queue[x]:
                            in_queue[x] = True
                            queue.append(x)
                    members[cur_base] = members.get(cur_base, [cur_base]) + blossom
                elif parent[to] < 0:
                    parent[to] = v
                    if match[to] < 0:
                        _flip_path(to, parent, match)
                        break
                    in_queue[match[to]] = True
                    queue.append(match[to])
            else:
                continue
            break  # augmented: this root is done
    return match


def _mark_path(v, b, child, base, match, parent, marked):
    """Point the path from ``v`` up to base ``b`` at ``child``; mark its bases."""
    while base[v] != b:
        mv = match[v]
        marked.add(base[v])
        marked.add(base[mv])
        parent[v] = child
        child = mv
        v = parent[mv]


def _flip_path(v, parent, match):
    while v >= 0:
        pv = parent[v]
        next_v = match[pv]
        match[v] = pv
        match[pv] = v
        v = next_v
