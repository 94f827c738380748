"""Deterministic maximum-cardinality matching (Edmonds blossom).

The matching routine is a pure function of the edge set.  Only vertices with
at least one present edge take part.  A greedy seed matching scans them in
ascending id order, each taking its lowest free neighbor, and augmenting
searches start from free vertices in ascending id order with a FIFO
frontier.  Two calls on the same edge set (in any input order or form)
return identical matchings, which is what makes per-edge matching
probabilities well defined downstream.

Layout.  Every call makes one pass over the graph's edges in ascending
(u, v) order (``StochasticGraph.lex_edges``, u < v), filtered by a selector
in that order: the realization's ``present`` mask gathered by the cached
ids (``itertools.compress`` then yields only the present pairs), the
presence bytes of the given edge ids gathered the same way, or the bits of a
realization bitmask.  The pass appends v to u's neighbor list and u to v's.
Each list comes out ascending without a sort: a vertex x first receives its
neighbors below it, each from an earlier u-group and so in ascending order,
and then, in its own u-group, its neighbors above it in ascending order.

Greedy seed.  The same pass matches (u, v) when both ends are still free,
and this is the vertex scan above, one u-group for each vertex.  The group
of x holds x's edges to its neighbors above it in ascending order, so a
free x takes its lowest free neighbor above it.  It has no free neighbor
below it: seed matches are never undone, so a neighbor w < x found x free
in its own group and, if still free itself, was matched there.  ``_blossom``
starts from this seeded ``match``.

Search state.  ``match``, ``parent``, ``base`` (the base of the blossom
holding a vertex) and ``in_queue`` are vertex-indexed lists of length n,
allocated once per call.  A search writes ``base`` and ``in_queue`` only for
the vertices it queues, and ``parent`` only for those and for the odd
vertices it labels (contractions and path marks write only to queued
vertices), so after each search exactly those are reset, at a cost
proportional to the search instead of to n.  Each lowest common ancestor
search marks its path with a fresh integer stamp in one list that is never
reset.

Skipped searches.  The roots are the vertices still free after the greedy
seed, in ascending id order.  An augmenting path from a root ends at another
free vertex, which is a root, and not an earlier one: that root's search
found no augmenting path, and by the lemma of Edmonds ("Paths, Trees, and
Flowers", 1965) a free vertex with no augmenting path gets none from
augmentations elsewhere.  So when no later root is still free the remaining
searches would all fail without changing ``match``, and the loop stops.

Contraction.  The classic formulation relabels every vertex ``x`` with
``in_blossom[base[x]]`` by one scan over all vertices in ascending id order,
pushing each onto the frontier unless it was queued before.  Here each
nontrivial base keeps its member list (the vertices whose ``base`` it is;
a vertex that is its own base has the implicit list ``[x]``).  The vertices
the scan would relabel are exactly the union of the members of the bases
the two path walks marked.  That union is sorted before relabeling and
pushing, so the frontier receives the same vertices in the same ascending
order as the scan, at a cost proportional to the blossom instead of to n.

Result.  The matched edge ids come from the ``match`` list, which is an
involution: each matched pair (v, u) is listed once, from its lower vertex
v, and its edge id is ``lex_edges.pair_id[v * n + u]``, one dict lookup.
The pairs are vertex-disjoint by construction, so ``max_matching`` builds
its ``Matching`` from the ids alone and skips the public constructor's
re-validation.

Small graphs.  ``matched_by_mask`` answers from the graph's ``mask_table``,
matching a realization bitmask only the first time it is seen, and stores
the ascending matched edge ids; it builds no ``Matching`` and does not go
through ``max_matching``, whose result it equals.  A miss grows the
connected component C of the mask's highest set edge by a breadth-first
search over bitmasks (``lex_edges.touch``).  A connected mask (C == mask)
runs the blossom, selecting edge e when bit e is set (``lex_edges.bits``).
Any other mask stores the union of the matchings of C and of mask ^ C, two
smaller submasks, which are usually in the table already.  That union is
the blossom's matching of the whole mask, for three reasons.  First, the
pass in (u, v) order gives each vertex only the neighbors of its own
component, in the same order as a pass over that component alone, and the
greedy seed decides (u, v) only from ``match[u]`` and ``match[v]``; so the
seed restricted to a component is that component's own seed.  Second, a
search from root r reads and writes only r's component (its frontier
follows edges, and contractions and path flips stay on the search tree),
it resets what it touched, and the path-mark stamps are only compared for
equality with the current one; so the searches of other components neither
see nor change it.  Third, the early stop is safe: when no later free root
is left in r's component, the search from r fails without changing
``match``, by the Edmonds-lemma argument above, so the whole mask's loop,
which may still search from r, and the component's own loop, which stops
at r, flip the same augmenting paths.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import index

import numpy as np

from .graph import _MASK_LIMIT, Matching, Realization, StochasticGraph

__all__ = ["max_matching", "matched_by_mask", "mu"]


def _selector(g: StochasticGraph, edge_set):
    """Presence of each edge of ``g.lex_edges`` in its (u, v) order (truthy =
    present), for ``itertools.compress`` over the pairs."""
    if edge_set is None:
        return repeat(True)
    ids = g.lex_edges.ids
    if isinstance(edge_set, Realization):
        if edge_set.parent is not g:
            raise ValueError("realization belongs to a different graph")
        return edge_set.present[ids].tobytes()
    m = g.m
    mask = bytearray(m)
    for e in edge_set:
        # A bool is an int to Python, so True would alias edge 1.
        if isinstance(e, (bool, np.bool_)):
            raise ValueError(f"edge ids must be integers, got the bool {e!r}")
        try:
            e = index(e)
        except TypeError:
            raise ValueError(f"edge ids must be integers, got {e!r}") from None
        if not 0 <= e < m:
            raise ValueError(f"edge id {e} out of range for a graph with {m} edges")
        mask[e] = 1
    return np.frombuffer(mask, dtype=np.uint8)[ids].tobytes()


def max_matching(g: StochasticGraph, edge_set=None) -> Matching:
    """Maximum-cardinality matching of the given edge subset of ``g``.

    ``edge_set`` may be a Realization of ``g``, an iterable of integer edge
    ids in ``[0, g.m)``, or None for the whole graph.  The empty edge set
    yields the empty matching.
    """
    return Matching._from_pairs(g, _matched_edges(g, _selector(g, edge_set)))


def mu(g: StochasticGraph, edge_set=None) -> int:
    """Maximum matching size of the given edge subset."""
    return len(max_matching(g, edge_set))


def matched_by_mask(g: StochasticGraph, mask: int) -> tuple[int, ...]:
    """Ascending matched edge ids of the realization whose bit e says whether
    edge e is present, looked up in ``g.mask_table`` and matched on a miss.

    A miss on a connected mask runs the blossom; any other mask is split into
    the connected component C of its highest set edge and the rest, each
    matched through the table, and stores their union.

    A graph with no mask table (more than ``graph._MASK_LIMIT`` edges), a
    mask that is not an integer or a mask outside ``[0, 2**g.m)`` raises
    ``ValueError``; the mask is checked only on a miss, so a hit costs one
    dict lookup (and a float or bool equal to a stored mask finds it).
    """
    table = g.mask_table
    if table is None:
        raise ValueError(f"a graph of {g.m} edges has no mask table "
                         f"(at most {_MASK_LIMIT} edges)")
    matched = table.get(mask)
    if matched is None:
        # A bool is an int to Python, so True would alias mask 1.
        if isinstance(mask, (bool, np.bool_)):
            raise ValueError(f"masks must be integers, got the bool {mask!r}")
        try:
            mask = index(mask)
        except TypeError:
            raise ValueError(f"masks must be integers, got {mask!r}") from None
        if not 0 <= mask < 1 << g.m:
            raise ValueError(f"mask {mask} out of range for a graph with {g.m} edges")
        lex = g.lex_edges
        touch = lex.touch
        # Grow the component of the highest set edge, one frontier at a time.
        comp = frontier = 1 << (mask.bit_length() - 1) if mask else 0
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= touch[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & mask & ~comp
            comp |= frontier
        if comp == mask:
            matched = tuple(sorted(_matched_edges(g, map(mask.__and__, lex.bits))))
        else:
            matched = tuple(sorted(matched_by_mask(g, comp) + matched_by_mask(g, mask ^ comp)))
        table[mask] = matched
    return matched


def _matched_edges(g: StochasticGraph, selector) -> list[int]:
    """Edge ids of the blossom matching on the edges ``selector`` marks in
    ``g.lex_edges``, listed by ascending lower endpoint.

    One pass over the present pairs in (u, v) order builds the ascending
    neighbor lists and the greedy seed.  ``match`` is an involution
    (match[match[v]] == v for every matched v), so each pair is read once,
    from its lower vertex, and the pairs are vertex-disjoint by construction.
    """
    lex = g.lex_edges
    n = g.n
    adj = [[] for _ in range(n)]
    match = [-1] * n
    for u, v in compress(lex.pairs, selector):
        adj[u].append(v)
        adj[v].append(u)
        if match[u] < 0 and match[v] < 0:
            match[u] = v
            match[v] = u
    _blossom(adj, match)
    pair_id = lex.pair_id
    return [pair_id[v * n + u] for v, u in enumerate(match) if u > v]


def _blossom(adj: list[list[int]], match: list[int]) -> None:
    """Edmonds' algorithm on vertex-indexed ascending neighbor lists, from the
    greedy seed ``match``, which it completes in place.

    Classic O(V^3) contraction-by-base-array formulation.  All iteration
    orders are fixed by the ascending inputs, so the result is canonical.
    """
    n = len(match)
    # Roots still free after the seed, ascending.  An augmenting path from a
    # root ends at a free root after it: a free root before it had its search
    # fail, and by Edmonds' lemma no augmentation since gives it a path.
    free = [v for v, w in enumerate(match) if w < 0 and adj[v]]
    last = len(free) - 1
    # Search state, allocated once; each search resets what it touched.
    parent, base, in_queue = [-1] * n, list(range(n)), [False] * n
    on_path = [0] * n
    stamp = 0
    for i, root in enumerate(free):
        if match[root] >= 0:
            continue
        while match[free[last]] >= 0:
            last -= 1
        if last == i:
            break  # no later free root, so this and every later search fails
        members = {}
        odd = []
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
                    odd.append(to)
                    if match[to] < 0:
                        _flip_path(to, parent, match)
                        break
                    in_queue[match[to]] = True
                    queue.append(match[to])
            else:
                continue
            break  # augmented: this root is done
        # Contractions and path marks write only to queued vertices.
        for x in queue:
            parent[x] = -1
            base[x] = x
            in_queue[x] = False
        for x in odd:
            parent[x] = -1


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
