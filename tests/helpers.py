"""Shared test utilities: independent brute-force oracles and graph corpora.

The brute-force routines here deliberately avoid the package's blossom
implementation so they can serve as independent ground truth.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from stochmatch.graph import Matching, Realization, StochasticGraph
from stochmatch.mis import MisResult
from stochmatch.randomness import RandomStream, as_stream
from stochmatch.vim import Hyperwalk


def brute_force_mu(n: int, pairs) -> int:
    """Maximum matching size by branch-and-bound over the edge list."""
    pairs = [tuple(p) for p in pairs]

    def rec(i: int, used: frozenset) -> int:
        best = 0
        for j in range(i, len(pairs)):
            u, v = pairs[j]
            if u not in used and v not in used:
                best = max(best, 1 + rec(j + 1, used | {u, v}))
        return best

    return rec(0, frozenset())


def brute_force_mu_ids(g: StochasticGraph, edge_ids) -> int:
    return brute_force_mu(g.n, [g.endpoints(e) for e in edge_ids])


def brute_force_opt(g: StochasticGraph) -> float:
    """Exact expected maximum realized matching size by full enumeration."""
    m = g.m
    total = 0.0
    for mask in range(1 << m):
        prob = 1.0
        pairs = []
        for e in range(m):
            if mask >> e & 1:
                prob *= g.ps[e]
                pairs.append(g.endpoints(e))
            else:
                prob *= 1.0 - g.ps[e]
        total += prob * brute_force_mu(g.n, pairs)
    return total


def all_matchings_max_size(n: int, pairs) -> int:
    """Maximum size over every subset of edges that forms a matching."""
    best = 0
    for k in range(len(pairs), 0, -1):
        if k <= best:
            break
        for combo in itertools.combinations(pairs, k):
            used = set()
            ok = True
            for u, v in combo:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                best = max(best, k)
                break
    return best


def path_graph(k_edges: int, p: float = 0.5) -> StochasticGraph:
    return StochasticGraph(k_edges + 1, [(i, i + 1, p) for i in range(k_edges)])


def path2(p: float = 0.5) -> StochasticGraph:
    """The two-edge path 0-1-2 used throughout the oracle examples."""
    return path_graph(2, p)


def clique_graph(n: int, p: float = 1.0) -> StochasticGraph:
    return StochasticGraph(n, [(u, v, p) for u in range(n) for v in range(u + 1, n)])


def petersen(p: float = 1.0) -> StochasticGraph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    spokes = [(i, i + 5) for i in range(5)]
    return StochasticGraph(10, [(u, v, p) for u, v in outer + inner + spokes])


def two_single_edges(p: float = 0.5) -> StochasticGraph:
    """Two components, each one edge: the simplest far-pair instance."""
    return StochasticGraph(4, [(0, 1, p), (2, 3, p)])


def random_small_graph(rng: np.random.Generator, max_edges: int = 12) -> StochasticGraph:
    n = int(rng.integers(3, 9))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(possible)
    m = int(rng.integers(1, min(max_edges, len(possible)) + 1))
    edges = []
    for u, v in possible[:m]:
        p = float(rng.uniform(0.15, 1.0))
        edges.append((u, v, p))
    return StochasticGraph(n, edges)


def small_corpus(count: int = 50, seed: int = 2024, max_edges: int = 12):
    """Deterministic corpus of random oracle-sized instances."""
    rng = np.random.default_rng(seed)
    out = [random_small_graph(rng, max_edges=max_edges) for _ in range(count)]
    return out


def stream(seed: int = 1, *key) -> RandomStream:
    return RandomStream(seed, key or ("test",))


def canonical_walk(steps, vertices) -> Hyperwalk:
    """A walk and its reversal are the same object; keep the smaller form."""
    fwd = (tuple(steps), tuple(vertices))
    rev = (tuple(reversed(steps)), tuple(reversed(vertices)))
    return Hyperwalk(*min(fwd, rev))


def is_augmenting(profile, walk: Hyperwalk) -> bool:
    """Whether applying the walk keeps every slot a matching, preserves the
    slot-membership count of interior vertices, and raises it by exactly one
    at both (distinct) endpoints."""
    v0, vk = walk.vertices[0], walk.vertices[-1]
    if v0 == vk:
        # Coincident endpoints cannot each gain one slot; ruling these out
        # also keeps the per-level counting identity exact.
        return False
    n_slots = len(profile.realized)
    adds: dict[int, set[int]] = {}
    rems: dict[int, set[int]] = {}
    for pos, (e, s) in enumerate(walk.steps, start=1):
        if not (0 <= s < n_slots):
            return False
        target = adds if pos % 2 == 1 else rems
        target.setdefault(s, set()).add(e)
    g = profile.cls.graph
    new_cover: dict[int, dict[int, int]] = {}
    for s in set(adds) | set(rems):
        edges = (profile.matchings[s] | adds.get(s, set())) - rems.get(s, set())
        if not edges <= profile.realized[s]:
            return False
        cov: dict[int, int] = {}
        for e in edges:
            u, v = g.endpoints(e)
            if u in cov or v in cov:
                return False
            cov[u] = e
            cov[v] = e
        new_cover[s] = cov
    for v in set(walk.vertices):
        before = sum(1 for cov in profile.cover if v in cov)
        after = 0
        for s in range(n_slots):
            cov = new_cover.get(s)
            if cov is None:
                cov = profile.cover[s]
            if v in cov:
                after += 1
        expected = before + 1 if v in (v0, vk) else before
        if after != expected:
            return False
    return True


def reference_augmenting_hyperwalks(profile, saturated, walk_cap: int):
    """Generate-then-validate hyperwalk enumeration, the oracle for the
    incremental search in ``stochmatch.vim``: every taut prefix ending at an
    unsaturated vertex is canonicalised and checked with a full
    ``is_augmenting`` rebuild."""
    cadj = profile.cls.crucial_adjacency()
    n_slots = len(profile.realized)
    found = {}

    def consider(steps, verts):
        walk = canonical_walk(steps, verts)
        key = (walk.steps, walk.vertices)
        if key not in found and is_augmenting(profile, walk):
            found[key] = walk

    def extend(cur, steps, verts, used):
        pos = len(steps) + 1
        odd = pos % 2 == 1
        for nbr, e in cadj.get(cur, ()):
            for s in range(n_slots):
                step = (e, s)
                if step in used:
                    continue
                if odd:
                    if e not in profile.realized[s] or e in profile.matchings[s]:
                        continue
                else:
                    if e not in profile.matchings[s]:
                        continue
                steps.append(step)
                verts.append(nbr)
                used.add(step)
                if odd and nbr not in saturated:
                    consider(steps, verts)
                if len(steps) < walk_cap:
                    extend(nbr, steps, verts, used)
                steps.pop()
                verts.pop()
                used.discard(step)

    for v0 in sorted(cadj):
        if v0 in saturated:
            continue
        extend(v0, [], [v0], set())
    return sorted(found.values(), key=lambda w: (w.vertices[0], w.steps))


def reference_luby_rounds(adjacency, rounds: int, priority) -> MisResult:
    """Luby rounds over an explicit neighbour list, the oracle for the
    shared-member rounds of ``stochmatch.mis.luby_rounds``: a node joins when
    its priority is below every undecided neighbour's, and winners remove
    their undecided neighbours."""
    n = len(adjacency)
    undecided = set(range(n))
    chosen = []
    rounds_used = 0
    for r in range(rounds):
        if not undecided:
            break
        rounds_used = r + 1
        pri = {v: priority(r, v) for v in undecided}
        joined = [
            v
            for v in sorted(undecided)
            if all(pri[v] < pri[u] for u in adjacency[v] if u in undecided)
        ]
        if not joined:
            continue
        removed = set(joined)
        for v in joined:
            chosen.append(v)
            removed.update(u for u in adjacency[v] if u in undecided)
        undecided -= removed
    return MisResult(
        in_set=tuple(sorted(chosen)),
        undecided=tuple(sorted(undecided)),
        rounds=rounds_used,
    )


def greedy_complete(adjacency, result: MisResult) -> tuple[int, ...]:
    """Extend an independent set to a maximal one over the undecided nodes."""
    chosen = set(result.in_set)
    for v in result.undecided:
        if all(u not in chosen for u in adjacency[v]):
            chosen.add(v)
    return tuple(sorted(chosen))


def reference_max_matching(g: StochasticGraph, edge_set=None) -> Matching:
    """Dict-based Edmonds blossom, the oracle for ``stochmatch.matching``.

    Edge ids are sorted, adjacency is rebuilt as dicts in ascending neighbor
    order, and every search root and lowest-common-ancestor search allocates
    fresh vertex maps; a contraction scans all vertices in ascending id order.
    The vertex-indexed engine must return exactly the same matching.
    """
    if edge_set is None:
        ids = list(range(g.m))
    elif isinstance(edge_set, Realization):
        ids = edge_set.edge_ids()
    else:
        ids = sorted(int(e) for e in edge_set)
    adj = {}
    eid = {}
    for e in ids:
        u, v = g.endpoints(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
        eid[(u, v)] = e
        eid[(v, u)] = e
    verts = sorted(adj)
    for v in verts:
        adj[v].sort()
    match = _reference_blossom(verts, adj)
    out = []
    for v in verts:
        u = match.get(v, -1)
        if u >= 0 and v < u:
            out.append(eid[(v, u)])
    return Matching(g, out)


def _reference_blossom(verts, adj):
    match = {v: -1 for v in verts}
    for v in verts:
        if match[v] < 0:
            for u in adj[v]:
                if match[u] < 0:
                    match[v] = u
                    match[u] = v
                    break
    for root in verts:
        if match[root] < 0:
            _reference_augment_from(root, verts, adj, match)
    return match


def _reference_augment_from(root, verts, adj, match):
    parent = {v: -1 for v in verts}
    base = {v: v for v in verts}
    in_queue = {v: False for v in verts}
    in_blossom = {v: False for v in verts}

    in_queue[root] = True
    queue = deque([root])

    def find_lca(a, b):
        on_path = {v: False for v in verts}
        x = a
        while True:
            x = base[x]
            on_path[x] = True
            if match[x] < 0:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if on_path[y]:
                return y
            y = parent[match[y]]

    def mark_path(v, b, child):
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] >= 0 and parent[match[to]] >= 0):
                cur_base = find_lca(v, to)
                for x in verts:
                    in_blossom[x] = False
                mark_path(v, cur_base, to)
                mark_path(to, cur_base, v)
                for x in verts:
                    if in_blossom[base[x]]:
                        base[x] = cur_base
                        if not in_queue[x]:
                            in_queue[x] = True
                            queue.append(x)
            elif parent[to] < 0:
                parent[to] = v
                if match[to] < 0:
                    v = to
                    while v >= 0:
                        pv = parent[v]
                        next_v = match[pv]
                        match[v] = pv
                        match[pv] = v
                        v = next_v
                    return True
                in_queue[match[to]] = True
                queue.append(match[to])
    return False


def reference_exact_stats(g: StochasticGraph):
    """(opt, q, matched_prob) by the exact oracle's summation with numpy
    element updates, the oracle for ``stochmatch.oracle.exact_stats``.

    Every mask in counting order adds its probability times the matching
    size to a scalar Kahan sum, and its probability to the Kahan sum of each
    matched edge, kept in numpy float64 arrays.  Matchings come from
    ``reference_max_matching``, so no mask table is read or filled.  The
    package's oracle must return the same bits.
    """
    m = g.m
    probs = np.ones(1 << m)
    idx = np.arange(1 << m)
    for e in range(m):
        bit = (idx >> e) & 1 == 1
        probs[bit] *= g.ps[e]
        probs[~bit] *= 1.0 - g.ps[e]
    opt, opt_comp = 0.0, 0.0
    total, comp = np.zeros(m), np.zeros(m)
    for mask in range(1 << m):
        matched = reference_max_matching(g, [e for e in range(m) if mask >> e & 1]).edges
        p = float(probs[mask])
        y = p * len(matched) - opt_comp
        t = opt + y
        opt_comp = (t - opt) - y
        opt = t
        for e in sorted(matched):
            y = p - comp[e]
            t = total[e] + y
            comp[e] = (t - total[e]) - y
            total[e] = t
    matched_prob = np.zeros(g.n)
    for e in range(m):
        u, v = g.endpoints(e)
        matched_prob[u] += total[e]
        matched_prob[v] += total[e]
    return float(opt), total, matched_prob


_REFERENCE_GADGETS = {"edge": (2, [(0, 1)]), "path3": (3, [(0, 1), (1, 2)]),
                      "triangle": (3, [(0, 1), (1, 2), (0, 2)])}


def reference_family_graph(family: str, params: dict, seed=0) -> StochasticGraph:
    """A generator family's graph drawn pair by pair, as each family's own
    loop drew it before the families shared one batched routine: one scalar
    ``uniform_at(("pair", u, v))`` per candidate where the family has a
    density, and one ``uniform_at(("p", i))`` per kept candidate i for a range
    ``p``.  ``seed`` may be a stream, used as it is.  Valid parameters only."""
    n, p = params.get("n"), params.get("p", 0.5)
    if family == "erdos_renyi":
        stream, density = as_stream(seed, "gen-er"), params["edge_density"]
        cands = [((u, v), (u, v)) for u in range(n) for v in range(u + 1, n)]
    elif family == "bipartite_random":
        n1, n2 = params["n1"], params["n2"]
        n, stream, density = n1 + n2, as_stream(seed, "gen-bip"), params["density"]
        cands = [((u, n1 + v), (u, v)) for u in range(n1) for v in range(n2)]
    elif family == "clique":
        stream, density = RandomStream(0, ("gen-clique",)), None
        cands = [((u, v), None) for u in range(n) for v in range(u + 1, n)]
    elif family == "path":
        stream, density = RandomStream(0, ("gen-path",)), None
        cands = [((i, i + 1), None) for i in range(n - 1)]
    else:
        size, base = _REFERENCE_GADGETS[params.get("gadget", "edge")]
        n, stream, density = 2 * size, RandomStream(0, ("gen-far",)), None
        cands = [((u + off, v + off), None) for off in (0, size) for u, v in base]
    edges = []
    for idx, ((u, v), key) in enumerate(cands):
        if density is not None and not stream.uniform_at(("pair", *key)) < density:
            continue
        if isinstance(p, (tuple, list)):
            lo, hi = float(p[0]), float(p[1])
            edges.append((u, v, lo + (hi - lo) * stream.uniform_at(("p", idx))))
        else:
            edges.append((u, v, float(p)))
    return StochasticGraph(n, edges)
