"""Shared test utilities: independent brute-force oracles and graph corpora.

The brute-force routines here deliberately avoid the package's blossom
implementation so they can serve as independent ground truth.
"""

from __future__ import annotations

import itertools

import numpy as np

from stochmatch.graph import StochasticGraph
from stochmatch.randomness import RandomStream
from stochmatch.vim import _canonical_walk, is_augmenting


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


def reference_augmenting_hyperwalks(profile, saturated, walk_cap: int):
    """Generate-then-validate hyperwalk enumeration, the oracle for the
    incremental search in ``stochmatch.vim``: every taut prefix ending at an
    unsaturated vertex is canonicalised and checked with a full
    ``is_augmenting`` rebuild."""
    cadj = profile.cls.crucial_adjacency()
    n_slots = profile.n_slots
    found = {}

    def consider(steps, verts):
        walk = _canonical_walk(steps, verts)
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
