"""Vertex sparsification: contract vertices into random buckets and lift back.

Contraction assigns every vertex independently and uniformly to one of
k = ceil(8 opt / epsilon) buckets, drops intra-bucket edges, and merges
parallel inter-bucket edges with probability 1 - prod(1 - p); that is exactly
the probability at least one original edge realizes, so realizations couple.
Lifting picks a bounded number of original edges per merged member edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import StochasticGraph
from .randomness import as_stream
from .sparsifier import SubgraphQ
from .stats import check_epsilon

__all__ = ["Contraction", "contract", "lift", "lift_cap"]


@dataclass
class Contraction:
    original: StochasticGraph
    k: int
    b: np.ndarray  # vertex -> bucket
    merged: StochasticGraph
    origin: tuple[tuple[int, ...], ...]  # merged edge -> original edge ids


def contract(g: StochasticGraph, epsilon: float, opt_estimate: float, seed) -> Contraction:
    """Uniform independent bucket contraction with merged probabilities."""
    if opt_estimate <= 0:
        raise ValueError(f"opt_estimate must be positive, got {opt_estimate}")
    check_epsilon(epsilon)
    k = math.ceil(8.0 * opt_estimate / epsilon)
    stream = as_stream(seed, "contract")
    u = stream.uniforms(g.n)
    b = np.minimum((u * k).astype(np.int64), k - 1)

    groups: dict[tuple[int, int], list[int]] = {}
    for e in range(g.m):
        bu, bv = int(b[g.us[e]]), int(b[g.vs[e]])
        if bu == bv:
            continue  # self-loop in the merged graph
        pair = (bu, bv) if bu < bv else (bv, bu)
        groups.setdefault(pair, []).append(e)

    merged_edges = []
    origin = []
    for (bu, bv), ids in sorted(groups.items()):
        miss = 1.0
        for e in ids:
            miss *= 1.0 - float(g.ps[e])
        merged_edges.append((bu, bv, 1.0 - miss))
        origin.append(tuple(sorted(ids)))
    merged = StochasticGraph(k, merged_edges)
    return Contraction(original=g, k=k, b=b, merged=merged, origin=tuple(origin))


def lift_cap(epsilon: float, p_min: float) -> int:
    """Per-merged-edge budget ceil((1/p_min) ln(1/epsilon)), at least 1."""
    return max(1, math.ceil((1.0 / p_min) * math.log(1.0 / epsilon)))


def lift(qH: SubgraphQ, contraction: Contraction, epsilon: float) -> tuple[int, ...]:
    """Original-graph edge ids backing each member edge of the merged sparsifier.

    For each member edge, the lowest-id origin edges are picked (the paper
    allows an arbitrary choice; lowest ids keep it reproducible), up to
    min(cap, all of them), with the cap ``lift_cap`` of the original graph's
    p_min.
    """
    if qH.parent is not contraction.merged:
        raise ValueError("qH must be built on the contraction's merged graph")
    cap = lift_cap(epsilon, contraction.original.p_min)
    picked: set[int] = set()
    for e in qH.member_edges():
        ids = contraction.origin[e]
        picked.update(ids[: min(cap, len(ids))])
    return tuple(sorted(picked))
