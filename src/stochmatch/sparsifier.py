"""Sparsifier construction: union of maximum matchings of sampled realizations.

``build_q`` draws R independent realizations of the graph and takes the union
of their (deterministic) maximum matchings, tracking how many matchings each
edge appeared in.  The older iterative construction (repeatedly peel a
maximum matching off the full graph) is included as a baseline for ratio
comparisons.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterOverflowError
from .graph import Realization, StochasticGraph, sample_realization
from .matching import max_matching, mu
from .randomness import RandomStream, as_stream

__all__ = [
    "SubgraphQ",
    "build_q",
    "default_R",
    "build_baseline_iterative",
    "realize_and_match_q",
]

BUILD_PURPOSE = "sparsify"
EVAL_PURPOSE = "evaluate"


class SubgraphQ:
    """The sparsifier: per-edge membership plus matching-multiplicity counts."""

    __slots__ = ("parent", "R", "t", "member", "build_purpose")

    def __init__(self, parent: StochasticGraph, R: int, t, build_purpose: str):
        t = np.asarray(t, dtype=np.int64)
        if t.shape != (parent.m,):
            raise ValueError("t must have one entry per parent edge")
        self.parent = parent
        self.R = int(R)
        self.t = t
        self.member = t > 0
        self.build_purpose = build_purpose
        self._check_invariants()

    def _check_invariants(self):
        g = self.parent
        # Float sums of these integer weights are exact (far below 2**53).
        per_vertex = g.vertex_sums(np.where(self.member, self.t, 0))
        if per_vertex.size and per_vertex.max() > self.R:
            raise AssertionError(
                "t-sum exceeds R at some vertex; a sampled matching was not a matching"
            )

    def member_edges(self) -> list[int]:
        return [int(e) for e in np.flatnonzero(self.member)]

    def max_member_degree(self) -> int:
        deg = self.parent.vertex_sums(self.member)
        return int(deg.max()) if deg.size else 0


def build_q(g: StochasticGraph, R: int, seed) -> SubgraphQ:
    """Algorithm: union of maximum matchings of R sampled realizations."""
    if R < 1:
        raise ValueError(f"R must be at least 1, got {R}")
    stream = as_stream(seed, BUILD_PURPOSE)
    t = np.zeros(g.m, dtype=np.int64)
    for i in range(R):
        real = sample_realization(g, stream.child("real", i))
        for e in max_matching(g, real).edges:
            t[e] += 1
    return SubgraphQ(g, R, t, build_purpose=stream.purpose or BUILD_PURPOSE)


def default_R(tau_minus: float, cap: int) -> int:
    """Paper-scale choice R = ceil(1 / (2 tau_minus)), guarded against overflow."""
    if not (0.0 < tau_minus < 1.0):
        raise ValueError(f"tau_minus must be in (0, 1), got {tau_minus}")
    value = math.ceil(1.0 / (2.0 * tau_minus))
    if value > cap:
        raise ParameterOverflowError(
            f"R = ceil(1/(2*tau_minus)) = {value} exceeds the cap of {cap}; "
            f"pass an explicit R override for desk-scale runs (certify --R, or the config key R)"
        )
    return value


def build_baseline_iterative(g: StochasticGraph, R: int) -> SubgraphQ:
    """Iteratively peel a maximum matching off the full graph, R times."""
    if R < 1:
        raise ValueError(f"R must be at least 1, got {R}")
    remaining = set(range(g.m))
    t = np.zeros(g.m, dtype=np.int64)
    for _ in range(R):
        if not remaining:
            break
        matched = max_matching(g, remaining).edges
        for e in matched:
            t[e] = 1
            remaining.discard(e)
    return SubgraphQ(g, R, t, build_purpose="baseline")


def realize_and_match_q(q: SubgraphQ, stream: RandomStream) -> tuple[Realization, int]:
    """Realize the member edges of Q with their p_e and return mu of the result.

    The evaluation stream must live in a key space disjoint from the one the
    sparsifier was built with; this is what separates the algorithm's own
    samples from the actual realization being evaluated.
    """
    if stream.purpose == q.build_purpose:
        raise ValueError(
            f"evaluation stream purpose {stream.purpose!r} collides with the "
            f"build key space; key it differently (e.g. {EVAL_PURPOSE!r})"
        )
    g = q.parent
    real = Realization(g, sample_realization(g, stream).present & q.member)
    return real, mu(g, real)
