"""Crucial/non-crucial decomposition: q estimation, thresholds, classification.

``estimate_q`` estimates q_e = Pr[e in MM(realization)] by Monte Carlo.  The
threshold schedule walks a strictly decreasing sequence t_0 > t_1 > ... and
returns the first bucket whose q-mass is at most epsilon * opt; the bucket
argument guarantees this happens within ceil(1/epsilon) + 1 steps for any
decreasing sequence, so the schedule shape is configurable.  The paper-scale
shape f(x) = x^(10 g(x)) underflows double precision for small epsilon and is
kept behind a guard that raises instead of silently producing zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterOverflowError
from .graph import Realization, StochasticGraph
from .matching import matched_by_mask, max_matching
from .randomness import as_stream

__all__ = [
    "QEstimate",
    "estimate_q",
    "ScheduleResult",
    "threshold_schedule",
    "EdgeClassification",
    "classify",
    "CRUCIAL",
    "NONCRUCIAL",
    "IGNORED",
]

_SAMPLE_BLOCK = 8192
_LAMBDA_CAP = 10**6  # largest paper-scale lambda classify accepts

CRUCIAL = "crucial"
NONCRUCIAL = "noncrucial"
IGNORED = "ignored"


class QEstimate:
    """Monte Carlo estimate of per-edge matching probabilities.

    Counts are kept as integers so that sum(q_hat) == opt_hat holds exactly:
    each sample's matching contributes its edges to the counts and its size to
    the mu totals, which are the same numbers.
    """

    __slots__ = ("graph", "samples", "counts", "sum_mu", "sum_mu_sq")

    def __init__(self, graph, samples, counts, sum_mu, sum_mu_sq):
        counts = np.asarray(counts, dtype=np.int64)
        if int(counts.sum()) != int(sum_mu):
            raise AssertionError("edge hit counts must sum to the total matching mass")
        self.graph = graph
        self.samples = int(samples)
        self.counts = counts
        self.sum_mu = int(sum_mu)
        self.sum_mu_sq = int(sum_mu_sq)

    @property
    def q_hat(self) -> np.ndarray:
        return self.counts / self.samples

    @property
    def opt_hat(self) -> float:
        return self.sum_mu / self.samples

    @property
    def se_q(self) -> np.ndarray:
        q = self.q_hat
        return np.sqrt(q * (1.0 - q) / self.samples)

    @property
    def se_opt(self) -> float:
        mean = self.opt_hat
        var = self.sum_mu_sq / self.samples - mean * mean
        return math.sqrt(max(var, 0.0) / self.samples)


def estimate_q(g: StochasticGraph, samples: int, seed) -> QEstimate:
    """Estimate q_e and opt from ``samples`` independent realizations.

    Samples are drawn in fixed-size blocks keyed by block index, so sample i
    is addressable as (block i // B, row i % B) independent of the total.
    Only the rows used are drawn: the block's stream is counter-based and
    fills rows in order, so a draw of k rows is the first k rows of the full
    block.  On small graphs each distinct realization bitmask is matched
    once per graph, through the graph's ``mask_table``.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    stream = as_stream(seed, "qest")
    m = g.m
    counts = np.zeros(m, dtype=np.int64)
    sum_mu = 0
    sum_mu_sq = 0
    by_mask = g.mask_table is not None
    pow2 = (np.uint64(1) << np.arange(m, dtype=np.uint64)) if by_mask else None

    done = 0
    block_index = 0
    while done < samples:
        take = min(_SAMPLE_BLOCK, samples - done)
        present = stream.child("block", block_index).uniforms((take, m)) < g.ps
        # Python ints per block: one numpy update per block, not per matched edge.
        block_counts = [0] * m
        if by_mask:
            masks = (present.astype(np.uint64) * pow2).sum(axis=1, dtype=np.uint64)
            uniq, cnt = np.unique(masks, return_counts=True)
            for mask, c in zip(uniq.tolist(), cnt.tolist()):
                matched = matched_by_mask(g, mask)
                k = len(matched)
                sum_mu += k * c
                sum_mu_sq += k * k * c
                for e in matched:
                    block_counts[e] += c
        else:
            for row in present:
                matched = max_matching(g, Realization(g, row)).edges
                k = len(matched)
                sum_mu += k
                sum_mu_sq += k * k
                for e in matched:
                    block_counts[e] += 1
        counts += block_counts
        done += take
        block_index += 1
    return QEstimate(g, samples, counts, sum_mu, sum_mu_sq)


@dataclass
class ScheduleResult:
    tau_minus: float
    tau_plus: float
    j: int
    levels: tuple[float, ...]
    bucket_masses: tuple[float, ...]


def _level_iter(epsilon, p_min, f_shape, t0, gamma, levels):
    """Yield the strictly decreasing schedule t_0, t_1, ... forever."""
    if levels is not None:
        levels = [float(x) for x in levels]
        if len(levels) < 2 or any(b >= a for a, b in zip(levels, levels[1:])):
            raise ValueError("explicit schedule must be strictly decreasing with >= 2 levels")
        yield from levels
        # Continue geometrically with the last observed ratio.
        ratio = levels[-1] / levels[-2]
        t = levels[-1]
        while True:
            t *= ratio
            yield t
        return
    if f_shape == "geometric":
        t = 0.9 if t0 is None else float(t0)
        g = float(gamma)
        if not (0.0 < g < 1.0) or not (0.0 < t < 1.0):
            raise ValueError("geometric schedule needs t0 in (0,1) and gamma in (0,1)")
        while True:
            yield t
            t *= g
    elif f_shape == "paper":
        if p_min is None:
            raise ValueError("paper schedule needs p_min")
        t = (epsilon * p_min) ** 50 if t0 is None else float(t0)
        inv_eps20 = epsilon**-20
        while True:
            if t <= 0.0 or not math.isfinite(t):
                raise ParameterOverflowError(
                    f"paper-scale schedule underflowed double precision (next level {t!r}); "
                    f"t0=(eps*p)^50={(epsilon * p_min) ** 50!r}; use a desk-scale f_shape"
                )
            yield t
            gx = inv_eps20 * math.log2(1.0 / t)
            t = t ** (10.0 * gx)
    else:
        raise ValueError(f"unknown f_shape {f_shape!r}")


def threshold_schedule(
    q,
    opt: float,
    epsilon: float,
    p_min: float | None = None,
    *,
    f_shape: str = "geometric",
    t0: float | None = None,
    gamma: float = 0.3,
    levels=None,
) -> ScheduleResult:
    """Pick (tau_minus, tau_plus) = (t_j, t_{j-1}) at the first light bucket.

    Bucket i collects the q-mass in (t_i, t_{i-1}]; j is the smallest index
    whose bucket mass is at most epsilon * opt.  Because the buckets are
    disjoint sub-masses of opt, j <= ceil(1/epsilon) + 1 always.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    q = np.asarray(q, dtype=float)
    bound = math.ceil(1.0 / epsilon) + 1
    it = _level_iter(epsilon, p_min, f_shape, t0, gamma, levels)
    seen = [next(it)]
    masses = []
    target = epsilon * opt
    while True:
        t_prev = seen[-1]
        t_next = next(it)
        seen.append(t_next)
        mass = float(q[(q > t_next) & (q <= t_prev)].sum())
        masses.append(mass)
        j = len(masses)
        if mass <= target:
            assert j <= bound, f"schedule ran {j} buckets, above the ceil(1/eps)+1 = {bound} bound"
            return ScheduleResult(
                tau_minus=t_next,
                tau_plus=t_prev,
                j=j,
                levels=tuple(seen),
                bucket_masses=tuple(masses),
            )
        if j > bound:
            raise AssertionError(
                f"schedule failed to terminate within {bound} buckets; bucket masses {masses}"
            )


class EdgeClassification:
    """Edge labels plus the quantities the downstream construction needs."""

    def __init__(self, graph, q, tau_minus, tau_plus, epsilon, labels, c_v, n_v, lam, delta_C):
        self.graph = graph
        self.q = np.asarray(q, dtype=float)
        self.tau_minus = float(tau_minus)
        self.tau_plus = float(tau_plus)
        self.epsilon = float(epsilon)
        self.labels = tuple(labels)
        self.c_v = np.asarray(c_v, dtype=float)
        self.n_v = np.asarray(n_v, dtype=float)
        self.lam = float(lam)
        self.crucial_edges = tuple(e for e, lab in enumerate(labels) if lab == CRUCIAL)
        self.noncrucial_edges = tuple(e for e, lab in enumerate(labels) if lab == NONCRUCIAL)
        self.ignored_edges = tuple(e for e, lab in enumerate(labels) if lab == IGNORED)
        self.delta_C = int(delta_C)
        self._cadj = None
        self._dist = {}

    def crucial_adjacency(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Adjacency of the crucial graph: vertex -> ((neighbor, edge id), ...)."""
        if self._cadj is None:
            adj: dict[int, list[tuple[int, int]]] = {}
            for e in self.crucial_edges:
                u, v = self.graph.endpoints(e)
                adj.setdefault(u, []).append((v, e))
                adj.setdefault(v, []).append((u, e))
            self._cadj = {v: tuple(sorted(lst)) for v, lst in adj.items()}
        return self._cadj

    def crucial_distances(self, source: int) -> dict[int, int]:
        """BFS distances in the crucial graph; vertices absent are unreachable."""
        cached = self._dist.get(source)
        if cached is not None:
            return cached
        adj = self.crucial_adjacency()
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u, _e in adj.get(v, ()):
                    if u not in dist:
                        dist[u] = d
                        nxt.append(u)
            frontier = nxt
        self._dist[source] = dist
        return dist

    def d_C(self, u: int, v: int) -> float:
        """Distance in the crucial graph; infinity when disconnected."""
        dist = self.crucial_distances(u)
        return float(dist.get(v, math.inf))

    def far_noncrucial_edges(self) -> tuple[int, ...]:
        """Non-crucial edges whose endpoints are at crucial-distance >= lambda."""
        out = []
        for e in self.noncrucial_edges:
            u, v = self.graph.endpoints(e)
            if self.d_C(u, v) >= self.lam:
                out.append(e)
        return tuple(out)


def classify(
    g: StochasticGraph,
    q,
    tau_minus: float,
    tau_plus: float,
    epsilon: float,
    *,
    c_lambda: float = 2.0,
    lambda_mode: str = "desk",
) -> EdgeClassification:
    """Label edges crucial (q >= tau_plus) / non-crucial (q <= tau_minus) / ignored.

    The locality radius lambda defaults to c_lambda * log2(delta_C + 2); the
    paper-scale form epsilon^-20 * log2(delta_C) sits behind an overflow guard.
    """
    if not (tau_minus < tau_plus):
        raise ValueError(f"need tau_minus < tau_plus, got ({tau_minus}, {tau_plus})")
    q = np.asarray(q, dtype=float)
    if q.shape != (g.m,):
        raise ValueError("q must have one entry per edge")
    labels = []
    c_v = np.zeros(g.n)
    n_v = np.zeros(g.n)
    for e in range(g.m):
        u, v = g.endpoints(e)
        if q[e] >= tau_plus:
            labels.append(CRUCIAL)
            c_v[u] += q[e]
            c_v[v] += q[e]
        elif q[e] <= tau_minus:
            labels.append(NONCRUCIAL)
            n_v[u] += q[e]
            n_v[v] += q[e]
        else:
            labels.append(IGNORED)
    deg = g.degrees([e for e, lab in enumerate(labels) if lab == CRUCIAL])
    delta_c = int(deg.max()) if deg.size else 0
    if lambda_mode == "desk":
        lam = c_lambda * math.log2(delta_c + 2)
    elif lambda_mode == "paper":
        lam = epsilon**-20 * math.log2(max(delta_c, 2))
        if lam > _LAMBDA_CAP:
            raise ParameterOverflowError(
                f"paper-scale lambda = eps^-20 * log2(delta_C) = {lam:.3e} exceeds the "
                f"cap {_LAMBDA_CAP:.3e}; use desk mode"
            )
    else:
        raise ValueError(f"unknown lambda_mode {lambda_mode!r}")
    return EdgeClassification(
        g, q, tau_minus, tau_plus, epsilon, labels, c_v, n_v, lam, delta_c
    )
