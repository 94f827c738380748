"""Fractional-matching certificate around the crucial matching.

Crucial edges carry value 1 exactly when they are in both the constructed
matching and the sparsifier.  A non-crucial edge carries f_e divided by the
probability that it is usable: realized, with both endpoints unmatched, which
requires the endpoints to be far apart in the crucial graph so those events
are independent.  ``compute_f`` returns f as one array over the edges:
f_e = t_e / R, the edge's matching multiplicity in the sparsifier over R, on
non-crucial edges at or below the 1/sqrt(eps R) cap, and 0 elsewhere.  The
scaled assignment y zeroes out vertices whose sum overshoots 1 + epsilon,
making it a valid fractional matching per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decomposition import EdgeClassification
from .errors import DivisionGuardError, SubsetCapError
from .graph import Realization, StochasticGraph
from .sparsifier import SubgraphQ
from .stats import check_epsilon

__all__ = [
    "FractionalAssignment",
    "compute_f",
    "build_x",
    "build_y",
    "BlossomReport",
    "check_blossom",
    "CertificateRun",
    "CertificateSizeReport",
    "certificate_size_report",
    "FPropertyReport",
    "test_f_properties",
]

# build_x refuses vertices whose estimated unmatched probability is at most
# this, since it divides by that probability.
_PROB_FLOOR = 1e-6
# check_blossom raises past this many connected subsets instead of grinding.
_SUBSET_CAP = 500_000


def compute_f(q: SubgraphQ, classification: EdgeClassification, epsilon: float) -> np.ndarray:
    """Per-edge f: t_e / R on non-crucial edges whose ratio is positive and at
    most the 1/sqrt(eps R) cap, and 0 on every other edge."""
    check_epsilon(epsilon)
    cap = 1.0 / math.sqrt(epsilon * q.R)
    f = np.zeros(q.parent.m)
    edges = np.asarray(classification.noncrucial_edges, dtype=np.int64)
    ratio = q.t[edges] / q.R
    f[edges] = np.where((ratio > 0) & (ratio <= cap), ratio, 0.0)
    return f


class FractionalAssignment:
    """Nonnegative per-edge values with cached per-vertex sums."""

    __slots__ = ("graph", "values", "x_v")

    def __init__(self, graph: StochasticGraph, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (graph.m,):
            raise ValueError("one value per edge required")
        if values.size and values.min() < 0:
            raise ValueError("assignment values must be nonnegative")
        self.graph = graph
        self.values = values
        self.x_v = graph.vertex_sums(values)

    @property
    def size(self) -> float:
        return float(self.values.sum())

    def support(self) -> list[int]:
        return [int(e) for e in np.flatnonzero(self.values)]


def build_x(
    q: SubgraphQ,
    z_edges,
    realization: Realization,
    classification: EdgeClassification,
    f: np.ndarray,
    x_probs,
) -> FractionalAssignment:
    """Assemble the expected fractional matching for one run.

    ``z_edges`` is the crucial matching (edge ids), ``realization`` the
    realization of the whole graph, ``f`` the per-edge array of
    ``compute_f``, ``x_probs`` the per-vertex estimates of
    Pr[v is matched in the crucial matching].
    """
    g = q.parent
    z_edges = frozenset(int(e) for e in z_edges)
    x_probs = np.asarray(x_probs, dtype=float)
    values = np.zeros(g.m)
    z_vertices = set()
    for e in z_edges:
        u, v = g.endpoints(e)
        z_vertices.update((u, v))

    far = classification.far_noncrucial_edges()
    needed = set()
    for e in far:
        u, v = g.endpoints(e)
        needed.update((u, v))
    bad = [v for v in sorted(needed) if 1.0 - x_probs[v] <= _PROB_FLOOR]
    if bad:
        raise DivisionGuardError(
            f"matched-probability estimates at vertices {bad} leave no usable "
            f"(1 - Pr) mass above the floor {_PROB_FLOOR}"
        )

    for e in classification.crucial_edges:
        if e in z_edges and q.member[e]:
            values[e] = 1.0
    for e in far:
        if f[e] <= 0.0 or not realization.present[e]:
            continue
        u, v = g.endpoints(e)
        if u in z_vertices or v in z_vertices:
            continue
        values[e] = f[e] / (g.ps[e] * (1.0 - x_probs[u]) * (1.0 - x_probs[v]))
    return FractionalAssignment(g, values)


def build_y(x: FractionalAssignment, epsilon: float) -> FractionalAssignment:
    """Scale by 1 + epsilon and zero out edges at vertices that overshoot."""
    g = x.graph
    limit = 1.0 + epsilon
    values = np.zeros(g.m)
    for e in x.support():
        u, v = g.endpoints(e)
        if x.x_v[u] <= limit and x.x_v[v] <= limit:
            values[e] = x.values[e] / limit
    return FractionalAssignment(g, values)


@dataclass
class BlossomReport:
    max_size: int
    subsets_checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _connected_subsets(adj: dict[int, set[int]], nodes, max_size: int, cap: int):
    """Connected vertex subsets of size <= max_size, each exactly once."""
    count = 0
    for root in sorted(nodes):
        allowed = lambda w: w > root  # noqa: E731 - subsets keyed by their minimum
        base_ext = sorted(w for w in adj.get(root, ()) if allowed(w))

        def rec(current: set[int], ext: list[int], forbidden: set[int]):
            nonlocal count
            count += 1
            if count > cap:
                raise SubsetCapError(
                    f"more than {cap} connected subsets at max_size={max_size}"
                )
            yield frozenset(current)
            if len(current) == max_size:
                return
            for i, u in enumerate(ext):
                new_forbidden = forbidden | set(ext[:i])
                grow = [
                    w
                    for w in adj.get(u, ())
                    if allowed(w) and w not in current and w not in new_forbidden
                    and w not in ext[i + 1:] and w != u
                ]
                current.add(u)
                yield from rec(current, ext[i + 1:] + sorted(grow), new_forbidden)
                current.remove(u)

        yield from rec({root}, base_ext, set())


def check_blossom(assignment: FractionalAssignment, max_size: int,
                  *, tol: float = 1e-9) -> BlossomReport:
    """Verify value(U) <= floor(|U| / 2) for connected support subsets.

    A disconnected violating set would contain a violating connected part, so
    connected subsets suffice.  Guarded: max_size above 9 or too many subsets
    raises rather than grinding.
    """
    if max_size > 9:
        raise SubsetCapError(f"max_size {max_size} above the enumeration guard of 9")
    g = assignment.graph
    support = assignment.support()
    adj: dict[int, set[int]] = {}
    edges_by_pair = []
    for e in support:
        u, v = g.endpoints(e)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        edges_by_pair.append((u, v, assignment.values[e]))
    report = BlossomReport(max_size=max_size, subsets_checked=0)
    if not adj:
        return report
    for subset in _connected_subsets(adj, adj.keys(), max_size, _SUBSET_CAP):
        report.subsets_checked += 1
        if len(subset) < 2:
            continue
        inside = sum(val for u, v, val in edges_by_pair if u in subset and v in subset)
        bound = len(subset) // 2
        if inside > bound + tol:
            report.violations.append((tuple(sorted(subset)), inside, bound))
    return report


@dataclass
class CertificateRun:
    """Per-run sizes and validity flags of the certificate pipeline."""

    x_size: float
    y_size: float
    mu_q: int
    x_crucial: float
    z_size: int
    x_v: np.ndarray
    y_valid: bool
    blossom_ok: bool
    edmonds_ok: bool


@dataclass
class CertificateSizeReport:
    runs: int
    mean_x: float
    se_x: float
    mean_y: float
    se_y: float
    mean_mu_q: float
    se_mu_q: float
    mean_x_crucial: float
    mean_z: float
    edmonds_fraction: float
    y_valid_all: bool
    blossom_ok_all: bool
    mean_x_v: np.ndarray
    # Per-vertex tail Pr[x_v > 1 + eps] next to its paper-scale bound eps^6 p;
    # reported side by side, never asserted (the bound needs paper-scale R).
    x_v_tail: np.ndarray = None
    x_v_tail_bound: float = 0.0


def certificate_size_report(runs: list[CertificateRun], epsilon: float,
                            p_min: float) -> CertificateSizeReport:
    """Aggregate a batch of pipeline runs into means with standard errors."""
    if len(runs) < 1:
        raise ValueError("need at least one run")
    n = len(runs)
    xs = np.array([r.x_size for r in runs])
    ys = np.array([r.y_size for r in runs])
    mus = np.array([r.mu_q for r in runs], dtype=float)
    xcs = np.array([r.x_crucial for r in runs])
    zs = np.array([r.z_size for r in runs], dtype=float)
    x_v = np.mean([r.x_v for r in runs], axis=0)
    x_v_tail = np.mean([r.x_v > 1.0 + epsilon for r in runs], axis=0)
    return CertificateSizeReport(
        runs=n,
        mean_x=float(xs.mean()),
        se_x=float(xs.std() / math.sqrt(n)),
        mean_y=float(ys.mean()),
        se_y=float(ys.std() / math.sqrt(n)),
        mean_mu_q=float(mus.mean()),
        se_mu_q=float(mus.std() / math.sqrt(n)),
        mean_x_crucial=float(xcs.mean()),
        mean_z=float(zs.mean()),
        edmonds_fraction=float(np.mean([r.edmonds_ok for r in runs])),
        y_valid_all=all(r.y_valid for r in runs),
        blossom_ok_all=all(r.blossom_ok for r in runs),
        mean_x_v=x_v,
        x_v_tail=x_v_tail,
        x_v_tail_bound=epsilon**6 * p_min,
    )


@dataclass
class FPropertyReport:
    """Checks of the f quantities against reference matching probabilities."""

    per_edge: list  # (edge, mean_f, lower, upper, ok)
    vertex_sum_ok: bool

    @property
    def edges_ok(self) -> bool:
        return all(entry[-1] for entry in self.per_edge)


def test_f_properties(
    g: StochasticGraph,
    classification: EdgeClassification,
    epsilon: float,
    batch: list[SubgraphQ],
    *,
    q_se=None,
) -> FPropertyReport:
    """Check the f bounds over a batch of sparsifier builds.

    Per-edge: mean f within [(1 - eps) q - 3 sigma, q + 3 sigma].  Per run and
    vertex: the f sum is at most 1, up to float rounding.
    """
    if not batch:
        raise ValueError("need at least one sparsifier build")
    n_runs = len(batch)
    q_ref = classification.q
    q_se = np.zeros(g.m) if q_se is None else np.asarray(q_se, dtype=float)
    fvals = [compute_f(qq, classification, epsilon) for qq in batch]

    per_edge = []
    for e in classification.noncrucial_edges:
        samples = np.array([fv[e] for fv in fvals])
        mean_f = float(samples.mean())
        se = float(samples.std() / math.sqrt(n_runs))
        lower = (1.0 - epsilon) * q_ref[e] - 3.0 * (se + q_se[e])
        upper = q_ref[e] + 3.0 * (se + q_se[e])
        per_edge.append((e, mean_f, lower, upper, bool(lower <= mean_f <= upper)))

    vertex_sum_ok = all(np.all(g.vertex_sums(fv) <= 1.0 + 1e-12) for fv in fvals)
    return FPropertyReport(per_edge=per_edge, vertex_sum_ok=vertex_sum_ok)
