"""Differential tests of the shared per-vertex and standard-error rules
against the hand loops and scalar formulas they replaced."""

import math

import numpy as np

from stochmatch.certificate import compute_f
from stochmatch.decomposition import classify
from stochmatch.sparsifier import build_q
from stochmatch.stats import binomial_se

from helpers import small_corpus


def _loop_vertex_sums(g, values, dtype):
    out = np.zeros(g.n, dtype=dtype)
    for e in range(g.m):
        u, v = g.endpoints(e)
        out[u] += values[e]
        out[v] += values[e]
    return out


def _loop_f(q, classification, epsilon):
    cap = 1.0 / math.sqrt(epsilon * q.R)
    f = np.zeros(q.parent.m)
    noncrucial = set(classification.noncrucial_edges)
    for e in range(q.parent.m):
        if e in noncrucial and q.t[e] > 0:
            ratio = q.t[e] / q.R
            if ratio <= cap:
                f[e] = ratio
    return f


def test_vertex_sums_equal_the_edge_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    for g in small_corpus(count=200, seed=11, max_edges=12):
        weights = rng.random(g.m) * 10.0 ** rng.integers(-3, 4, g.m)
        weights[rng.random(g.m) < 0.3] = 0.0
        sums = g.vertex_sums(weights)
        assert sums.dtype == np.float64
        assert np.array_equal(sums, _loop_vertex_sums(g, weights, np.float64))
        t = rng.integers(0, 6, g.m)
        assert np.array_equal(g.vertex_sums(t), _loop_vertex_sums(g, t, np.int64))


def test_compute_f_equals_the_edge_loop():
    rng = np.random.default_rng(3)
    capped = 0
    for g in small_corpus(count=40, seed=5, max_edges=10):
        # Random labels, so that edges matched often can be non-crucial.
        cls = classify(g, rng.random(g.m), tau_minus=0.5, tau_plus=0.8, epsilon=0.25)
        for R, seed in ((1, 0), (6, 1), (6, 2), (40, 3)):
            q = build_q(g, R=R, seed=seed)
            f = compute_f(q, cls, 0.25)
            assert np.array_equal(f, _loop_f(q, cls, 0.25))
            capped += sum(1 for e in cls.noncrucial_edges if q.t[e] > 0 and f[e] == 0.0)
    assert capped > 0  # the cap branch ran


def test_binomial_se_on_arrays_equals_the_scalar_formula():
    rng = np.random.default_rng(9)
    p = np.concatenate(([0.0, 1.0, 0.5], rng.random(500), rng.integers(0, 301, 200) / 300))
    for n in (1, 7, 300, 20_000):
        scalar = [math.sqrt(max(x * (1.0 - x), 0.0) / n) for x in p.tolist()]
        assert np.array_equal(binomial_se(p, n), scalar)
        assert all(binomial_se(x, n) == s for x, s in zip(p.tolist(), scalar))
