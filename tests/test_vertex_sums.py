"""Differential tests of the shared per-vertex and standard-error rules
against the hand loops and scalar formulas they replaced, and the shared
epsilon rule at every entry point that checks it."""

import math
import re

import numpy as np
import pytest

from stochmatch.certificate import compute_f
from stochmatch.decomposition import classify, threshold_schedule
from stochmatch.harness import ExperimentConfig
from stochmatch.mis import mis_round_budget
from stochmatch.reduction import contract
from stochmatch.sparsifier import build_q
from stochmatch.stats import binomial_se, check_epsilon
from stochmatch.vim import VimParams

from helpers import path_graph, small_corpus


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
            f = compute_f(q, cls)
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


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_each_epsilon_check_refuses_values_outside_zero_one(epsilon):
    g = path_graph(2)
    checks = [
        lambda: check_epsilon(epsilon),
        lambda: VimParams(epsilon=epsilon),
        lambda: ExperimentConfig(epsilon=epsilon),
        lambda: mis_round_budget(3, epsilon),
        lambda: threshold_schedule([0.5, 0.5], 1.0, epsilon),
        lambda: classify(g, [0.5, 0.5], tau_minus=0.4, tau_plus=0.6, epsilon=epsilon),
        lambda: contract(g, epsilon, 1.0, 0),
    ]
    message = re.escape(f"epsilon must be in (0, 1), got {epsilon}")
    for check in checks:
        with pytest.raises(ValueError, match=message):
            check()


def test_check_epsilon_accepts_the_open_interval():
    for epsilon in (1e-12, 0.3, 1.0 - 1e-12):
        assert check_epsilon(epsilon) is None
