"""q estimation, threshold schedule, and edge classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch.decomposition import (
    CRUCIAL,
    IGNORED,
    NONCRUCIAL,
    classify,
    estimate_q,
    threshold_schedule,
)
from stochmatch.errors import ParameterOverflowError
from stochmatch.graph import _MASK_LIMIT, Realization, StochasticGraph
from stochmatch.matching import max_matching
from stochmatch.oracle import exact_stats
from stochmatch.randomness import RandomStream

from helpers import clique_graph, path2, small_corpus


def test_estimate_single_edge():
    g = StochasticGraph(2, [(0, 1, 0.7)])
    est = estimate_q(g, samples=10_000, seed=0)
    tol = 3 * math.sqrt(0.7 * 0.3 / 10_000)
    assert abs(est.q_hat[0] - 0.7) <= tol


def test_estimate_deterministic_graph():
    g = clique_graph(4, 1.0)
    est = estimate_q(g, samples=500, seed=1)
    assert set(np.unique(est.q_hat)) <= {0.0, 1.0}
    assert est.opt_hat == 2.0
    assert est.se_opt == 0.0


def test_estimate_path2_vs_oracle():
    g = path2()
    stats = exact_stats(g)
    est = estimate_q(g, samples=100_000, seed=7)
    for e in range(g.m):
        tol = 3 * math.sqrt(stats.q[e] * (1 - stats.q[e]) / est.samples)
        assert abs(est.q_hat[e] - stats.q[e]) <= tol


def test_sum_q_hat_equals_opt_hat_exactly():
    for g in small_corpus(count=5, seed=21):
        est = estimate_q(g, samples=4000, seed=3)
        assert int(est.counts.sum()) == est.sum_mu


def test_estimate_reproducible():
    g = path2()
    a = estimate_q(g, samples=5000, seed=11)
    b = estimate_q(g, samples=5000, seed=11)
    assert np.array_equal(a.counts, b.counts)


# -- row-prefix draws and the per-graph mask table --------------------------------


def _graph_with_edges(m, n=16, seed=0):
    """Graph with exactly ``m`` edges on ``n`` vertices, p in [0.2, 0.8]."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = sorted(rng.choice(len(pairs), size=m, replace=False))
    return StochasticGraph(n, [(*pairs[i], float(rng.uniform(0.2, 0.8))) for i in picked])


def _estimate_q_full_blocks(g, samples, seed):
    """estimate_q before row-prefix draws: every 8192-row block drawn in full
    and sliced to the rows used, and each sampled realization matched."""
    stream = RandomStream(seed, ("qest",))
    counts = np.zeros(g.m, dtype=np.int64)
    sum_mu = sum_mu_sq = 0
    done = block = 0
    while done < samples:
        take = min(8192, samples - done)
        u = stream.child("block", block).uniforms((8192, g.m))[:take]
        for row in u < g.ps:
            matched = max_matching(g, Realization(g, row)).edges
            sum_mu += len(matched)
            sum_mu_sq += len(matched) ** 2
            for e in matched:
                counts[e] += 1
        done += take
        block += 1
    return counts, sum_mu, sum_mu_sq


@pytest.mark.parametrize("m", [14, _MASK_LIMIT + 1])
@pytest.mark.parametrize("samples", [50, 8192, 8193, 20_000])
def test_estimate_q_pinned_to_full_block_draws(samples, m):
    g = _graph_with_edges(m)
    counts, sum_mu, sum_mu_sq = _estimate_q_full_blocks(g, samples, seed=9)
    est = estimate_q(g, samples, seed=9)
    assert est.counts.tolist() == counts.tolist()
    assert (est.sum_mu, est.sum_mu_sq) == (sum_mu, sum_mu_sq)


def _assert_same_estimate(a, b):
    assert a.counts.tolist() == b.counts.tolist()
    assert (a.samples, a.sum_mu, a.sum_mu_sq) == (b.samples, b.sum_mu, b.sum_mu_sq)


def test_estimate_q_same_on_cold_and_warm_mask_table():
    g = _graph_with_edges(14, n=12)
    cold = estimate_q(g, 3000, seed=5)
    estimate_q(g, 3000, seed=6)
    _assert_same_estimate(estimate_q(g, 3000, seed=5), cold)
    exact_stats(g)  # every mask is in the table now
    assert len(g.mask_table) == 2**g.m
    _assert_same_estimate(estimate_q(g, 3000, seed=5), cold)


def test_oracle_after_estimate_q_equals_oracle_on_a_fresh_graph():
    g = _graph_with_edges(14, n=12)
    estimate_q(g, 2000, seed=0)
    assert 0 < len(g.mask_table) < 2**g.m
    warm = exact_stats(g)
    cold = exact_stats(StochasticGraph(g.n, g.edges))
    assert warm.opt == cold.opt
    assert warm.q.tobytes() == cold.q.tobytes()
    assert warm.matched_prob.tobytes() == cold.matched_prob.tobytes()


def test_mask_table_holds_only_the_masks_matched():
    g = _graph_with_edges(_MASK_LIMIT)
    assert g.mask_table == {}
    estimate_q(g, 300, seed=4)
    present = RandomStream(4, ("qest",)).child("block", 0).uniforms((300, g.m)) < g.ps
    sampled = {sum(1 << int(e) for e in np.flatnonzero(row)) for row in present}
    assert set(g.mask_table) == sampled
    for mask, matched in g.mask_table.items():
        ids = [e for e in range(g.m) if mask >> e & 1]
        assert matched == tuple(sorted(max_matching(g, ids).edges))


def test_no_mask_table_above_the_limit():
    g = _graph_with_edges(_MASK_LIMIT + 1)
    estimate_q(g, 20, seed=0)
    assert g.mask_table is None


def test_schedule_explicit_levels_example():
    # All edges share q = 0.5; bucket (0.01, 0.3] is empty so j = 2.
    q = [0.5, 0.5, 0.5]
    res = threshold_schedule(q, opt=1.5, epsilon=0.2, levels=[0.6, 0.3, 0.01])
    assert res.j == 2
    assert res.tau_plus == 0.3
    assert res.tau_minus == 0.01
    cls = classify(StochasticGraph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)]), q,
                   res.tau_minus, res.tau_plus, 0.2)
    assert all(lab == CRUCIAL for lab in cls.labels)


def test_schedule_explicit_levels_continue_at_the_last_ratio():
    # Levels 0.8, 0.4 run out while both buckets are heavy, so the schedule
    # goes on at the last ratio 0.5: 0.2, then 0.1, where the bucket is light.
    q = [0.5, 0.3, 0.15]
    res = threshold_schedule(q, opt=1.0, epsilon=0.2, levels=[0.8, 0.4])
    assert res.j == 3
    assert res.tau_plus == 0.4 * 0.5
    assert res.tau_minus == 0.4 * 0.5 * 0.5
    assert res.bucket_masses == pytest.approx((0.5, 0.3, 0.15))


def test_schedule_first_bucket_light():
    # Huge epsilon: even the first bucket qualifies.
    q = [0.05, 0.04]
    res = threshold_schedule(q, opt=0.09, epsilon=0.999, levels=[0.5, 0.2, 0.1])
    assert res.j == 1
    assert res.tau_plus == 0.5


def test_schedule_path2_worked_example():
    g = path2()
    stats = exact_stats(g)
    res = threshold_schedule(stats.q, stats.opt, epsilon=0.1,
                             levels=[0.6, 0.3, 0.1, 0.01])
    assert res.j == 3
    assert res.tau_plus == pytest.approx(0.1)
    assert res.tau_minus == pytest.approx(0.01)
    # Ignored mass is bounded by the chosen bucket's mass.
    ignored = stats.q[(stats.q > res.tau_minus) & (stats.q < res.tau_plus)].sum()
    assert ignored <= 0.1 * stats.opt + 1e-12


def test_schedule_termination_bound_on_corpus():
    for g in small_corpus(count=15, seed=31):
        stats = exact_stats(g)
        for eps in (0.15, 0.3, 0.5):
            res = threshold_schedule(stats.q, stats.opt, epsilon=eps)
            assert res.j <= math.ceil(1 / eps) + 1
            # Coverage: crucial + noncrucial mass >= (1 - eps) opt.
            covered = stats.q[(stats.q >= res.tau_plus) | (stats.q <= res.tau_minus)].sum()
            assert covered >= (1 - eps) * stats.opt - 1e-9


def test_schedule_paper_shape_underflow_guard():
    q = [0.3, 0.2]
    with pytest.raises(ParameterOverflowError, match="underflow"):
        threshold_schedule(q, opt=0.5, epsilon=0.1, p_min=0.5, f_shape="paper")


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        threshold_schedule([0.5], opt=0.5, epsilon=1.5)
    with pytest.raises(ValueError):
        threshold_schedule([0.5], opt=0.5, epsilon=0.3, levels=[0.5])
    with pytest.raises(ValueError):
        threshold_schedule([0.5], opt=0.5, epsilon=0.3, levels=[0.2, 0.4])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=40),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_schedule_bound_property(qs, eps):
    opt = sum(qs)
    res = threshold_schedule(qs, opt, epsilon=eps)
    assert res.j <= math.ceil(1 / eps) + 1
    assert 0 < res.tau_minus < res.tau_plus


def test_classify_empty_crucial():
    g = path2()
    cls = classify(g, [0.01, 0.02], tau_minus=0.1, tau_plus=0.5, epsilon=0.3)
    assert cls.delta_C == 0
    assert np.all(cls.c_v == 0)
    assert cls.crucial_edges == ()


def test_classify_star_degree_bound():
    k = 4
    g = StochasticGraph(k + 1, [(0, i, 1.0) for i in range(1, k + 1)])
    stats = exact_stats(g)
    # Exactly one incident edge is ever matched, the canonical one.
    cls = classify(g, stats.q, tau_minus=0.001, tau_plus=0.5, epsilon=0.3)
    assert cls.delta_C <= 1 / 0.5


def test_classify_matches_oracle_split():
    g = path2()
    stats = exact_stats(g)
    cls = classify(g, stats.q, tau_minus=0.3, tau_plus=0.4, epsilon=0.3)
    # Exact q = (0.5, 0.25) on the path 0-1-2, split by hand.
    assert cls.crucial_edges == (0,)
    assert cls.noncrucial_edges == (1,)
    assert np.allclose(cls.c_v, [0.5, 0.5, 0.0])
    assert np.allclose(cls.n_v, [0.0, 0.25, 0.25])


def test_classify_tie_conventions():
    g = path2()
    cls = classify(g, [0.4, 0.3], tau_minus=0.3, tau_plus=0.4, epsilon=0.3)
    # Closed conventions: q == tau_plus is crucial, q == tau_minus non-crucial.
    assert cls.labels == (CRUCIAL, NONCRUCIAL)


def test_classify_delta_c_times_tau_plus_below_one_with_exact_q():
    for g in small_corpus(count=10, seed=41):
        stats = exact_stats(g)
        res = threshold_schedule(stats.q, stats.opt, epsilon=0.3)
        cls = classify(g, stats.q, res.tau_minus, res.tau_plus, 0.3)
        if cls.delta_C:
            assert cls.delta_C * res.tau_plus <= 1.0 + 1e-9


def test_distances_and_lambda():
    g = StochasticGraph(6, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9), (4, 5, 0.9)])
    cls = classify(g, [0.9, 0.9, 0.9, 0.9], tau_minus=0.05, tau_plus=0.5, epsilon=0.3)
    assert cls.d_C(0, 3) == 3
    assert cls.d_C(0, 4) == math.inf
    assert cls.lam == pytest.approx(2 * math.log2(cls.delta_C + 2))


def test_classify_refuses_a_non_positive_c_lambda():
    g = path2()
    for c_lambda in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"c_lambda must be positive, got {c_lambda}"):
            classify(g, [0.5, 0.5], 0.1, 0.4, epsilon=0.3, c_lambda=c_lambda)
    # Paper mode takes lambda from epsilon alone.
    cls = classify(g, [0.5, 0.5], 0.1, 0.4, epsilon=0.9, c_lambda=-1.0, lambda_mode="paper")
    assert cls.lam == pytest.approx(0.9**-20)


def test_paper_lambda_guard():
    g = path2()
    with pytest.raises(ParameterOverflowError):
        classify(g, [0.5, 0.5], 0.1, 0.4, epsilon=0.1, lambda_mode="paper")
