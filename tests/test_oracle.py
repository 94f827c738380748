"""Exact enumeration oracle against hand computations and brute force."""

import numpy as np
import pytest

from stochmatch.decomposition import classify, estimate_q
from stochmatch.errors import InstanceTooLargeError
from stochmatch.generators import erdos_renyi
from stochmatch.graph import StochasticGraph
from stochmatch.oracle import exact_stats

from helpers import (
    brute_force_opt,
    clique_graph,
    path2,
    reference_exact_stats,
    small_corpus,
    two_single_edges,
)


def test_single_edge():
    g = StochasticGraph(2, [(0, 1, 0.7)])
    s = exact_stats(g)
    assert s.opt == pytest.approx(0.7, abs=1e-12)
    assert s.q[0] == pytest.approx(0.7, abs=1e-12)
    assert s.matched_prob[0] == pytest.approx(0.7, abs=1e-12)


def test_path2_hand_values():
    # Four realizations: both (0.25, mu=1 via edge 0), only e0 (0.25),
    # only e1 (0.25), none (0.25).
    s = exact_stats(path2())
    assert s.opt == pytest.approx(0.75, abs=1e-12)
    assert s.q[0] == pytest.approx(0.5, abs=1e-12)
    assert s.q[1] == pytest.approx(0.25, abs=1e-12)
    assert s.q.sum() == pytest.approx(s.opt, abs=1e-12)


def test_sum_q_equals_opt_on_corpus():
    for g in small_corpus(count=12, seed=5, max_edges=10):
        s = exact_stats(g)
        assert s.q.sum() == pytest.approx(s.opt, abs=1e-11)
        for v in range(g.n):
            assert s.matched_prob[v] <= 1.0 + 1e-11
        # matched probability is the sum of incident q by construction; check
        # against an independent accumulation.
        acc = np.zeros(g.n)
        for e in range(g.m):
            u, v = g.endpoints(e)
            acc[u] += s.q[e]
            acc[v] += s.q[e]
        assert np.allclose(acc, s.matched_prob, atol=0)


def test_opt_against_independent_brute_force():
    for g in small_corpus(count=8, seed=9, max_edges=9):
        s = exact_stats(g)
        assert s.opt == pytest.approx(brute_force_opt(g), abs=1e-10)


def test_cap_enforced():
    g = StochasticGraph(30, [(i, i + 1, 0.5) for i in range(25)])
    with pytest.raises(InstanceTooLargeError):
        exact_stats(g)
    # Override works.
    exact_stats(StochasticGraph(4, [(0, 1, 0.5)] ), cap=5)


def test_crucial_split_path2():
    g = path2()
    split = classify(g, exact_stats(g).q, tau_minus=0.3, tau_plus=0.4, epsilon=0.3)
    assert split.crucial_edges == (0,)
    assert split.noncrucial_edges == (1,)
    assert split.ignored_edges == ()
    assert split.c_v[1] == pytest.approx(0.5, abs=1e-12)
    assert split.n_v[1] == pytest.approx(0.25, abs=1e-12)


def test_crucial_split_ignored_band():
    g = path2()
    split = classify(g, exact_stats(g).q, tau_minus=0.1, tau_plus=0.6, epsilon=0.3)
    # q = (0.5, 0.25): both fall strictly inside (0.1, 0.6).
    assert split.crucial_edges == ()
    assert split.ignored_edges == (0, 1)


def test_crucial_split_all_crucial():
    g = two_single_edges(0.9)
    split = classify(g, exact_stats(g).q, tau_minus=0.05, tau_plus=0.5, epsilon=0.3)
    assert split.noncrucial_edges == ()
    assert np.all(split.n_v == 0)


def test_split_threshold_validation():
    g = path2()
    with pytest.raises(ValueError):
        classify(g, exact_stats(g).q, tau_minus=0.5, tau_plus=0.3, epsilon=0.3)


def test_mass_conservation_per_vertex():
    for g in small_corpus(count=6, seed=13, max_edges=8):
        s = exact_stats(g)
        split = classify(g, s.q, tau_minus=0.15, tau_plus=0.35, epsilon=0.3)
        ignored_v = np.zeros(g.n)
        for e in split.ignored_edges:
            u, v = g.endpoints(e)
            ignored_v[u] += s.q[e]
            ignored_v[v] += s.q[e]
        total = split.c_v + split.n_v + ignored_v
        assert np.allclose(total, s.matched_prob, atol=1e-11)
        assert np.all(total <= 1.0 + 1e-11)


def _assert_bits_equal(stats, ref):
    opt, q, matched_prob = ref
    assert stats.opt == opt
    assert stats.q.tobytes() == q.tobytes()
    assert stats.matched_prob.tobytes() == matched_prob.tobytes()


def test_exact_stats_bits_equal_the_numpy_element_reference():
    for g in (StochasticGraph(4, []), StochasticGraph(3, [(0, 1, 0.5), (1, 2, 0.5)]),
              clique_graph(5)):  # edgeless, path3, every p = 1
        _assert_bits_equal(exact_stats(g), reference_exact_stats(g))
    g = erdos_renyi(12, 0.12, (0.3, 0.9), seed=2)
    ref = reference_exact_stats(g)
    _assert_bits_equal(exact_stats(g), ref)
    warm = StochasticGraph(g.n, g.edges)
    estimate_q(warm, 2000, seed=0)
    assert 0 < len(warm.mask_table) < 2**warm.m
    _assert_bits_equal(exact_stats(warm), ref)
