"""Sparsifier construction, baseline, and evaluation-stream separation."""

import numpy as np
import pytest

from stochmatch.errors import ParameterOverflowError
from stochmatch.graph import StochasticGraph
from stochmatch.randomness import RandomStream
from stochmatch.sparsifier import (
    SubgraphQ,
    build_baseline_iterative,
    build_q,
    default_R,
    realize_and_match_q,
)

from helpers import clique_graph, path_graph, small_corpus


def test_t_sum_above_R_at_a_vertex_rejected():
    g = path_graph(2, 0.5)  # both edges meet at vertex 1
    with pytest.raises(AssertionError, match="t-sum exceeds R at some vertex"):
        SubgraphQ(g, 1, [1, 1], build_purpose="test")
    assert SubgraphQ(g, 2, [1, 1], build_purpose="test").member.all()
    assert SubgraphQ(g, 1, [1, 0], build_purpose="test").member.tolist() == [True, False]


def test_single_matching():
    g = clique_graph(6, 0.7)
    q = build_q(g, R=1, seed=0)
    assert q.max_member_degree() <= 1


def test_k4_deterministic_probability_one():
    g = clique_graph(4, 1.0)
    for R in (1, 3, 8):
        q = build_q(g, R=R, seed=5)
        members = q.member_edges()
        assert len(members) == 2
        for e in members:
            assert q.t[e] == R
        # The two member edges form a perfect matching.
        verts = set()
        for e in members:
            u, v = g.endpoints(e)
            verts.update((u, v))
        assert verts == {0, 1, 2, 3}


def test_single_edge_binomial_t():
    g = StochasticGraph(2, [(0, 1, 0.5)])
    R = 10
    seeds = 400
    total = 0
    for s in range(seeds):
        total += build_q(g, R=R, seed=s).t[0]
    freq = total / (seeds * R)
    tol = 3 * np.sqrt(0.25 / (seeds * R))
    assert abs(freq - 0.5) <= tol


def test_determinism_given_seed():
    g = clique_graph(8, 0.4)
    a = build_q(g, R=5, seed=42)
    b = build_q(g, R=5, seed=42)
    assert np.array_equal(a.t, b.t)
    c = build_q(g, R=5, seed=43)
    assert not np.array_equal(a.t, c.t)


def test_degree_bound_and_t_sums_on_corpus():
    for g in small_corpus(count=10, seed=3):
        for seed in range(5):
            q = build_q(g, R=4, seed=seed)
            assert q.max_member_degree() <= 4
            per_vertex = np.zeros(g.n, dtype=int)
            for e in q.member_edges():
                u, v = g.endpoints(e)
                per_vertex[u] += q.t[e]
                per_vertex[v] += q.t[e]
            assert per_vertex.max(initial=0) <= 4


def test_default_R():
    assert default_R(0.05) == 10
    assert default_R(0.5) == 1
    with pytest.raises(ParameterOverflowError, match="override"):
        default_R(1e-9, cap=10**6)


def test_default_R_overflow_names_the_real_overrides():
    with pytest.raises(ParameterOverflowError, match=r"certify --R, or the config key R") as info:
        default_R(1e-9, cap=10**6)
    assert "--R-override" not in str(info.value)


def test_baseline_path_exhausts():
    g = path_graph(5, 0.5)
    q = build_baseline_iterative(g, R=5)
    assert set(q.member_edges()) == set(range(g.m))
    assert q.t.max() == 1


def test_baseline_k4_single_round():
    g = clique_graph(4, 0.9)
    q = build_baseline_iterative(g, R=1)
    assert len(q.member_edges()) == 2


def test_baseline_four_cycle_two_rounds():
    g = StochasticGraph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.5)])
    q = build_baseline_iterative(g, R=2)
    assert set(q.member_edges()) == {0, 1, 2, 3}


def test_realize_and_match_q():
    g = clique_graph(4, 1.0)
    q = build_q(g, R=2, seed=1)
    real, value = realize_and_match_q(q, RandomStream(1, ("evaluate", 0)))
    assert value == 2
    assert set(real.edge_ids()) == set(q.member_edges())


def test_empty_q_evaluates_to_zero():
    g = StochasticGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    q = SubgraphQ(g, R=1, t=np.zeros(2, dtype=np.int64), build_purpose="sparsify")
    _, value = realize_and_match_q(q, RandomStream(0, ("evaluate",)))
    assert value == 0


def test_stream_purpose_collision_rejected():
    g = clique_graph(4, 0.5)
    q = build_q(g, R=2, seed=9)
    with pytest.raises(ValueError, match="key space"):
        realize_and_match_q(q, RandomStream(9, ("sparsify", 1)))


def test_single_member_edge_probability_one():
    g = StochasticGraph(2, [(0, 1, 1.0)])
    q = build_q(g, R=1, seed=0)
    _, value = realize_and_match_q(q, RandomStream(5, ("evaluate",)))
    assert value == 1
