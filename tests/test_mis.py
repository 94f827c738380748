"""Round-limited randomized independent set."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch.mis import (
    apx_mis,
    luby_rounds,
    mis_round_budget,
)

from helpers import greedy_complete, reference_luby_rounds


def _star_adj(leaves):
    adj = [set(range(1, leaves + 1))]
    adj.extend({0} for _ in range(leaves))
    return adj


def _random_adj(n, degree_target, seed):
    rng = np.random.default_rng(seed)
    adj = [set() for _ in range(n)]
    p = degree_target / n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def test_edgeless_takes_everything():
    adj = [set() for _ in range(6)]
    res = apx_mis(adj, epsilon=0.1, seed=0)
    assert res.in_set == tuple(range(6))
    assert res.undecided == ()


def test_single_edge():
    adj = [{1}, {0}]
    res = apx_mis(adj, epsilon=0.1, seed=3)
    assert len(res.in_set) == 1
    assert greedy_complete(adj, res) == res.in_set


def test_always_independent_many_seeds():
    adj = _random_adj(40, 6, seed=2)
    for seed in range(50):
        res = apx_mis(adj, epsilon=0.2, seed=seed)
        picked = set(res.in_set)
        for v in picked:
            assert not (adj[v] & picked)


def test_star_beats_one_minus_eps_of_maximal():
    adj = _star_adj(20)
    eps = 0.1
    sizes, maximal_sizes = [], []
    for seed in range(1000):
        res = apx_mis(adj, epsilon=eps, seed=seed)
        sizes.append(len(res.in_set))
        maximal_sizes.append(len(greedy_complete(adj, res)))
    mean_i = np.mean(sizes)
    mean_max = np.mean(maximal_sizes)
    se = 3 * (np.std(sizes) + np.std(maximal_sizes)) / np.sqrt(len(sizes))
    assert mean_i >= (1 - eps) * mean_max - se


def test_random_graph_beats_one_minus_eps():
    adj = _random_adj(60, 8, seed=5)
    eps = 0.15
    sizes, maximal_sizes = [], []
    for seed in range(300):
        res = apx_mis(adj, epsilon=eps, seed=seed)
        sizes.append(len(res.in_set))
        maximal_sizes.append(len(greedy_complete(adj, res)))
    se = 3 * (np.std(sizes) + np.std(maximal_sizes)) / np.sqrt(len(sizes))
    assert np.mean(sizes) >= (1 - eps) * np.mean(maximal_sizes) - se


def test_round_budget_independent_of_n():
    assert mis_round_budget(10, 0.1) == mis_round_budget(10, 0.1)
    assert mis_round_budget(4, 0.2) >= 1
    # Budget grows with degree, not with graph size.
    assert mis_round_budget(64, 0.1) > mis_round_budget(4, 0.1)


def test_deterministic_given_seed():
    adj = _random_adj(30, 5, seed=9)
    a = apx_mis(adj, epsilon=0.2, seed=123)
    b = apx_mis(adj, epsilon=0.2, seed=123)
    assert a.in_set == b.in_set


def _shared_member_adjacency(members):
    """Explicit conflict graph of member collections, built like
    ``build_conflict_graph``: neighbours share a member."""
    by_member = {}
    for i, mems in enumerate(members):
        for m in mems:
            by_member.setdefault(m, set()).add(i)
    adj = []
    for i, mems in enumerate(members):
        nbrs = set().union(*(by_member[m] for m in mems))
        nbrs.discard(i)
        adj.append(nbrs)
    return adj


@settings(max_examples=300, deadline=None)
@given(
    members=st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=14),
    levels=st.integers(1, 4),
    rounds=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_luby_rounds_equals_the_neighbour_rule(members, levels, rounds, seed):
    # Priorities take only ``levels`` values, so ties are common; budgets of
    # 1-3 rounds leave nodes undecided.
    rng = np.random.default_rng(seed)
    table = rng.integers(0, levels, size=(rounds, len(members)))

    def priority(r, v):
        return int(table[r, v])

    adj = _shared_member_adjacency(members)
    batched = luby_rounds(members, rounds, lambda r, vs: [priority(r, v) for v in vs])
    assert batched == reference_luby_rounds(adj, rounds, priority)


def test_luby_rounds_tie_at_a_shared_member_blocks_both():
    # Nodes 0 and 1 tie at member "a"; node 2 is alone.  Neither tied node
    # may join, however often the round repeats.
    members = [("a",), ("a", "b"), ("c",)]
    res = luby_rounds(members, 2, lambda r, vs: [0.0 if v < 2 else 0.5 for v in vs])
    assert res == reference_luby_rounds(_shared_member_adjacency(members), 2,
                                        lambda r, v: 0.0 if v < 2 else 0.5)
    assert res.in_set == (2,) and res.undecided == (0, 1) and res.rounds == 2


def test_luby_rounds_repeated_member_is_one_member():
    # A node listing a member twice still joins as the strict minimum there.
    res = luby_rounds([(1, 1, 2), (2, 3)], 1, lambda r, vs: [[0.1, 0.2][v] for v in vs])
    assert res.in_set == (0,) and res.undecided == ()


def test_apx_mis_rejects_asymmetric_or_looped_adjacency():
    with pytest.raises(ValueError, match="symmetric"):
        apx_mis([{1}, set()], epsilon=0.2, seed=0)
    with pytest.raises(ValueError, match="own neighbour"):
        apx_mis([{0, 1}, {0}], epsilon=0.2, seed=0)
    with pytest.raises(ValueError, match="node 0 has neighbour 5 outside 0..0"):
        apx_mis([{5}], epsilon=0.2, seed=0)
    with pytest.raises(ValueError, match="node 0 has neighbour -1 outside 0..0"):
        apx_mis([{-1}], epsilon=0.2, seed=0)


def test_apx_mis_results_pinned():
    # sha256 of (in_set, undecided, rounds) on criterion 13's graphs for 20
    # seeds, recorded with the neighbour-list rounds: a change of the rule,
    # the round budget or the priorities moves it.
    cases = {
        "star20": (_star_adj(20),
                   "71c2557569ffcf8df8138d72922355f03e35dc2020584e14943b54490faca0a8"),
        "star32": (_star_adj(32),
                   "d2c85bdcf38d60e7259c3c2e31ac18a39615c3fde96b6d110d749e7eb7eb3a8b"),
        "random60": (_random_adj(60, 10, seed=4),
                     "21fddeb1147c036b3b33896acbf113f0cefd39d54d10a51718dff1d0266ddd46"),
        "random80": (_random_adj(80, 16, seed=9),
                     "74d5b0c18f16a1cae929e70cceaf65c2b7ec711518210ce0cc315dca6c1cad99"),
    }
    for name, (adj, digest) in cases.items():
        h = hashlib.sha256()
        for seed in range(20):
            res = apx_mis(adj, epsilon=0.1, seed=seed)
            h.update(repr((res.in_set, res.undecided, res.rounds)).encode())
            h.update(b"\n")
        assert h.hexdigest() == digest, name


def test_luby_rounds_refuses_a_priority_list_of_the_wrong_length():
    with pytest.raises(ValueError, match="round 0: 1 priorities for 2 nodes"):
        luby_rounds([(0,), (1,)], 1, lambda r, vs: [0.5])
