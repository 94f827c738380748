"""Maximum-matching engine: correctness and the determinism contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch.generators import erdos_renyi
from stochmatch.graph import Realization, StochasticGraph, sample_realization
from stochmatch.matching import max_matching, mu
from stochmatch.randomness import RandomStream

from helpers import (
    all_matchings_max_size,
    brute_force_mu,
    clique_graph,
    path2,
    path_graph,
    petersen,
    random_small_graph,
    reference_max_matching,
    small_corpus,
)


def test_two_incident_edges():
    g = path2()
    assert mu(g) == 1


def test_four_cycle_perfect():
    g = StochasticGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    assert mu(g) == 2


def test_petersen_brute_force():
    g = petersen()
    pairs = [(u, v) for u, v, _ in g.edges]
    assert all_matchings_max_size(10, pairs) == 5
    assert mu(g) == 5


def test_empty_edge_set():
    g = path2()
    m = max_matching(g, [])
    assert len(m) == 0


def test_triangle():
    g = StochasticGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert mu(g) == 1


def test_two_disjoint_edges():
    g = StochasticGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert mu(g) == 2


def test_canonical_tie_break_path2():
    # Both edges realized: the canonical matching must take edge 0.
    g = path2()
    m = max_matching(g, [0, 1])
    assert m.edges == frozenset({0})


def test_determinism_under_permutation():
    g = clique_graph(7, 1.0)
    ids = list(range(g.m))
    base = max_matching(g, ids)
    rng = np.random.default_rng(7)
    for _ in range(10):
        perm = list(rng.permutation(ids))
        assert max_matching(g, perm).edges == base.edges


def test_matching_valid_and_maximum_on_corpus():
    for g in small_corpus(count=30, seed=11):
        m = max_matching(g)
        seen = set()
        for e in m.edges:
            u, v = g.endpoints(e)
            assert u not in seen and v not in seen
            seen.update((u, v))
        pairs = [g.endpoints(e) for e in range(g.m)]
        assert len(m) == brute_force_mu(g.n, pairs)


def test_matched_vertex_map_consistency():
    g = petersen()
    m = max_matching(g)
    for e in m.edges:
        u, v = g.endpoints(e)
        assert m.partner(u) == v and m.partner(v) == u
    assert len(m.matched_vertex) == 2 * len(m)


def test_odd_cycles_need_blossoms():
    # 9-cycle plus chords exercising contraction.
    n = 9
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    g = StochasticGraph(n, edges)
    assert mu(g) == 4
    # Two triangles joined by a bridge: classic blossom case.
    g2 = StochasticGraph(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
    )
    assert mu(g2) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_blossom_matches_brute_force_random(seed):
    rng = np.random.default_rng(seed)
    g = random_small_graph(rng, max_edges=11)
    pairs = [g.endpoints(e) for e in range(g.m)]
    assert mu(g) == brute_force_mu(g.n, pairs)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=100))
def test_subset_determinism_random(seed, subset_seed):
    rng = np.random.default_rng(seed)
    g = random_small_graph(rng)
    sub_rng = np.random.default_rng(subset_seed)
    ids = [e for e in range(g.m) if sub_rng.random() < 0.6]
    a = max_matching(g, ids)
    b = max_matching(g, list(reversed(ids)))
    assert a.edges == b.edges


def test_long_path_sizes():
    for k in range(1, 12):
        g = path_graph(k, 1.0)
        assert mu(g) == (k + 1) // 2


def test_blossom_agrees_with_networkx_at_scale():
    # Independent engine cross-check on sizes brute force cannot reach.
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(123)
    for _ in range(40):
        n = int(rng.integers(4, 45))
        density = rng.uniform(0.05, 0.5)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    edges.append((u, v, 1.0))
        if not edges:
            continue
        g = StochasticGraph(n, edges)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from([(u, v) for u, v, _ in edges])
        assert mu(g) == len(nx.max_weight_matching(G, maxcardinality=True))


# -- differential test against the dict-based reference engine ----------------


def _assert_same_as_reference(g, present, rng):
    """The three input forms of one edge set all give the reference matching."""
    ids = [int(e) for e in np.flatnonzero(present)]
    expected = reference_max_matching(g, ids).edges
    shuffled = list(rng.permutation(ids)) if ids else []
    assert max_matching(g, shuffled).edges == expected
    assert max_matching(g, Realization(g, present)).edges == expected
    if present.all():
        assert max_matching(g).edges == expected


def _check_graph(g, seed, subsets=8):
    rng = np.random.default_rng(seed)
    _assert_same_as_reference(g, np.ones(g.m, dtype=bool), rng)
    for _ in range(subsets):
        _assert_same_as_reference(g, rng.random(g.m) < rng.uniform(0.3, 0.9), rng)


def _odd_cycle_with_chords(k, rng):
    edges = {tuple(sorted((i, (i + 1) % k))) for i in range(k)}
    for _ in range(k // 2):
        edges.add(tuple(sorted(int(x) for x in rng.choice(k, size=2, replace=False))))
    return StochasticGraph(k, [(u, v, 1.0) for u, v in sorted(edges)])


def test_reference_agreement_on_fixed_families():
    _check_graph(petersen(), 0, subsets=30)
    for n in range(2, 11):
        _check_graph(clique_graph(n), n)
    rng = np.random.default_rng(99)
    for k in (3, 5, 7, 9, 11, 13, 15, 21):
        for _ in range(4):
            _check_graph(_odd_cycle_with_chords(k, rng), k)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.05, max_value=0.6),
    st.integers(min_value=0, max_value=10**9),
)
def test_reference_agreement_on_random_er(n, density, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v, 0.5) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    g = StochasticGraph(n, edges)
    _check_graph(g, seed, subsets=3)


def test_reference_agreement_on_workload_realizations():
    g = erdos_renyi(300, 0.03, (0.2, 0.8), seed=7)
    stream = RandomStream(7, ("reference-diff",))
    rng = np.random.default_rng(7)
    for i in range(20):
        _assert_same_as_reference(g, sample_realization(g, stream.child(i)).present, rng)


# -- edge-set validation --------------------------------------------------------


@pytest.mark.parametrize("bad", [-1, 2, 10**6])
def test_out_of_range_edge_id_rejected(bad):
    g = path2()
    with pytest.raises(ValueError, match=f"edge id {bad} "):
        max_matching(g, [0, bad])
    with pytest.raises(ValueError, match=f"edge id {bad} "):
        mu(g, [bad])


def test_realization_of_another_graph_rejected():
    g = path2()
    twin = path2()
    real = Realization(twin, [True, True])
    with pytest.raises(ValueError, match="different graph"):
        max_matching(g, real)
    assert max_matching(twin, real).edges == frozenset({0})
