"""Maximum-matching engine: correctness and the determinism contract."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch.generators import erdos_renyi
from stochmatch.graph import _MASK_LIMIT, Matching, Realization, StochasticGraph, sample_realization
from stochmatch.matching import matched_by_mask, max_matching, mu
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


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=10, max_value=150),
    st.floats(min_value=1.0, max_value=3.0),
    st.integers(min_value=0, max_value=10**9),
)
def test_reference_agreement_on_sparse_random_graphs(n, degree, seed):
    # At average degree 1-3 a maximum matching leaves several vertices free,
    # so searches fail both before the last free root and at it.
    rng = np.random.default_rng(seed)
    us, vs = np.triu_indices(n, 1)
    keep = rng.random(us.size) < degree / (n - 1)
    g = StochasticGraph(n, [(int(u), int(v), 0.5) for u, v in zip(us[keep], vs[keep])])
    _check_graph(g, seed, subsets=2)


def test_reference_agreement_on_workload_realizations():
    g = erdos_renyi(300, 0.03, (0.2, 0.8), seed=7)
    stream = RandomStream(7, ("reference-diff",))
    rng = np.random.default_rng(7)
    for i in range(20):
        _assert_same_as_reference(g, sample_realization(g, stream.child(i)).present, rng)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=18),
    st.floats(min_value=0.1, max_value=0.7),
    st.integers(min_value=0, max_value=10**9),
)
def test_reference_agreement_with_edge_ids_out_of_pair_order(n, density, seed):
    # Shuffled edge ids and endpoints sometimes given as (v, u): the engine's
    # pass over the edges in (u, v) order is not their id order here.
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    rng.shuffle(pairs)
    g = StochasticGraph(n, [(v, u, 0.5) if rng.random() < 0.5 else (u, v, 0.5)
                            for u, v in pairs])
    for _ in range(4):
        present = rng.random(g.m) < rng.uniform(0.3, 1.0)
        ids = [int(e) for e in np.flatnonzero(present)]
        expected = reference_max_matching(g, ids).edges
        assert max_matching(g, Realization(g, present)).edges == expected
        assert max_matching(g, [int(e) for e in rng.permutation(ids)]).edges == expected
        if g.mask_table is not None:
            assert matched_by_mask(g, sum(1 << e for e in ids)) == tuple(sorted(expected))
    assert max_matching(g).edges == reference_max_matching(g).edges


# -- edge-set validation --------------------------------------------------------


@pytest.mark.parametrize("bad", [-1, 2, 10**6])
def test_out_of_range_edge_id_rejected(bad):
    g = path2()
    with pytest.raises(ValueError, match=f"edge id {bad} "):
        max_matching(g, [0, bad])
    with pytest.raises(ValueError, match=f"edge id {bad} "):
        mu(g, [bad])


def test_bool_edge_ids_rejected():
    # True and False would otherwise be read as edge ids 1 and 0.
    g = path_graph(3)
    with pytest.raises(ValueError, match="bool True"):
        max_matching(g, [True, False, True])
    with pytest.raises(ValueError, match="bool"):
        max_matching(g, np.array([True, False, True]))
    with pytest.raises(ValueError, match="bool"):
        mu(g, [0, np.True_])


@pytest.mark.parametrize("bad", [1.0, np.float64(1.0), "1", None])
def test_non_integer_edge_ids_rejected(bad):
    g = path2()
    with pytest.raises(ValueError, match=re.escape(f"edge ids must be integers, got {bad!r}")):
        max_matching(g, [0, bad])
    # numpy integers are integers.
    assert max_matching(g, [np.int64(1), np.uint8(0)]).edges == frozenset({0})
    assert max_matching(g, np.array([1])).edges == frozenset({1})


def test_realization_of_another_graph_rejected():
    g = path2()
    twin = path2()
    real = Realization(twin, [True, True])
    with pytest.raises(ValueError, match="different graph"):
        max_matching(g, real)
    assert max_matching(twin, real).edges == frozenset({0})


# -- results built from the blossom's partner list ------------------------------


def _networkx_corpus():
    """The graphs of ``test_blossom_agrees_with_networkx_at_scale``."""
    rng = np.random.default_rng(123)
    for _ in range(40):
        n = int(rng.integers(4, 45))
        density = rng.uniform(0.05, 0.5)
        edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        if edges:
            yield StochasticGraph(n, edges)


def _reference_corpus():
    """(graph, edge set) pairs over the fixed families and the workload
    realizations of the differential tests against ``reference_max_matching``."""
    families = [petersen()] + [clique_graph(n) for n in range(2, 11)]
    rng = np.random.default_rng(99)
    families += [_odd_cycle_with_chords(k, rng) for k in (3, 5, 7, 9, 11, 13, 15, 21)
                 for _ in range(4)]
    for g in families:
        sub = np.random.default_rng(g.m)
        yield g, None
        for _ in range(8):
            yield g, Realization(g, sub.random(g.m) < sub.uniform(0.3, 0.9))
    g = erdos_renyi(300, 0.03, (0.2, 0.8), seed=7)
    stream = RandomStream(7, ("reference-diff",))
    for i in range(20):
        yield g, sample_realization(g, stream.child(i))
    # n=1000 is where resetting only what a search touched saves the most.
    g = erdos_renyi(1000, 0.004, (0.2, 0.8), seed=3)
    stream = RandomStream(3, ("reference-diff",))
    for i in range(3):
        yield g, sample_realization(g, stream.child(i))


def _assert_equals_checked_construction(g, result):
    # The checked constructor refuses a vertex reuse in ``result.edges``.
    checked = Matching(g, result.edges)
    assert checked == result


def test_blossom_results_equal_the_checked_constructor():
    for g, edge_set in _reference_corpus():
        result = max_matching(g, edge_set)
        assert result.edges == reference_max_matching(g, edge_set).edges
        _assert_equals_checked_construction(g, result)
    for g in _networkx_corpus():
        _assert_equals_checked_construction(g, max_matching(g))


def test_public_constructor_still_rejects_vertex_reuse():
    g = path2()
    with pytest.raises(ValueError, match="vertex reuse"):
        Matching(g, [0, 1])
    g = clique_graph(4)
    perfect = max_matching(g).edges
    extra = next(e for e in range(g.m) if e not in perfect)
    with pytest.raises(ValueError, match="vertex reuse"):
        Matching(g, perfect | {extra})


def test_mask_path_equals_max_matching_on_every_mask():
    # The reversed path numbers its edges against vertex order, so its matched
    # edge ids come out of the blossom in descending order.
    reversed_path = StochasticGraph(9, path_graph(8).edges[::-1])
    for g in (erdos_renyi(12, 0.12, (0.3, 0.9), seed=2), clique_graph(5), reversed_path):
        assert g.m <= 14 and g.mask_table == {}  # a fresh graph: every mask misses
        for mask in range(1 << g.m):
            ids = [e for e in range(g.m) if mask >> e & 1]
            assert matched_by_mask(g, mask) == tuple(sorted(max_matching(g, ids).edges))
        assert len(g.mask_table) == 1 << g.m


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=10**9),
)
def test_mask_path_equals_reference_on_disjoint_unions(n1, n2, seed):
    # Two random graphs side by side, their vertex ids interleaved and their
    # edge ids shuffled against vertex order: many masks are disconnected, so
    # a miss matches them component by component through the table.
    rng = np.random.default_rng(seed)
    verts = [int(x) for x in rng.permutation(n1 + n2)]
    pairs = [(part[i], part[j]) for part in (verts[:n1], verts[n1:])
             for i in range(len(part)) for j in range(i + 1, len(part))]
    rng.shuffle(pairs)
    del pairs[int(rng.integers(0, min(12, len(pairs)) + 1)):]
    g = StochasticGraph(n1 + n2, [(v, u, 0.5) if rng.random() < 0.5 else (u, v, 0.5)
                                  for u, v in pairs])
    assert g.mask_table == {}
    for mask in range(1 << g.m):
        ids = [e for e in range(g.m) if mask >> e & 1]
        assert matched_by_mask(g, mask) == tuple(sorted(reference_max_matching(g, ids).edges))


def test_disconnected_mask_stores_its_components():
    # Edges 0 and 2 of the path 0-1-2-3 share no vertex.
    g = path_graph(3)
    assert matched_by_mask(g, 0b101) == (0, 2)
    assert set(g.mask_table) == {0b101, 0b100, 0b001}


@pytest.mark.parametrize("mask", [-1, 1 << 3, 1 << 10])
def test_mask_outside_the_table_range_rejected(mask):
    g = path_graph(3)
    with pytest.raises(ValueError, match=f"mask {mask} out of range"):
        matched_by_mask(g, mask)
    assert g.mask_table == {}
    assert matched_by_mask(g, (1 << 3) - 1) == (0, 2)


@pytest.mark.parametrize("mask", [1.5, 5.0, np.float64(5.0), True, np.True_, "5", None])
def test_non_integer_mask_rejected_on_a_miss(mask):
    g = path_graph(3)
    with pytest.raises(ValueError, match="masks must be integers"):
        matched_by_mask(g, mask)
    assert g.mask_table == {}
    # numpy integers are integers.
    assert matched_by_mask(g, np.int64(5)) == (0, 2)


def test_mask_on_a_graph_without_a_mask_table_rejected():
    g = path_graph(_MASK_LIMIT + 1)
    assert g.mask_table is None
    with pytest.raises(ValueError, match="no mask table"):
        matched_by_mask(g, 1)
