"""Keyed stream reproducibility and independence smoke tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stochmatch.graph import StochasticGraph, sample_realization
from stochmatch.randomness import IntKeys, RandomStream, encode_key, keyed_uniform

_INT64 = st.integers(-(2**63), 2**63 - 1)
_PART = st.one_of(
    st.text(max_size=6),
    _INT64,
    _INT64.map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
)
_KEY = st.lists(_PART, max_size=4).map(tuple)


def test_equal_key_equal_sequence():
    a = RandomStream(42, ("x", 3)).uniforms(16)
    b = RandomStream(42, ("x", 3)).uniforms(16)
    assert np.array_equal(a, b)


def test_frozen_values_guard_platform_drift():
    # Philox keyed through blake2b must give the same bits on every platform.
    got = RandomStream(42, ("x",)).uniforms(3)
    expected = np.array(
        [0.7719171435330442, 0.26828879400776406, 0.4180708107656932]
    )
    assert np.array_equal(got, expected)
    assert keyed_uniform(42, ("x",)) == 0.37323330419242223


def test_distinct_keys_differ():
    a = RandomStream(7, ("a",)).uniforms(64)
    b = RandomStream(7, ("b",)).uniforms(64)
    c = RandomStream(8, ("a",)).uniforms(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_key_independence_smoke():
    # Correlation between differently keyed streams should be tiny.
    n = 20_000
    a = RandomStream(1, ("s", 0)).uniforms(n)
    b = RandomStream(1, ("s", 1)).uniforms(n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / np.sqrt(n)


def test_child_key_extension():
    s = RandomStream(5, ("root",))
    c = s.child("sub", 2)
    assert c.key == ("root", "sub", 2)
    assert c.purpose == "root"


def test_uniform_at_stateless():
    s = RandomStream(9, ("p",))
    x = s.uniform_at(("e", 4))
    y = s.uniform_at(("e", 4))
    z = s.uniform_at(("e", 5))
    assert x == y
    assert x != z
    assert 0.0 <= x < 1.0


def test_realization_all_probability_one():
    g = StochasticGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    r = sample_realization(g, RandomStream(0, ("real", 0)))
    assert r.edge_ids() == [0, 1]


def test_realization_reproducible():
    g = StochasticGraph(4, [(0, 1, 0.5), (1, 2, 0.3), (2, 3, 0.8)])
    r1 = sample_realization(g, RandomStream(3, ("real", 7)))
    r2 = sample_realization(g, RandomStream(3, ("real", 7)))
    assert np.array_equal(r1.present, r2.present)


def test_realization_marginals():
    g = StochasticGraph(4, [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 0.9)])
    n_samples = 10_000
    hits = np.zeros(g.m)
    base = RandomStream(12, ("marg",))
    for i in range(n_samples):
        hits += sample_realization(g, base.child(i)).present
    freq = hits / n_samples
    for e in range(g.m):
        p = g.ps[e]
        tol = 3 * np.sqrt(p * (1 - p) / n_samples)
        assert abs(freq[e] - p) <= tol


def test_tiny_probability_single_draw():
    g = StochasticGraph(4, [(0, 1, 1e-6), (1, 2, 1e-6), (2, 3, 1e-6)])
    r = sample_realization(g, RandomStream(0, ("tiny", 0)))
    assert r.edge_ids() == []


@given(seed=_INT64, a=_KEY, b=_KEY, c=_KEY)
def test_prefix_state_equals_full_key(seed, a, b, c):
    full = keyed_uniform(seed, a + b + c)
    prefix = RandomStream(seed, a).child(*b)
    assert prefix.uniform_at(c) == full
    assert prefix.uniform_at(encode_key(c)) == full
    assert RandomStream(seed).child(encode_key(a + b)).uniform_at(c) == full


@given(a=_KEY, ints=st.lists(_INT64, max_size=4))
def test_int_keys_join_to_the_full_key(a, ints):
    # A tuple is looked up as a whole key, an int as a one-part key.
    ik = IntKeys()
    assert ik[a] + b"".join(ik[x] for x in ints) == encode_key(a + tuple(ints))


def test_perturbed_prefix_resamples_outside_the_kept_region():
    base = RandomStream(7, ("vim",))
    pert = base.perturbed(3, keep=lambda locus: 0 in locus).child("k")
    kept = keyed_uniform(7, ("vim", "k", "input", 1))
    resampled = keyed_uniform(7, ("vim", "k", "input", 1, "pert", 3))
    assert pert.uniform_at(("input", 1), (0, 1)) == kept
    assert pert.uniform_at(("input", 1), (1, 2)) == resampled
    assert pert.uniform_at(("input", 1)) == resampled
    assert kept != resampled


def test_bool_key_parts_rejected():
    # bool subclasses int; accepting it would make True address the draw of 1.
    for key in (("x", True), ("x", False)):
        with pytest.raises(TypeError, match="bool"):
            keyed_uniform(0, key)
    with pytest.raises(TypeError, match="bool"):
        RandomStream(0, ("x",)).uniform_at((True,))
    with pytest.raises(TypeError, match="bool"):
        RandomStream(0, ("x", np.bool_(True))).uniforms(1)


@pytest.mark.parametrize("m", [14, 63])  # both sides of the 62-edge mask limit
@pytest.mark.parametrize("k", [1, 50, 8191, 8192])
def test_row_draw_is_a_prefix_of_the_full_block(k, m):
    # The old estimate_q form, a full 8192-row block sliced to k rows, is the
    # oracle for drawing only the k rows used.
    def block():
        return RandomStream(5, ("qest",)).child("block", 1)

    full = block().uniforms((8192, m))[:k]
    assert np.array_equal(block().uniforms((k, m)), full)


@pytest.mark.parametrize("perturbed", [False, True], ids=["plain", "perturbed"])
def test_uniforms_at_equals_one_draw_at_a_time(perturbed):
    # Loci that are None, kept (inside {0, 1, 2}) and dropped, under one
    # prefix; a perturbed stream resamples the None and dropped draws only.
    base = RandomStream(11, ("vim",)).child("node", 3)
    stream = base.perturbed(5, keep=lambda locus: set(locus) <= {0, 1, 2}) if perturbed else base
    tails = [encode_key(("real", 1, i, e)) for i in range(3) for e in range(4)]
    loci = [None, (0, 1), (2, 7), (1, 2)] * 3
    batch = stream.uniforms_at(tails, loci)
    assert batch == [stream.uniform_at(t, locus) for t, locus in zip(tails, loci)]
    plain = base.uniforms_at(tails, loci)
    assert [x == y for x, y in zip(batch, plain)] == [
        not perturbed or locus in ((0, 1), (1, 2)) for locus in loci]
    assert stream.uniforms_at([], []) == []
