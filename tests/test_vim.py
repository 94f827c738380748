"""Augmenting hyperwalks and the recursive matching construction."""

import copy
import dataclasses
import hashlib
import inspect
import itertools
import math
import pickle

import numpy as np
import pytest

from stochmatch.decomposition import classify
from stochmatch.generators import erdos_renyi
from stochmatch.harness import ExperimentConfig
from stochmatch.graph import StochasticGraph
from stochmatch.matching import max_matching
from stochmatch.oracle import exact_stats
from stochmatch.vim import (
    Hyperwalk,
    Profile,
    VimEngine,
    VimParams,
    apply_hyperwalks,
    build_conflict_graph,
    enumerate_augmenting_hyperwalks,
    locality_bound,
)
from stochmatch import mis, vim
from stochmatch.errors import CandidateWalkCapError, ParameterOverflowError
from stochmatch.randomness import RandomStream

from helpers import (
    is_augmenting,
    path_graph,
    reference_augmenting_hyperwalks,
    small_corpus,
    two_single_edges,
)


def classification_for(g, eps=0.3, tau_minus=0.05, tau_plus=0.5):
    stats = exact_stats(g)
    return classify(g, stats.q, tau_minus, tau_plus, eps)


def all_crucial(g, eps=0.3):
    """Every edge crucial, with c_v from exact stats (needs min q > 0)."""
    stats = exact_stats(g)
    qmin = float(stats.q.min())
    assert qmin > 0, "all_crucial needs every edge matched with positive probability"
    return classify(g, stats.q, tau_minus=qmin / 4, tau_plus=qmin / 2, epsilon=eps)


def mechanics_cls(g, eps=0.3):
    """Every edge crucial under synthetic q; for profile-mechanics tests only."""
    return classify(g, np.full(g.m, 0.9), tau_minus=0.05, tau_plus=0.5, epsilon=eps)


def single_edge_cls(p=1.0, eps=0.3):
    g = StochasticGraph(2, [(0, 1, p)])
    return classification_for(g, eps=eps)


# -- hyperwalk mechanics ------------------------------------------------------


def test_hyperwalk_constructor_checks_lengths():
    with pytest.raises(ValueError, match="size at least 1"):
        Hyperwalk((), (0,))
    with pytest.raises(ValueError, match="k \\+ 1 vertices"):
        Hyperwalk(((0, 0),), (0, 1, 2))
    with pytest.raises(ValueError, match="k \\+ 1 vertices"):
        Hyperwalk(((0, 0), (1, 0)), (0, 1))


def test_hyperwalk_is_an_immutable_value():
    a = Hyperwalk(((0, 0), (1, 2), (3, 0)), (0, 1, 2, 3))
    b = Hyperwalk(((0, 0), (1, 2), (3, 0)), (0, 1, 2, 3))
    c = Hyperwalk(((0, 0), (1, 2), (3, 1)), (0, 1, 2, 3))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != c
    assert a == (a.steps, a.vertices) and hash(a) == hash((a.steps, a.vertices))
    assert {a, b, c} == {a, c} and b in {a}
    assert repr(a) == "Hyperwalk(steps=((0, 0), (1, 2), (3, 0)), vertices=(0, 1, 2, 3))"
    with pytest.raises(AttributeError):
        a.steps = ((0, 0),)
    with pytest.raises(AttributeError):
        a.vertices = (0, 1)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        del a.steps
    assert a == b
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_enumerated_walks_equal_publicly_built_walks():
    g = path_graph(3, 1.0)
    prof = Profile(mechanics_cls(g), [{0, 1, 2}, {0, 2}], [{1}, set()])
    walks = enumerate_augmenting_hyperwalks(prof, frozenset(), 3)
    assert walks
    for w in walks:
        public = Hyperwalk(w.steps, w.vertices)
        assert type(w) is Hyperwalk and w == public and hash(w) == hash(public)
    assert set(walks) == {Hyperwalk(w.steps, w.vertices) for w in walks}


def test_is_augmenting_size_one_free_endpoints():
    cls = single_edge_cls()
    prof = Profile(cls, [{0}], [set()])
    w = Hyperwalk(((0, 0),), (0, 1))
    assert is_augmenting(prof, w)


def test_is_augmenting_rejects_matched_endpoint():
    g = StochasticGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    cls = mechanics_cls(g)
    prof = Profile(cls, [{0, 1}], [{1}])
    w = Hyperwalk(((0, 0),), (0, 1))
    assert not is_augmenting(prof, w)


def test_is_augmenting_classic_length_three():
    g = path_graph(3, 1.0)
    cls = mechanics_cls(g)
    prof = Profile(cls, [{0, 1, 2}], [{1}])
    w = Hyperwalk(((0, 0), (1, 0), (2, 0)), (0, 1, 2, 3))
    assert is_augmenting(prof, w)


def test_is_augmenting_rejects_unrealized_odd_step():
    cls = single_edge_cls()
    prof = Profile(cls, [frozenset()], [set()])
    w = Hyperwalk(((0, 0),), (0, 1))
    assert not is_augmenting(prof, w)


def test_is_augmenting_rejects_closed_walk():
    g = StochasticGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    cls = mechanics_cls(g)
    prof = Profile(cls, [{0, 1, 2}], [{2}])
    w = Hyperwalk(((0, 0), (2, 0), (1, 0)), (0, 1, 2, 0))
    assert not is_augmenting(prof, w)


def test_cross_slot_walk():
    # Add edge (0,1) in slot 0, remove (1,2) from slot 1, add (2,3) in slot 0.
    g = path_graph(3, 1.0)
    cls = mechanics_cls(g)
    prof = Profile(cls, [{0, 2}, {1}], [set(), {1}])
    w = Hyperwalk(((0, 0), (1, 1), (2, 0)), (0, 1, 2, 3))
    assert is_augmenting(prof, w)
    after = apply_hyperwalks(prof, [w])
    assert after.matchings[0] == {0, 2}
    assert after.matchings[1] == set()


def test_enumerate_single_edge_one_canonical_walk():
    cls = single_edge_cls()
    prof = Profile(cls, [{0}], [set()])
    walks = enumerate_augmenting_hyperwalks(prof, saturated=frozenset(), walk_cap=3)
    assert len(walks) == 1
    assert walks[0].steps == ((0, 0),)
    assert walks[0].vertices == (0, 1)


def test_enumerate_all_saturated_empty():
    cls = single_edge_cls()
    prof = Profile(cls, [{0}], [set()])
    walks = enumerate_augmenting_hyperwalks(prof, saturated={0, 1}, walk_cap=3)
    assert walks == []


def test_enumerate_skips_unrealized_slots():
    cls = single_edge_cls()
    prof = Profile(cls, [{0}, frozenset()], [set(), set()])
    walks = enumerate_augmenting_hyperwalks(prof, saturated=frozenset(), walk_cap=1)
    assert [w.steps for w in walks] == [((0, 0),)]


def test_enumerate_finds_length_three_augmentation():
    g = path_graph(3, 1.0)
    cls = mechanics_cls(g)
    prof = Profile(cls, [{0, 1, 2}], [{1}])
    walks = enumerate_augmenting_hyperwalks(prof, saturated=frozenset(), walk_cap=3)
    assert Hyperwalk(((0, 0), (1, 0), (2, 0)), (0, 1, 2, 3)) in walks


def _random_profile(rng, match_p=0.6):
    """A random graph, every edge crucial, and a profile of random realized
    slots, each with a random matching of its edges (empty at match_p=0)."""
    n = int(rng.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    m = int(rng.integers(2, min(8, len(pairs)) + 1))
    g = StochasticGraph(n, [(u, v, 0.9) for u, v in pairs[:m]])
    cls = mechanics_cls(g)
    realized, matchings = [], []
    for _ in range(int(rng.integers(1, 7))):
        real = frozenset(e for e in range(m) if rng.random() < 0.8)
        cover, mat = set(), set()
        for e in sorted(real, key=lambda _: rng.random()):
            u, v = g.endpoints(e)
            if rng.random() < match_p and u not in cover and v not in cover:
                mat.add(e)
                cover.update((u, v))
        realized.append(real)
        matchings.append(mat)
    return g, Profile(cls, realized, matchings)


def test_enumeration_matches_reference_enumerator():
    # The incremental search must return exactly the walks, in the order, of
    # the generate-then-validate oracle, across slot counts, saturated sets
    # and walk caps.
    rng = np.random.default_rng(11)
    total = 0
    for trial in range(60):
        g, prof = _random_profile(rng)
        sat = frozenset(v for v in range(g.n) if rng.random() < 0.25)
        cap = trial % 5 + 1
        got = enumerate_augmenting_hyperwalks(prof, sat, cap)
        assert got == reference_augmenting_hyperwalks(prof, sat, cap)
        total += len(got)
    assert total > 100

    # Level-1 shape: every matching empty, so no step can be removed and
    # every step is tested as a last step, at any cap.
    rng = np.random.default_rng(12)
    total = 0
    for trial in range(45):
        g, prof = _random_profile(rng, match_p=0.0)
        assert not any(prof.matchings)
        sat = frozenset(v for v in range(g.n) if rng.random() < 0.25)
        cap = trial % 3 + 1
        got = enumerate_augmenting_hyperwalks(prof, sat, cap)
        assert got == reference_augmenting_hyperwalks(prof, sat, cap)
        assert all(len(w.steps) == 1 for w in got)
        total += len(got)
    assert total > 100

    # All vertices but one saturated: walks can start at the free vertex,
    # but every last step ends at a saturated one and must be refused.
    rng = np.random.default_rng(13)
    refused = 0
    for trial in range(30):
        g, prof = _random_profile(rng)
        cap = trial % 3 + 1
        free = int(rng.integers(0, g.n))
        sat = frozenset(range(g.n)) - {free}
        got = enumerate_augmenting_hyperwalks(prof, sat, cap)
        assert got == reference_augmenting_hyperwalks(prof, sat, cap) == []
        refused += sum(free in (w.vertices[0], w.vertices[-1])
                       for w in enumerate_augmenting_hyperwalks(prof, frozenset(), cap))
    assert refused > 20

    # walk_cap 3 with matchings present: the search descends through a
    # removal, and the third step is the tested-not-pushed last step.
    rng = np.random.default_rng(14)
    three_step = 0
    for trial in range(40):
        g, prof = _random_profile(rng)
        sat = frozenset(v for v in range(g.n) if rng.random() < 0.15)
        got = enumerate_augmenting_hyperwalks(prof, sat, 3)
        assert got == reference_augmenting_hyperwalks(prof, sat, 3)
        three_step += sum(len(w.steps) == 3 for w in got)
    assert three_step > 100


def test_conflict_graph_rules():
    w1 = Hyperwalk(((0, 0),), (0, 1))
    w2 = Hyperwalk(((1, 0),), (2, 3))
    w3 = Hyperwalk(((2, 0),), (1, 4))
    adj = build_conflict_graph([w1, w2, w3])
    assert adj[0] == {2} and adj[1] == set() and adj[2] == {0}


def test_conflict_graph_hub_clique():
    hub_walks = [Hyperwalk(((i, 0),), (0, i + 1)) for i in range(4)]
    adj = build_conflict_graph(hub_walks)
    for i in range(4):
        assert adj[i] == set(range(4)) - {i}


def test_apply_empty_keeps_profile():
    cls = single_edge_cls()
    prof = Profile(cls, [{0}], [set()])
    after = apply_hyperwalks(prof, [])
    assert after.matchings == prof.matchings


def test_apply_counts():
    g = StochasticGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    cls = mechanics_cls(g)
    prof = Profile(cls, [{0, 1}], [set()])
    w1 = Hyperwalk(((0, 0),), (0, 1))
    w2 = Hyperwalk(((1, 0),), (2, 3))
    after = apply_hyperwalks(prof, [w1, w2])
    assert after.sum_d() - prof.sum_d() == 4


def test_apply_rejects_overlapping_walks():
    g = path_graph(2, 1.0)
    cls = mechanics_cls(g)
    prof = Profile(cls, [{0, 1}], [set()])
    w1 = Hyperwalk(((0, 0),), (0, 1))
    w2 = Hyperwalk(((1, 0),), (1, 2))
    with pytest.raises(AssertionError, match="disjoint"):
        apply_hyperwalks(prof, [w1, w2])


def _two_slot_profile():
    # Path 0 -(e0)- 1 -(e1)- 2.  Slot 0 realizes e0 only and matches
    # nothing; slot 1 realizes both edges and matches e1.
    g = path_graph(2, 1.0)
    return Profile(mechanics_cls(g), [{0}, {0, 1}], [set(), {1}])


def test_apply_refuses_an_unrealized_edge_in_a_touched_slot():
    prof = _two_slot_profile()
    with pytest.raises(AssertionError, match="slot 0: matching contains unrealized"):
        apply_hyperwalks(prof, [Hyperwalk(((1, 0),), (1, 2))])


def test_apply_refuses_two_edges_at_one_vertex_in_a_touched_slot():
    prof = _two_slot_profile()
    with pytest.raises(AssertionError, match="slot 1: edges are not a matching"):
        apply_hyperwalks(prof, [Hyperwalk(((0, 1),), (0, 1))])


def test_apply_carries_untouched_slots_over():
    prof = _two_slot_profile()
    after = apply_hyperwalks(prof, [Hyperwalk(((0, 0),), (0, 1))])
    assert after.matchings == [frozenset({0}), frozenset({1})]
    assert after.cover[0] == {0: 0, 1: 0}
    assert after.cover[1] is prof.cover[1]
    assert after.realized == prof.realized
    assert prof.matchings[0] == frozenset() and prof.cover[0] == {}


# -- the recursive construction ----------------------------------------------


def test_depth_zero_is_empty():
    cls = single_edge_cls()
    params = VimParams(epsilon=0.3, alpha=0, depth=0, gamma_samples=10)
    z = VimEngine(cls, params, seed=1).run(0, [0])
    assert len(z) == 0


def test_negative_depth_is_refused():
    engine = _path3_engine()
    with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
        engine.run(-1, [0])
    with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
        engine.gamma_table(-1)
    with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
        engine.dependency_radius(0, -1)
    for r in (0, -1):
        with pytest.raises(ValueError, match=f"from level 1 on, got level {r}$"):
            engine.saturated_set(r)
    # Each of these reads as a level if unchecked, and an empty input would
    # return the empty matching before any draw refuses it.
    for bad in (True, np.bool_(True), 1.0, 2.0, "1"):
        with pytest.raises(ValueError, match="depth must be an integer"):
            engine.run(bad, [])
        with pytest.raises(ValueError, match="depth must be an integer"):
            engine.dependency_radius(0, bad)
    assert engine.run(np.int64(2), [0], key=("d",)) == engine.run(2, [0], key=("d",))


def test_dependency_radius_needs_a_trial():
    engine = _path3_engine()
    for trials in (0, -1):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            engine.dependency_radius(0, 1, trials=trials)


def test_dependency_radius_needs_a_vertex_of_the_graph():
    engine = _path3_engine()
    for v in (999, 3, -1):
        with pytest.raises(ValueError, match=rf"vertex {v} is not in range\(3\)"):
            engine.dependency_radius(v, 1, trials=2)
    assert engine.perturbations_run == 0


def test_single_edge_level_one_matches_when_realized():
    cls = single_edge_cls(p=1.0)
    params = VimParams(epsilon=0.3, alpha=0, depth=1, gamma_samples=10)
    z = VimEngine(cls, params, seed=1).run(1, [0])
    assert z == frozenset({0})


def test_unrealized_edge_never_matched():
    cls = single_edge_cls(p=0.5)
    params = VimParams(epsilon=0.3, alpha=0, depth=1, gamma_samples=10)
    z = VimEngine(cls, params, seed=1).run(1, [])
    assert len(z) == 0


def test_counting_identity_recorded_every_level():
    g = path_graph(4, 0.7)
    cls = all_crucial(g)
    params = VimParams(epsilon=0.3, alpha=3, depth=2, gamma_samples=50)
    engine = VimEngine(cls, params, seed=5)
    for i in range(20):
        trace = []
        creal = engine.input_realization(("t", i))
        engine.run(2, creal, key=("t", i), trace=trace)
        assert trace, "trace must record every level"
        for entry in trace:
            assert entry.sum_d_before + 2 * entry.selected == entry.sum_d_after


def test_z_subset_of_input_realization():
    g = path_graph(5, 0.6)
    cls = all_crucial(g)
    params = VimParams(epsilon=0.3, alpha=2, depth=2, gamma_samples=50)
    engine = VimEngine(cls, params, seed=8)
    for i in range(30):
        creal = engine.input_realization(("zsub", i))
        z = engine.run(2, creal, key=("zsub", i))
        assert z <= creal
        # Valid matching.
        seen = set()
        for e in z:
            u, v = g.endpoints(e)
            assert u not in seen and v not in seen
            seen.update((u, v))


def test_gamma_r0_zero():
    cls = single_edge_cls(p=0.6)
    params = VimParams(epsilon=0.3, alpha=0, depth=1, gamma_samples=10)
    gam = VimEngine(cls, params, seed=0).gamma_table(0)
    assert np.all(gam == 0)


def test_gamma_single_edge_level_one():
    cls = single_edge_cls(p=0.6)
    params = VimParams(epsilon=0.3, alpha=0, depth=1, gamma_samples=10_000)
    gam = VimEngine(cls, params, seed=3).gamma_table(1)
    tol = 3 * math.sqrt(0.6 * 0.4 / 10_000)
    assert abs(gam[0] - 0.6) <= tol
    assert abs(gam[1] - 0.6) <= tol


def test_gamma_zero_without_crucial_edges():
    g = StochasticGraph(3, [(0, 1, 0.3), (1, 2, 0.3)])
    stats = exact_stats(g)
    cls = classify(g, stats.q, tau_minus=0.9, tau_plus=0.95, epsilon=0.3)
    assert cls.crucial_edges == ()
    params = VimParams(epsilon=0.3, alpha=1, depth=2, gamma_samples=20)
    gam = VimEngine(cls, params, seed=1).gamma_table(2)
    assert np.all(gam == 0)


def test_determinism_given_seed():
    g = path_graph(4, 0.6)
    cls = all_crucial(g)
    params = VimParams(epsilon=0.3, alpha=2, depth=2, gamma_samples=30)
    a = VimEngine(cls, params, seed=11).run(2, [0, 2])
    b = VimEngine(cls, params, seed=11).run(2, [0, 2])
    assert a == b


def test_run_rejects_noncrucial_input():
    g = path_graph(2, 0.5)
    stats = exact_stats(g)
    cls = classify(g, stats.q, tau_minus=0.3, tau_plus=0.4, epsilon=0.3)
    params = VimParams(epsilon=0.3, alpha=0, depth=1, gamma_samples=5)
    engine = VimEngine(cls, params, seed=0)
    # The check precedes every node, early-returning ones included.
    for depth in (0, 1, 2):
        with pytest.raises(ValueError, match="non-crucial"):
            engine.run(depth, [1])


def test_run_refuses_edge_ids_that_are_not_integers():
    # Each input reads as a crucial edge id under int(), so only the integer
    # check refuses it, with the message of max_matching.
    engine = _path3_engine()
    for bad in ([True], [np.bool_(True)], [0.7], [1.9], ["1"], [0, 1.0]):
        with pytest.raises(ValueError, match="edge ids must be integers"):
            engine.run(1, bad)
        with pytest.raises(ValueError, match="edge ids must be integers"):
            max_matching(engine.cls.graph, bad)
    for bad in ([2], [-1]):
        with pytest.raises(ValueError, match=f"edge id {bad[0]} out of range"):
            engine.run(1, bad)
    assert engine.run(1, np.array([0, 1])) == engine.run(1, [0, 1])


def test_options_are_the_paper_parameters():
    # The saturation margin, the round factor and the candidate cap are
    # fixed policies of the construction, not options.
    assert [f.name for f in dataclasses.fields(VimParams)] == [
        "epsilon", "alpha", "depth", "walk_cap", "gamma_samples"]
    assert list(inspect.signature(mis.mis_round_budget).parameters) == ["max_degree", "epsilon"]


def test_vim_params_refuse_counts_that_are_not_integers():
    # A bool, float or str count would run as another value (True as 1) or
    # fail late inside a run; each is refused where the parameters are built,
    # by the rule ``run`` applies to its depth.
    for name, least in (("alpha", 0), ("depth", 0), ("walk_cap", 1), ("gamma_samples", 1)):
        for bad in (True, np.bool_(True), 2.0, 2.5, "2"):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
                VimParams(epsilon=0.3, **{name: bad})
        with pytest.raises(ValueError, match=f"{name} must be at least {least}, got {least - 1}$"):
            VimParams(epsilon=0.3, **{name: least - 1})
        assert getattr(VimParams(epsilon=0.3, **{name: np.int64(least)}), name) == least
    paper = VimParams.paper(0.5, force=True, gamma_samples=40)
    assert (paper.alpha, paper.depth, paper.walk_cap, paper.gamma_samples) == (127, 512, 3, 40)
    desk = ExperimentConfig(graph_family="path", alpha=2, depth=1, walk_cap=2).vim_params()
    assert (desk.alpha, desk.depth, desk.walk_cap, desk.gamma_samples) == (2, 1, 2, 300)
    paper = ExperimentConfig(graph_family="path", mode="paper", epsilon=0.9).vim_params()
    assert (paper.alpha, paper.depth, paper.walk_cap) == (1, 3, 2)


def test_paper_params_guard():
    with pytest.raises(ParameterOverflowError, match="alpha"):
        VimParams.paper(0.1)
    p = VimParams.paper(0.5, force=True)
    assert p.alpha == round(0.5**-7) - 1 == 127
    assert p.walk_cap == 3


def test_paper_params_guard_names_the_cli_flag_and_config_key():
    with pytest.raises(ParameterOverflowError) as info:
        VimParams.paper(0.1)
    message = str(info.value)
    assert "pass force=True" in message
    assert "--force-paper-constants" in message and "force_paper" in message


def test_slot_exchangeability():
    # |M'_i| must be identically distributed across slots (two-sample, 3 sigma).
    cls = single_edge_cls(p=0.5)
    params = VimParams(epsilon=0.3, alpha=3, depth=1, gamma_samples=30)
    engine = VimEngine(cls, params, seed=2)
    sizes = []
    for i in range(4000):
        trace = []
        creal = engine.input_realization(("exch", i))
        engine.run(1, creal, key=("exch", i), trace=trace)
        sizes.append(trace[-1].slot_sizes)
    sizes = np.array(sizes, dtype=float)
    means = sizes.mean(axis=0)
    ses = sizes.std(axis=0) / math.sqrt(len(sizes))
    for i in range(1, sizes.shape[1]):
        gap = abs(means[i] - means[0])
        assert gap <= 3 * math.sqrt(ses[i] ** 2 + ses[0] ** 2) + 1e-12


def test_dependency_radius_isolated_vertex():
    g = StochasticGraph(3, [(0, 1, 0.8)])
    # Vertex 2 is isolated; vertex ids beyond the single crucial edge.
    cls = all_crucial(g)
    params = VimParams(epsilon=0.3, alpha=1, depth=1, gamma_samples=20)
    assert VimEngine(cls, params, seed=0).dependency_radius(2, 1, trials=10) == 0


def test_dependency_radius_single_edge():
    cls = single_edge_cls(p=0.5)
    params = VimParams(epsilon=0.3, alpha=1, depth=1, gamma_samples=20)
    r = VimEngine(cls, params, seed=0).dependency_radius(0, 1, trials=20)
    assert r <= 1


def test_dependency_radius_far_components():
    g = two_single_edges(0.5)
    cls = all_crucial(g)
    params = VimParams(epsilon=0.3, alpha=2, depth=2, gamma_samples=40)
    engine = VimEngine(cls, params, seed=4)
    r = engine.dependency_radius(0, 2, trials=25)
    # The other component is at infinite distance; the radius stays inside
    # this component (eccentricity 1).
    assert r <= 1
    bound = locality_bound(2, params.walk_cap, engine.mis_rounds)
    assert r <= bound


def test_size_nondecreasing_in_depth():
    # Each level adds E|I| / (alpha + 1) >= 0, so the mean matching size
    # cannot drop with depth beyond Monte Carlo noise.
    g = path_graph(4, 0.6)
    cls = all_crucial(g)
    params = VimParams(epsilon=0.3, alpha=3, depth=3, gamma_samples=100)
    engine = VimEngine(cls, params, seed=17)
    runs = 800
    by_depth = {r: [] for r in (1, 2, 3)}
    for s in range(runs):
        creal = engine.input_realization(("grow", s))
        for r in (1, 2, 3):
            by_depth[r].append(len(engine.run(r, creal, key=("grow", s, r))))
    means = {r: np.mean(v) for r, v in by_depth.items()}
    ses = {r: np.std(v) / math.sqrt(runs) for r, v in by_depth.items()}
    for lo, hi in ((1, 2), (2, 3)):
        slack = 3 * math.sqrt(ses[lo] ** 2 + ses[hi] ** 2)
        assert means[hi] >= means[lo] - slack


def test_conflict_cap_guard(monkeypatch):
    from stochmatch.errors import CandidateWalkCapError

    g = path_graph(4, 0.9)
    cls = all_crucial(g)
    monkeypatch.setattr(vim, "_MAX_CANDIDATE_WALKS", 1)
    params = VimParams(epsilon=0.3, alpha=4, depth=1, gamma_samples=10)
    engine = VimEngine(cls, params, seed=0)
    with pytest.raises(CandidateWalkCapError, match="walk_cap"):
        for s in range(20):
            engine.run(1, engine.input_realization(("cap", s)), key=("cap", s))


def test_level_one_equals_the_generic_node(monkeypatch):
    # A level-1 node, whose kernel reads its slots straight from one batch of
    # draws, against the generic node body at r = 1 with empty matchings on
    # slots drawn one edge at a time: the same matching and trace over random
    # classifications (one of them without crucial edges), saturated sets,
    # inputs and perturbed streams, and the same CandidateWalkCapError under
    # a small cap.
    rng = np.random.default_rng(7)
    seen = {"selected": 0, "capped": 0, "empty": 0}

    def outcome(engine, node):
        trace = []
        try:
            z = node(trace)
        except CandidateWalkCapError as exc:
            seen["capped"] += 1
            return str(exc)
        seen["selected"] += len(z)
        return z, trace

    def reference(engine, creal, rand, trace):
        g, alpha = engine.cls.graph, engine.params.alpha
        slots = [creal] + [
            frozenset(e for e in engine.cls.crucial_edges
                      if rand.uniform_at(("real", 1, i, e), g.endpoints(e)) < g.ps[e])
            for i in range(1, alpha + 1)]
        return engine._node(1, slots, [frozenset()] * len(slots), rand, trace)

    for i, g in enumerate(small_corpus(count=12, seed=14, max_edges=8)):
        none_crucial = classify(g, np.zeros(g.m), 0.05, 0.5, 0.3)
        for cls in (all_crucial(g), classification_for(g), none_crucial):
            for alpha in (0, 1, 3, 11):
                engine = VimEngine(cls, VimParams(epsilon=0.3, alpha=alpha, depth=1,
                                                  gamma_samples=10), seed=i)
                engine._saturated[1] = frozenset(np.flatnonzero(rng.random(g.n) < 0.3).tolist())
                creal = frozenset(e for e in cls.crucial_edges if rng.random() < 0.6)
                region = set(np.flatnonzero(rng.random(g.n) < 0.5).tolist())
                base = RandomStream(i, ("level1",))
                for rand in (base, base.perturbed(alpha, region.issuperset)):
                    for cap in (100_000, 3):
                        monkeypatch.setattr(vim, "_MAX_CANDIDATE_WALKS", cap)
                        fast = outcome(engine, lambda t: engine._find(1, creal, rand, t))
                        generic = outcome(engine, lambda t: reference(engine, creal, rand, t))
                        assert fast == generic
                        seen["empty"] += not cls.crucial_edges
    assert seen["selected"] > 0 and seen["capped"] > 0 and seen["empty"] > 0


def test_level_one_refuses_steps_that_share_a_vertex(monkeypatch):
    # A selection that is not independent must abort the node.  Vertex 2 is
    # saturated, so the candidates are edge 0 in slot 0 and in slot 1: taking
    # both shares vertices across slots, which the counting identity misses.
    g = path_graph(2, 0.9)
    engine = VimEngine(all_crucial(g), VimParams(epsilon=0.3, alpha=1, depth=1,
                                                 gamma_samples=10), seed=0)
    assert engine.saturated_set(1) == {2}
    monkeypatch.setattr(vim, "luby_rounds", lambda members, rounds, priority: mis.MisResult(
        tuple(range(len(members))), (), 1))
    with pytest.raises(AssertionError, match="share a vertex"):
        engine.run(1, [0, 1], key=("shared", 0))


def test_untraced_runs_equal_the_full_evaluation(monkeypatch):
    # An untraced run returns at once from nodes whose output is provably
    # empty; a traced run evaluates every node.  Both give the same matching
    # over random classifications, saturated sets, inputs, depths and
    # perturbed streams, and the untraced run reaches fewer level-1 nodes,
    # also where saturated_set(1) is non-empty.
    calls = []
    level_one = VimEngine._level_one

    def spy(self, creal, bits, rand, trace):
        calls.append(trace is None)
        return level_one(self, creal, bits, rand, trace)

    monkeypatch.setattr(VimEngine, "_level_one", spy)
    rng = np.random.default_rng(25)
    seen = {"selected": 0, "fewer_saturated": 0, "live_skip": 0}
    for i, g in enumerate(small_corpus(count=10, seed=25, max_edges=8)):
        for cls in (all_crucial(g), classification_for(g)):
            for depth in (1, 2, 3):
                engine = VimEngine(cls, VimParams(epsilon=0.3, alpha=2, depth=depth,
                                                  gamma_samples=8), seed=i)
                engine._saturated[1] = frozenset(np.flatnonzero(rng.random(g.n) < 0.4).tolist())
                engine.saturated_set(depth)  # the gamma runs, before the spy counts
                region = set(np.flatnonzero(rng.random(g.n) < 0.5).tolist())
                for rand in (engine.rand, engine.rand.perturbed(depth, region.issuperset)):
                    engine.rand = rand
                    for s in range(3):
                        key = ("diff", s)
                        creal = frozenset(e for e in cls.crucial_edges if rng.random() < 0.6)
                        calls.clear()
                        fast = engine.run(depth, creal, key)
                        untraced = len(calls)
                        full = engine.run(depth, creal, key, trace=[])
                        traced = len(calls) - untraced
                        assert fast == full
                        assert untraced <= traced == (engine.params.alpha + 1) ** (depth - 1)
                        seen["selected"] += len(fast)
                        seen["fewer_saturated"] += untraced < traced and bool(
                            engine.saturated_set(1))
                        seen["live_skip"] += depth == 1 and bool(creal) and not untraced
    assert all(seen.values()), seen


def test_enumeration_is_exactly_the_taut_subset():
    # Brute-force every labeled walk (backtracking and repeats allowed),
    # filter by the augmenting definition, and compare: the enumeration must
    # return exactly the taut walks, every decorated augmenting walk must
    # conflict with some taut walk, and must have a taut walk with the same
    # application effect.
    from helpers import canonical_walk

    rng = np.random.default_rng(7)

    def random_profile():
        n = int(rng.integers(3, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        m = int(rng.integers(2, min(5, len(pairs)) + 1))
        g = StochasticGraph(n, [(u, v, 0.9) for u, v in pairs[:m]])
        cls = classify(g, np.full(m, 0.9), 0.05, 0.5, 0.3)
        slots = int(rng.integers(1, 4))
        realized, matchings = [], []
        for _ in range(slots):
            real = frozenset(e for e in range(m) if rng.random() < 0.8)
            cover, mat = set(), set()
            for e in sorted(real, key=lambda _: rng.random()):
                u, v = g.endpoints(e)
                if rng.random() < 0.6 and u not in cover and v not in cover:
                    mat.add(e)
                    cover.update((u, v))
            realized.append(real)
            matchings.append(frozenset(mat))
        return g, Profile(cls, realized, matchings)

    def brute_walks(profile, saturated, cap):
        cadj = profile.cls.crucial_adjacency()
        out = {}

        def extend(cur, steps, verts):
            if len(steps) % 2 == 1:
                w = canonical_walk(tuple(steps), tuple(verts))
                key = (w.steps, w.vertices)
                if key not in out:
                    v0, vk = w.vertices[0], w.vertices[-1]
                    if (v0 not in saturated and vk not in saturated
                            and is_augmenting(profile, w)):
                        out[key] = w
            if len(steps) == cap:
                return
            for nbr, e in cadj.get(cur, ()):
                for s in range(len(profile.realized)):
                    steps.append((e, s))
                    verts.append(nbr)
                    extend(nbr, steps, verts)
                    steps.pop()
                    verts.pop()

        for v0 in sorted(cadj):
            extend(v0, [], [v0])
        return out

    def is_taut(profile, w):
        used = set()
        for pos, (e, s) in enumerate(w.steps, start=1):
            if (e, s) in used:
                return False
            used.add((e, s))
            if pos % 2 == 1:
                if e not in profile.realized[s] or e in profile.matchings[s]:
                    return False
            elif e not in profile.matchings[s]:
                return False
        return True

    def effect(profile, w):
        return tuple(apply_hyperwalks(profile, [w]).matchings)

    for _ in range(25):
        g, prof = random_profile()
        sat = frozenset(int(v) for v in range(g.n) if rng.random() < 0.3)
        mine = {(w.steps, w.vertices): w
                for w in enumerate_augmenting_hyperwalks(prof, sat, 3)}
        full = brute_walks(prof, sat, 3)
        assert set(mine) <= set(full)
        assert {k for k, w in full.items() if is_taut(prof, w)} == set(mine)
        taut_effects = {effect(prof, w) for w in mine.values()}
        for key, w in full.items():
            if key in mine:
                continue
            assert any(set(w.vertices) & set(mine[t].vertices) for t in mine)
            assert effect(prof, w) in taut_effects


def test_triple_independence_across_components():
    # Three single-edge components: matched indicators of one endpoint per
    # component must factorize jointly, not just pairwise.
    g = StochasticGraph(6, [(0, 1, 0.5), (2, 3, 0.5), (4, 5, 0.5)])
    cls = all_crucial(g)
    params = VimParams(epsilon=0.3, alpha=3, depth=2, gamma_samples=200)
    engine = VimEngine(cls, params, seed=23)
    runs = 6000
    X = engine.matched_indicators(("trip",), runs, 2)[:, [0, 2, 4]]
    joint = float(np.mean(X.all(axis=1)))
    product = float(np.prod(X.mean(axis=0)))
    se = 3 * math.sqrt(max(joint * (1 - joint), product) / runs) + 3e-3
    assert abs(joint - product) <= se, (joint, product)


def _sha_lines(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_outputs_pinned_against_randomness_format_drift():
    # Pinned outputs of the current randomness format: any change to key
    # encoding or draw addressing moves them.
    g = StochasticGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    cls = classify(g, exact_stats(g).q, 0.1, 0.2, epsilon=0.3)
    params = VimParams(epsilon=0.3, alpha=11, depth=2, gamma_samples=300)
    engine = VimEngine(cls, params, seed=13)
    outputs = []
    for s in range(50):
        key = ("bench", 13, s)
        outputs.append(sorted(engine.run(2, engine.input_realization(key), key=key)))
    assert _sha_lines(outputs) == (
        "d8af72c9f6d55653285190080131814cdb268d8ce3ae3d6873a8fb969e652313"
    )

    g = path_graph(3, 0.6)
    cls = all_crucial(g)
    engine = VimEngine(cls, VimParams(epsilon=0.3, alpha=2, depth=2, gamma_samples=40),
                       seed=4)
    assert [engine.dependency_radius(v, 2, trials=10) for v in range(4)] == [1, 1, 1, 1]
    assert engine.perturbations_run == 56


def test_trace_records_undecided_mis_nodes(monkeypatch):
    # One Luby round cannot settle every conflict, so some walks stay
    # undecided; the trace must say how many, and never more than were left.
    g = path_graph(4, 0.9)
    cls = all_crucial(g)
    monkeypatch.setattr(mis, "_ROUND_FACTOR", 0.01)
    params = VimParams(epsilon=0.3, alpha=4, depth=1, gamma_samples=10)
    engine = VimEngine(cls, params, seed=3)
    undecided = 0
    for s in range(30):
        trace = []
        engine.run(1, engine.input_realization(("und", s)), key=("und", s), trace=trace)
        for entry in trace:
            assert entry.mis_rounds <= 1
            assert entry.selected + entry.mis_undecided <= entry.candidates
            undecided += entry.mis_undecided
    assert undecided > 0


def test_every_selection_gets_the_engine_round_budget(monkeypatch):
    # The round budget is fixed when the engine is built, before any draw,
    # from epsilon and the candidate cap: every Luby selection of the engine
    # gets it, whatever its node's candidates, and a round factor changed
    # afterwards moves nothing.
    calls = []
    luby = vim.luby_rounds

    def spy(members, budget, priorities):
        calls.append((len(members), budget))
        return luby(members, budget, priorities)

    monkeypatch.setattr(vim, "luby_rounds", spy)
    engine = _er10_engine()
    assert engine.mis_rounds == mis.mis_round_budget(vim._MAX_CANDIDATE_WALKS - 1, 0.3) == 77
    monkeypatch.setattr(mis, "_ROUND_FACTOR", 0.05)
    for s in range(10):
        key = ("spy", s)
        engine.run(2, engine.input_realization(key), key=key, trace=[])
    candidates, budgets = zip(*calls)
    assert len(set(candidates)) > 5 and set(budgets) == {77}


def test_far_component_leaves_the_output_unchanged(monkeypatch):
    # Vertex independence at infinite distance, exactly: at a round factor
    # where budgets bind, the matching on a 4-vertex path is the same whether
    # a K6 beside it is realized in full or not at all.  A budget taken from
    # each node's candidates grows with K6's walks and changes it.
    k6 = [(u, v, 0.8) for u, v in itertools.combinations(range(4, 10), 2)]
    g = StochasticGraph(10, [(0, 1, 0.8), (1, 2, 0.8), (2, 3, 0.8)] + k6)
    cls = all_crucial(g)
    assert len(cls.crucial_edges) == g.m
    monkeypatch.setattr(mis, "_ROUND_FACTOR", 0.07)
    engine = VimEngine(cls, VimParams(epsilon=0.3, alpha=3, depth=1, gamma_samples=20), seed=0)
    path, clique = frozenset(range(3)), frozenset(range(3, g.m))
    matched = 0
    for s in range(200):
        key = ("far", s)
        alone = engine.run(1, path, key) & path
        assert engine.run(1, path | clique, key) & path == alone, s
        matched += bool(alone)
    assert matched > 0


def _trace_digest(engine, runs, tag):
    """sha256 of each run's matching and LevelTraces, and ``engine.mis_rounds``;
    with the number of MIS nodes the traces leave undecided."""
    parts = []
    undecided = 0
    for s in range(runs):
        key = (tag, s)
        trace = []
        z = engine.run(engine.params.depth, engine.input_realization(key), key=key,
                       trace=trace)
        parts.append((sorted(z), [dataclasses.astuple(t) for t in trace]))
        undecided += sum(t.mis_undecided for t in trace)
    parts.append(engine.mis_rounds)
    return _sha_lines(parts), undecided


def _er10_all_crucial():
    g = erdos_renyi(10, 0.3, (0.3, 0.9), seed=5)
    assert g.m == 13
    return all_crucial(g)


def _path3_engine():
    g = StochasticGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    cls = classify(g, exact_stats(g).q, 0.1, 0.2, epsilon=0.3)
    return VimEngine(cls, VimParams(epsilon=0.3, alpha=11, depth=2, gamma_samples=300),
                     seed=13)


def _er10_engine():
    return VimEngine(_er10_all_crucial(),
                     VimParams(epsilon=0.3, alpha=3, depth=2, gamma_samples=40), seed=5)


def _sampling_loop(engine, prefix, runs, depth):
    """The per-caller loop ``matched_indicators`` replaced: matched-vertex
    counts and matching sizes of the runs at keys ``prefix + (s,)``."""
    g = engine.cls.graph
    X = np.zeros((runs, g.n), dtype=bool)
    counts = np.zeros(g.n)
    sizes = []
    for s in range(runs):
        key = prefix + (s,)
        z = engine.run(depth, engine.input_realization(key), key=key)
        sizes.append(len(z))
        for e in z:
            u, v = g.endpoints(e)
            X[s, u] = X[s, v] = True
            counts[u] += 1
            counts[v] += 1
    return X, counts, sizes


@pytest.mark.parametrize("make", [_path3_engine, _er10_engine], ids=["path3", "er10"])
def test_matched_indicators_equal_the_sampling_loop(make):
    for depth in (1, 2):
        X = make().matched_indicators(("diff",), 40, depth)
        want, _, sizes = _sampling_loop(make(), ("diff",), 40, depth)
        assert X.dtype == bool and np.array_equal(X, want)
        assert X.sum(axis=1).tolist() == [2 * z for z in sizes]
    for r in (1, 2):
        engine = make()
        samples = engine.params.gamma_samples
        _, counts, _ = _sampling_loop(make(), ("gamma", r), samples, r)
        assert np.array_equal(engine.gamma_table(r), counts / samples)


@pytest.mark.parametrize("case", ["path3", "er10", "er10_one_round"])
def test_level_traces_pinned(case, monkeypatch):
    # Every LevelTrace (candidates, selected, MIS rounds and undecided nodes,
    # slot sizes) and the engine's round budget: a change of the budget or
    # the rounds moves them even where the matchings stay.  er10_one_round's
    # round factor gives a budget of one round, which leaves MIS nodes
    # undecided.
    if case == "path3":
        engine = _path3_engine()
        runs, tag = 50, "bench"
        want = "7df2469a5bffd3cf21f6c78edc6b9c1fa763c6ff2cf46d433315367de92704be", 77
    elif case == "er10":
        engine = _er10_engine()
        runs, tag = 30, "pin"
        want = "c6f5cf3eb1929e31b084547efd0525aa2aaf1916eb83b6096a6d330c427982cb", 77
    else:
        monkeypatch.setattr(mis, "_ROUND_FACTOR", 0.02)
        engine = _er10_engine()
        runs, tag = 30, "pin"
        want = "4535a50822ffc300944ee856fe7f7d8d6d777802135008e2bef2d808d9b37230", 1
    digest, undecided = _trace_digest(engine, runs, tag)
    assert (digest, engine.mis_rounds) == want
    assert undecided > 0 if case == "er10_one_round" else undecided == 0
