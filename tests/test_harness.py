"""Generators, ratio estimation, concentration, independence, pipeline."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch.decomposition import classify, estimate_q
from stochmatch.generators import (
    bipartite_random,
    clique,
    erdos_renyi,
    generate,
    path,
    two_far_components,
)
from stochmatch.graph import StochasticGraph
from stochmatch.harness import (
    ExperimentConfig,
    assumption_holds,
    concentration_test,
    estimate_ratio,
    independence_test,
    run_pipeline,
)
from stochmatch.oracle import exact_stats
from stochmatch.randomness import RandomStream
from stochmatch import harness, vim
from stochmatch.vim import VimEngine, VimParams

from helpers import reference_family_graph


def test_generator_examples():
    g = clique(4, 1.0)
    assert g.n == 4 and g.m == 6 and np.all(g.ps == 1.0)
    p3 = path(3, 0.5)
    assert p3.m == 2 and np.all(p3.ps == 0.5)
    er1 = erdos_renyi(50, 0.2, 0.5, seed=9)
    er2 = erdos_renyi(50, 0.2, 0.5, seed=9)
    assert er1.edges == er2.edges
    assert erdos_renyi(50, 0.2, 0.5, seed=10).edges != er1.edges


def test_generator_ranges_and_bipartite():
    g = erdos_renyi(20, 0.4, (0.3, 0.9), seed=2)
    assert np.all((g.ps >= 0.3) & (g.ps <= 0.9))
    b = bipartite_random(4, 5, 0.5, 0.5, seed=1)
    for u, v, _ in b.edges:
        assert (u < 4) <= (v >= 4)


def test_generators_check_p_before_any_edge_is_drawn():
    # Density 0 draws no edge, so p is checked before the first draw or never.
    for bad in (2.0, 0.0, (0.9, 0.1), (0.0, 0.5), (0.2, 0.3, 0.4)):
        with pytest.raises(ValueError, match="probability"):
            erdos_renyi(5, 0.0, bad, 0)
        with pytest.raises(ValueError, match="probability"):
            bipartite_random(2, 3, 0.0, bad, 0)
        with pytest.raises(ValueError, match="probability"):
            clique(1, bad)
    assert erdos_renyi(5, 0.0, 0.5, 0).m == 0 and clique(1, (0.1, 0.9)).m == 0


@pytest.mark.parametrize("density", [1.5, -1.0, math.nan])
def test_densities_outside_zero_one_are_refused(density):
    with pytest.raises(ValueError, match=f"^density must be in \\[0, 1\\], got {density}$"):
        bipartite_random(2, 3, density, 0.5, 0)
    with pytest.raises(ValueError, match=f"^edge_density must be in \\[0, 1\\], got {density}$"):
        erdos_renyi(3, density, 0.5, 0)
    with pytest.raises(ValueError, match="^density must be in"):
        generate("bipartite_random", {"n1": 2, "n2": 3, "density": density, "p": 0.5})


_UNIT = st.floats(min_value=1e-6, max_value=1.0)
# A probability in (0, 1], or a range with 0 < lo <= hi <= 1 as a tuple or a list.
_PROBABILITY = st.one_of(_UNIT, st.tuples(_UNIT, _UNIT).map(sorted),
                         st.tuples(_UNIT, _UNIT).map(sorted).map(tuple))
_DENSITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _family_case(draw):
    """(family, params, seed, graph) over all five families; ER and bipartite
    seeds are sometimes perturbed streams, which resample every draw."""
    family = draw(st.sampled_from(["erdos_renyi", "bipartite_random", "clique", "path",
                                   "two_far_components"]))
    p = draw(_PROBABILITY)
    seed = draw(st.integers(0, 10**6))
    if family in ("erdos_renyi", "bipartite_random") and draw(st.booleans()):
        purpose = "gen-er" if family == "erdos_renyi" else "gen-bip"
        seed = RandomStream(seed, (purpose,)).perturbed(draw(st.integers(0, 5)),
                                                         lambda locus: True)
    if family == "erdos_renyi":
        params = {"n": draw(st.integers(1, 30)), "edge_density": draw(_DENSITY)}
        g = erdos_renyi(params["n"], params["edge_density"], p, seed)
    elif family == "bipartite_random":
        params = {"n1": draw(st.integers(1, 8)), "n2": draw(st.integers(1, 8)),
                  "density": draw(_DENSITY)}
        g = bipartite_random(params["n1"], params["n2"], params["density"], p, seed)
    elif family == "clique":
        params = {"n": draw(st.integers(1, 12))}
        g = clique(params["n"], p)
    elif family == "path":
        params = {"n": draw(st.integers(2, 20))}
        g = path(params["n"], p)
    else:
        params = {"gadget": draw(st.sampled_from(["edge", "path3", "triangle"]))}
        g = two_far_components(params["gadget"], p)
    return family, dict(params, p=p), seed, g


@settings(max_examples=150, deadline=None)
@given(_family_case())
def test_generators_equal_the_per_pair_reference(case):
    family, params, seed, g = case
    ref = reference_family_graph(family, params, seed)
    assert (g.n, g.edges) == (ref.n, ref.edges)


def test_generated_edges_pinned():
    # Digests of the edge tuples, taken before the families shared one
    # batched sampling routine; both graphs draw a range p.
    def digest(g):
        return hashlib.sha256(repr(g.edges).encode()).hexdigest()

    assert digest(erdos_renyi(300, 0.03, (0.2, 0.8), 7)) == (
        "041fb35880f8d9becf303cda5154648e20a3203bb9db02c1e066c701003a2752")
    assert digest(bipartite_random(9, 11, 0.35, (0.1, 0.8), 4)) == (
        "f3c90d4528a756f9dbe6512bf6ba44fdb88fb351e7c67d512de124db120fd09c")


def test_two_far_components_shape():
    g = two_far_components("edge", 0.5)
    assert g.n == 4 and g.m == 2
    g2 = two_far_components("path3", 0.5)
    assert g2.n == 6 and g2.m == 4
    with pytest.raises(ValueError):
        two_far_components("blob")


def test_generate_dispatch():
    g = generate("clique", {"n": 4, "p": 1.0})
    assert g.m == 6
    with pytest.raises(ValueError, match="unknown family"):
        generate("mystery", {})


def test_ratio_q_contains_everything():
    g = clique(6, 0.7)
    est = estimate_ratio(g, "algorithm1", R=64, outer=4, inner=30,
                         denom_samples=300, seed=3)
    assert est.ratio >= 1.0 - 3 * est.se - 0.05


def test_ratio_single_edge_hand_value():
    # Q contains the edge iff the build realization kept it (prob 0.5); the
    # member edge then realizes at evaluation independently: E mu(Q) = 0.25.
    g = StochasticGraph(2, [(0, 1, 0.5)])
    est = estimate_ratio(g, "algorithm1", R=1, outer=60, inner=60,
                         denom_samples=4000, seed=5)
    assert abs(est.ratio - 0.5) <= 3 * est.se + 0.02


def test_ratio_baseline_runs(monkeypatch):
    built = []
    original = harness.build_baseline_iterative
    monkeypatch.setattr(harness, "build_baseline_iterative",
                        lambda g, R: built.append(R) or original(g, R))
    g = clique(6, 0.5)
    est = estimate_ratio(g, "baseline_iterative", R=2, outer=3, inner=20,
                         denom_samples=200, seed=1)
    assert 0.0 < est.ratio <= 1.2
    assert built == [2]  # the deterministic baseline is built once, not once per outer seed


def test_concentration_deterministic_graph():
    g = clique(6, 1.0)
    rep = concentration_test(g, [0.25, 0.5], samples=200, seed=0)
    for entry in rep.entries:
        assert entry["empirical"] == 0.0
        assert entry["status"] == "pass"


def test_concentration_single_edge_out_of_precondition():
    g = StochasticGraph(2, [(0, 1, 0.5)])
    rep = concentration_test(g, [0.8], samples=2000, seed=1)
    entry = rep.entries[0]
    # Tail is 1 and the bound is below it, but opt < 1 labels the case.
    assert entry["empirical"] == 1.0
    assert entry["status"] == "out_of_precondition"
    assert not rep.failed


def test_concentration_er_graph():
    g = erdos_renyi(30, 0.3, 0.5, seed=4)
    rep = concentration_test(g, [0.25, 0.5], samples=2000, seed=2)
    for entry in rep.entries:
        assert entry["status"] == "pass"


def test_independence_two_far_components():
    g = two_far_components("edge", 0.5)
    stats = exact_stats(g)
    cls = classify(g, stats.q, tau_minus=0.05, tau_plus=0.4, epsilon=0.3)
    params = VimParams(epsilon=0.3, alpha=3, depth=2, gamma_samples=150)
    rep = independence_test(VimEngine(cls, params, seed=6), samples=3000)
    assert rep.far_pairs, "cross-component pairs must qualify"
    assert rep.far_ok
    assert rep.controls_ok


def test_independence_no_pairs_notice():
    g = StochasticGraph(2, [(0, 1, 0.9)])
    stats = exact_stats(g)
    cls = classify(g, stats.q, tau_minus=0.05, tau_plus=0.4, epsilon=0.3)
    params = VimParams(epsilon=0.3, alpha=1, depth=1, gamma_samples=50)
    rep = independence_test(VimEngine(cls, params, seed=0), samples=200)
    assert rep.notice is not None


def test_assumption_check():
    assert assumption_holds(5.0, 0.3, 10)
    assert not assumption_holds(0.1, 0.3, 100)


def _small_config(**overrides):
    base = dict(
        graph_family="path",
        graph_params={"n": 3, "p": 0.5},
        epsilon=0.3,
        seed=1,
        q_samples=4000,
        vim_runs=60,
        cert_runs=25,
        gamma_samples=100,
        ratio_outer=4,
        ratio_inner=15,
        ratio_denom=150,
        alpha=3,
        depth=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_pipeline_path3_all_hard_checks_pass():
    report = run_pipeline(_small_config())
    hard_failures = report.failed_checks
    assert hard_failures == [], f"failed: {hard_failures}"
    assert "ratio" in report.stages


def test_pipeline_reproducible_fingerprint():
    a = run_pipeline(_small_config())
    b = run_pipeline(_small_config())
    assert a.fingerprint() == b.fingerprint()
    c = run_pipeline(_small_config(seed=2))
    assert c.fingerprint() != a.fingerprint()


def test_pipeline_times_every_stage():
    config = _small_config(q_samples=500, vim_runs=10, cert_runs=5, gamma_samples=20,
                           ratio_outer=2, ratio_inner=3, ratio_denom=20)
    report = run_pipeline(config)
    assert list(report.timings) == [
        "graph", "estimate_q", "oracle", "schedule", "classify", "build_q",
        "vim", "certificate", "f_properties", "ratio",
    ]


def test_pipeline_paper_mode_refuses():
    from stochmatch.errors import ParameterOverflowError

    config = _small_config(mode="paper", epsilon=0.1, alpha=None, depth=None)
    with pytest.raises(ParameterOverflowError):
        run_pipeline(config)


def test_pipeline_paper_mode_takes_vim_params_from_epsilon():
    # At epsilon = 0.9 the paper-scale constants pass their guards; t0 = 0.99
    # keeps the paper-shaped schedule off its underflow guard.
    config = _small_config(mode="paper", epsilon=0.9, t0=0.99, alpha=None, depth=None)
    report = run_pipeline(config)
    vim_stage = report.stages["vim"]
    assert (vim_stage["alpha"], vim_stage["depth"], vim_stage["walk_cap"]) == (1, 3, 2)
    paper = [c for c in report.checks if c["name"] == "paper_mode"]
    assert [c["status"] for c in paper] == ["info"]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(graph_family="path", epsilon=1.2)
    with pytest.raises(ValueError):
        ExperimentConfig(graph_family="path", q_samples=0)
    with pytest.raises(ValueError):
        ExperimentConfig(graph_family="path", mode="quick")
    # Paper mode derives alpha, depth and walk_cap from epsilon, so setting
    # any of them is refused rather than dropped.
    with pytest.raises(ValueError, match=r"unset \['alpha', 'depth', 'walk_cap'\]"):
        ExperimentConfig(graph_family="path", mode="paper", epsilon=0.9, alpha=5, depth=1,
                         walk_cap=4)
    with pytest.raises(ValueError, match=r"unset \['walk_cap'\]"):
        ExperimentConfig(graph_family="path", mode="paper", epsilon=0.9, walk_cap=4)
    # estimate_ratio needs two outer and two denominator samples; the config
    # says so before any stage runs.
    for key in ("ratio_outer", "ratio_denom"):
        with pytest.raises(ValueError, match=f"{key} must be at least 2, got 1"):
            ExperimentConfig(graph_family="path", **{key: 1})


def test_config_refuses_a_non_positive_desk_c_lambda():
    # Refused when the config is built, before estimate_q and the oracle run;
    # paper mode takes lambda from epsilon and ignores c_lambda.
    for c_lambda in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"c_lambda must be positive, got {c_lambda}"):
            ExperimentConfig(graph_family="path", c_lambda=c_lambda)
    assert ExperimentConfig(graph_family="path", mode="paper", c_lambda=-1.0).c_lambda == -1.0


def test_estimate_ratio_needs_two_outer_and_denominator_samples():
    # The same minimums as ExperimentConfig's ratio_outer and ratio_denom.
    g = StochasticGraph(2, [(0, 1, 0.5)])
    for name in ("outer", "denom_samples"):
        with pytest.raises(ValueError, match=f"{name} must be at least 2, got 1"):
            estimate_ratio(g, "algorithm1", 1, **{name: 1})


def test_from_dict_checks_each_value_against_its_field_type():
    # An int passes as a float and None passes for an optional field.
    config = ExperimentConfig.from_dict({"graph_family": "path", "c_lambda": 3, "R": None,
                                         "t0": 0.5, "graph_params": {"n": 3}})
    assert config.c_lambda == 3 and config.R is None and config.t0 == 0.5
    for key, value in [("epsilon", "0.3"), ("q_samples", 2.5), ("seed", True),
                       ("R", 2.0), ("force_paper", 1), ("graph_params", [3]),
                       ("mode", None), ("graph_family", 3)]:
        with pytest.raises(ValueError, match=f"config key '{key}' must be "):
            ExperimentConfig.from_dict({key: value})


def test_report_raw_dump_fidelity():
    # Every reported mean must be recomputable from the raw per-run dump.
    report = run_pipeline(_small_config())
    vim_stage = report.stages["vim"]
    assert vim_stage["mean_Z"] == pytest.approx(
        float(np.mean(vim_stage["raw_sizes"])), abs=1e-12
    )
    cert = report.stages["certificate"]
    assert cert["mean_x"] == pytest.approx(float(np.mean(cert["raw_x_sizes"])), abs=1e-12)
    assert cert["mean_y"] == pytest.approx(float(np.mean(cert["raw_y_sizes"])), abs=1e-12)
    assert cert["mean_mu_Q"] == pytest.approx(float(np.mean(cert["raw_mu_q"])), abs=1e-12)


def test_certificate_crucial_mass_tracks_z():
    # Mean x over crucial edges stays within (1 - eps) of the mean matching
    # size, three sigma, because crucial edges are in Q with high probability.
    from stochmatch.harness import run_certificate_batch

    g = StochasticGraph(4, [(0, 1, 0.9), (1, 2, 0.2), (2, 3, 0.9)])
    stats = exact_stats(g)
    cls = classify(g, stats.q, tau_minus=0.1, tau_plus=0.5, epsilon=0.3)
    engine = VimEngine(cls, VimParams(epsilon=0.3, alpha=3, depth=2,
                                      gamma_samples=200), seed=71)
    records = run_certificate_batch(engine, R=16, runs=200, seed=72)
    xc = np.array([r.x_crucial for r in records])
    zs = np.array([r.z_size for r in records], dtype=float)
    se = 3 * math.sqrt(np.var(xc) / len(xc) + np.var(zs) / len(zs))
    assert xc.mean() >= (1 - cls.epsilon) * zs.mean() - se


# Pinned run_pipeline fingerprints: a refactor of the randomness or of the
# harness that moves any reported value fails here.  The ER graph has
# m = 134 > 62 edges, so estimate_q runs without its bitmask memo.
PINNED_PIPELINES = [
    (
        dict(graph_family="path", graph_params={"n": 3, "p": 0.5}, epsilon=0.3, seed=3,
             q_samples=3000, vim_runs=40, cert_runs=15, gamma_samples=60,
             ratio_outer=3, ratio_inner=10, ratio_denom=100, alpha=2, depth=2),
        2,
        "e72ab268034995c908c59d21845786117d753244a3f2363dabe832d305487a29",
    ),
    (
        dict(graph_family="erdos_renyi",
             graph_params={"n": 40, "edge_density": 0.15, "p": [0.2, 0.9]},
             seed=2, q_samples=1000, vim_runs=20, cert_runs=20, gamma_samples=20,
             ratio_outer=2, ratio_inner=3, ratio_denom=20, alpha=1, depth=1, R=8, t0=0.5),
        134,
        "ca62b73479eec56dc83a0e00dfed2c82275553a08625deb20aa46674bf06f95d",
    ),
]


@pytest.mark.parametrize("config, m, fingerprint", PINNED_PIPELINES,
                         ids=["path3", "erdos_renyi40"])
def test_pipeline_fingerprints_pinned(config, m, fingerprint):
    report = run_pipeline(ExperimentConfig(**config))
    assert report.stages["graph"]["m"] == m
    assert not report.failed_checks
    assert report.fingerprint() == fingerprint


class _Stop(Exception):
    pass


@pytest.mark.parametrize("oracle_cap", [1, 14], ids=["estimate", "oracle"])
def test_pipeline_f_band_counts_the_q_error_without_an_oracle(monkeypatch, oracle_cap):
    # Without the exact oracle (m = 2 > oracle_cap) q comes from estimate_q,
    # so the f-edge band must widen by its standard errors, as `certify` does;
    # with the oracle q is exact and no standard error is passed.
    seen = {}

    def record(*args, **kwargs):
        seen.update(kwargs)
        raise _Stop

    monkeypatch.setattr(harness, "run_f_property_batch", record)
    config = ExperimentConfig(**PINNED_PIPELINES[0][0], oracle_cap=oracle_cap)
    with pytest.raises(_Stop):
        run_pipeline(config)
    if oracle_cap == 1:
        est = estimate_q(config.load_graph(), config.q_samples, config.seed)
        assert np.array_equal(seen["q_se"], est.se_q)
    else:
        assert seen.get("q_se") is None


def test_broken_counting_identity_aborts(monkeypatch):
    # The pipeline reports vim_counting_identity as "pass" without re-checking
    # traces, because every VIM node raises before returning a matching whose
    # identity fails; an apply that adds nothing must therefore abort the run.
    monkeypatch.setattr(vim, "apply_hyperwalks", lambda profile, walks: profile)
    g = path(3, 0.5)
    cls = classify(g, exact_stats(g).q, 0.1, 0.2, epsilon=0.3)
    engine = VimEngine(cls, VimParams(epsilon=0.3, alpha=11, depth=2, gamma_samples=300),
                       seed=13)
    with pytest.raises(AssertionError, match="counting identity"):
        engine.run(2, engine.input_realization(("broken", 0)), key=("broken", 0))
    report = None
    with pytest.raises(AssertionError, match="counting identity"):
        report = run_pipeline(ExperimentConfig(**PINNED_PIPELINES[0][0]))
    assert report is None
