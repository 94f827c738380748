"""Generators, ratio estimation, concentration, independence, pipeline."""

import math

import numpy as np
import pytest

from stochmatch.decomposition import classify
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
from stochmatch import harness, vim
from stochmatch.vim import VimEngine, VimParams


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
    rep = independence_test(g, cls, VimEngine(cls, params, seed=6), samples=3000)
    assert rep.far_pairs, "cross-component pairs must qualify"
    assert rep.far_ok
    assert rep.controls_ok


def test_independence_no_pairs_notice():
    g = StochasticGraph(2, [(0, 1, 0.9)])
    stats = exact_stats(g)
    cls = classify(g, stats.q, tau_minus=0.05, tau_plus=0.4, epsilon=0.3)
    params = VimParams(epsilon=0.3, alpha=1, depth=1, gamma_samples=50)
    rep = independence_test(g, cls, VimEngine(cls, params, seed=0), samples=200)
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


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(graph_family="path", epsilon=1.2)
    with pytest.raises(ValueError):
        ExperimentConfig(graph_family="path", q_samples=0)
    with pytest.raises(ValueError):
        ExperimentConfig(graph_family="path", mode="quick")


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
    records = run_certificate_batch(g, cls, engine, R=16, runs=200, seed=72)
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
