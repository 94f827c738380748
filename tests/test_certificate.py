"""f values, the fractional assignments x and y, and blossom checks."""

import itertools
import math

import numpy as np
import pytest

from stochmatch.certificate import (
    FractionalAssignment,
    build_x,
    build_y,
    check_blossom,
    compute_f,
)
from stochmatch.certificate import test_f_properties as run_f_property_checks
from stochmatch.decomposition import classify
from stochmatch.errors import DivisionGuardError, SubsetCapError
from stochmatch.graph import Realization, StochasticGraph
from stochmatch.oracle import exact_stats
from stochmatch.sparsifier import SubgraphQ, build_q

from helpers import path2, small_corpus


def _cls_path2():
    g = path2()
    stats = exact_stats(g)
    return g, classify(g, stats.q, tau_minus=0.3, tau_plus=0.4, epsilon=0.25)


def _manual_q(g, t, R):
    return SubgraphQ(g, R, np.asarray(t, dtype=np.int64), build_purpose="sparsify")


def test_compute_f_crucial_edges_zero():
    g, cls = _cls_path2()
    q = _manual_q(g, [3, 1], R=4)
    f = compute_f(q, cls)
    assert f[0] == 0.0  # crucial
    assert f[1] == 0.25


def test_compute_f_cap_arithmetic():
    # t/R = 0.02 <= 1/sqrt(0.25 * 100) = 0.2 keeps the value; 0.3 loses it.
    g = StochasticGraph(4, [(0, 1, 0.5), (2, 3, 0.5)])
    cls = classify(g, [0.01, 0.01], tau_minus=0.05, tau_plus=0.5, epsilon=0.25)
    q = _manual_q(g, [2, 30], R=100)
    f = compute_f(q, cls)
    assert f[0] == pytest.approx(0.02)
    assert f[1] == 0.0


def test_build_x_crucial_in_z_and_q():
    g, cls = _cls_path2()
    q = _manual_q(g, [2, 0], R=4)
    realization = Realization(g, [True, False])
    x = build_x(q, [0], realization, cls, np.zeros(g.n))
    assert x.values[0] == 1.0
    assert x.values[1] == 0.0


def test_build_x_noncrucial_needs_realization():
    # Far non-crucial edge, f = 0.2, p = 0.5, both Pr[X] = 0 -> x = 0.4.
    g = StochasticGraph(4, [(0, 1, 0.5), (2, 3, 0.5)])
    cls = classify(g, [0.9, 0.01], tau_minus=0.05, tau_plus=0.5, epsilon=0.25)
    q = _manual_q(g, [1, 1], R=5)
    assert compute_f(q, cls)[1] == pytest.approx(0.2)
    x = build_x(q, [], Realization(g, [True, True]), cls, np.zeros(g.n))
    assert x.values[1] == pytest.approx(0.4)
    x0 = build_x(q, [], Realization(g, [True, False]), cls, np.zeros(g.n))
    assert x0.values[1] == 0.0


def test_build_x_excludes_z_endpoints():
    g = StochasticGraph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.9)])
    cls = classify(g, [0.01, 0.01, 0.9], tau_minus=0.05, tau_plus=0.5, epsilon=0.25)
    q = _manual_q(g, [1, 1, 2], R=5)
    x = build_x(q, [2], Realization(g, [True, True, True]), cls, np.zeros(g.n))
    # Edge 1 touches vertex 2 which is matched by Z; edge 0 is free.
    assert x.values[1] == 0.0
    assert x.values[0] > 0.0


def test_build_x_division_guard():
    g = StochasticGraph(4, [(0, 1, 0.5), (2, 3, 0.5)])
    cls = classify(g, [0.9, 0.01], tau_minus=0.05, tau_plus=0.5, epsilon=0.25)
    q = _manual_q(g, [1, 1], R=5)
    probs = np.zeros(g.n)
    probs[2] = 1.0
    with pytest.raises(DivisionGuardError):
        build_x(q, [], Realization(g, [True, True]), cls, probs)


def test_f_and_x_refuse_inputs_of_another_graph():
    # An equal graph that is another object: q.t and realization.present
    # index its edges, not the classification's.
    g, cls = _cls_path2()
    other = StochasticGraph(g.n, [(*g.endpoints(e), float(g.ps[e])) for e in range(g.m)])
    q = _manual_q(g, [2, 1], R=4)
    with pytest.raises(ValueError, match="classification's graph"):
        compute_f(_manual_q(other, [2, 1], R=4), cls)
    with pytest.raises(ValueError, match="classification's graph"):
        build_x(_manual_q(other, [2, 1], R=4), [], Realization(other, [True, True]), cls,
                np.zeros(g.n))
    with pytest.raises(ValueError, match="q's graph"):
        build_x(q, [], Realization(other, [True, True]), cls, np.zeros(g.n))
    assert compute_f(q, cls).tolist() == [0.0, 0.25]


def test_build_y_scaling_and_zeroing():
    g = StochasticGraph(4, [(0, 1, 0.5), (2, 3, 0.5)])
    x = FractionalAssignment(g, [0.8, 0.0])
    y = build_y(x, epsilon=0.25)
    assert y.values[0] == pytest.approx(0.8 / 1.25)

    x2 = FractionalAssignment(g, [1.5, 0.3])
    y2 = build_y(x2, epsilon=0.25)
    assert y2.values[0] == 0.0  # endpoint sum 1.5 > 1.25
    assert y2.values[1] == pytest.approx(0.3 / 1.25)
    assert np.all(y2.x_v <= 1.0 + 1e-12)


def test_build_y_zero_input():
    g = path2()
    y = build_y(FractionalAssignment(g, [0.0, 0.0]), 0.3)
    assert y.size == 0.0


def test_blossom_integral_matching_passes():
    g = StochasticGraph(6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
    rep = check_blossom(FractionalAssignment(g, [1.0, 1.0, 1.0]), max_size=5)
    assert rep.ok


def test_blossom_fractional_triangle_violation():
    g = StochasticGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    rep = check_blossom(FractionalAssignment(g, [0.5, 0.5, 0.5]), max_size=3)
    assert not rep.ok
    subset, value, bound = rep.violations[0]
    assert subset == (0, 1, 2)
    assert value == pytest.approx(1.5)
    assert bound == 1


def test_blossom_guard():
    g = path2()
    with pytest.raises(SubsetCapError):
        check_blossom(FractionalAssignment(g, [0.0, 0.0]), max_size=10)


def test_connected_subset_enumeration_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 7
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    edges.append((u, v, 1.0))
        if not edges:
            continue
        g = StochasticGraph(n, edges)
        values = rng.uniform(0.05, 0.4, size=len(edges))
        assign = FractionalAssignment(g, values)
        max_size = 5
        rep = check_blossom(assign, max_size=max_size, tol=1e-12)

        # Brute force: all subsets of support vertices, connectivity via the
        # support graph, same inequality.
        support_vertices = sorted({w for e in assign.support() for w in g.endpoints(e)})
        adj = {v: set() for v in support_vertices}
        for e in assign.support():
            u, v = g.endpoints(e)
            adj[u].add(v)
            adj[v].add(u)

        def connected(subset):
            subset = set(subset)
            start = next(iter(subset))
            seen = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for w in frontier:
                    for z in adj[w] & subset:
                        if z not in seen:
                            seen.add(z)
                            nxt.append(z)
                frontier = nxt
            return seen == subset

        expected_violations = set()
        count = 0
        for k in range(1, max_size + 1):
            for subset in itertools.combinations(support_vertices, k):
                if not connected(subset):
                    continue
                count += 1
                inside = sum(
                    assign.values[e]
                    for e in assign.support()
                    if set(g.endpoints(e)) <= set(subset)
                )
                if inside > len(subset) // 2 + 1e-12:
                    expected_violations.add(subset)
        assert rep.subsets_checked == count
        assert {v[0] for v in rep.violations} == expected_violations


def test_f_property_checks_on_small_instance():
    g = StochasticGraph(4, [(0, 1, 0.9), (2, 3, 0.4)])
    stats = exact_stats(g)
    cls = classify(g, stats.q, tau_minus=0.5, tau_plus=0.8, epsilon=0.25)
    assert cls.noncrucial_edges == (1,)
    batch = [build_q(g, R=8, seed=s) for s in range(300)]
    report = run_f_property_checks(cls, batch)
    assert report.vertex_sum_ok
    assert report.edges_ok


def test_f_all_crucial_vacuous():
    g, cls = _cls_path2()
    cls_all = classify(g, [0.9, 0.9], tau_minus=0.05, tau_plus=0.5, epsilon=0.25)
    batch = [build_q(g, R=4, seed=s) for s in range(20)]
    report = run_f_property_checks(cls_all, batch)
    assert report.per_edge == []
    assert report.vertex_sum_ok


def test_f_vertex_sums_never_exceed_one():
    for g in small_corpus(count=6, seed=51, max_edges=9):
        stats = exact_stats(g)
        cls = classify(g, stats.q, tau_minus=0.2, tau_plus=0.5, epsilon=0.25)
        for seed in range(10):
            q = build_q(g, R=6, seed=seed)
            f = compute_f(q, cls)
            assert np.all(g.vertex_sums(f) <= 1.0 + 1e-12)


def test_f_property_checks_fail_on_vertex_sums_over_one(monkeypatch):
    # On criterion 08's graph an f scaled by 10 sums to 1.25 at a vertex,
    # while the multiplicities t still sum to at most R at every vertex, so
    # only a check of the f sums themselves can fail here.
    from stochmatch import certificate

    g = StochasticGraph(4, [(0, 1, 0.9), (1, 2, 0.2), (2, 3, 0.9)])
    cls = classify(g, exact_stats(g).q, tau_minus=0.1, tau_plus=0.5, epsilon=0.3)
    batch = [build_q(g, R=16, seed=s) for s in range(40)]
    assert run_f_property_checks(cls, batch).vertex_sum_ok
    monkeypatch.setattr(certificate, "compute_f", lambda *args: 10.0 * compute_f(*args))
    assert max(g.vertex_sums(certificate.compute_f(q, cls)).max() for q in batch) == 1.25
    assert all(g.vertex_sums(q.t).max() <= q.R for q in batch)
    assert not run_f_property_checks(cls, batch).vertex_sum_ok


def test_x_support_and_exclusivity_invariants():
    # x lives only on realized member edges of Q; a crucial x_e = 1 at a
    # vertex forces every other incident value to zero.
    from stochmatch.oracle import exact_stats as _exact
    from stochmatch.vim import VimEngine, VimParams
    from stochmatch.graph import sample_realization
    from stochmatch.randomness import RandomStream

    g = StochasticGraph(4, [(0, 1, 0.9), (1, 2, 0.2), (2, 3, 0.9)])
    stats = _exact(g)
    cls = classify(g, stats.q, tau_minus=0.1, tau_plus=0.5, epsilon=0.3)
    params = VimParams(epsilon=0.3, alpha=3, depth=2, gamma_samples=200)
    engine = VimEngine(cls, params, seed=19)
    probs = engine.gamma_table(2)
    eps = 0.3
    crucial = set(cls.crucial_edges)
    p_min = g.p_min
    for s in range(120):
        q = build_q(g, R=8, seed=500 + s)
        real = sample_realization(g, RandomStream(33, ("xinv",)).child(s))
        creal = frozenset(e for e in real.edge_ids() if e in crucial)
        z = engine.run(2, creal, key=("xinv", s))
        x = build_x(q, z, real, cls, probs)
        for e in x.support():
            assert q.member[e] and real.present[e]
        for e in crucial:
            if x.values[e] == 1.0:
                for w in g.endpoints(e):
                    others = [d for d in range(g.m) if d != e and w in g.endpoints(d)]
                    assert all(x.values[d] == 0.0 for d in others)
        # Deterministic per-run cap, valid while Pr-hat stays below 1 - eps^2.
        if np.all(probs <= 1 - eps**2):
            assert np.all(x.x_v <= 1.0 / (p_min * eps**4) + 1e-9)


def test_crucial_only_x_equals_z_when_q_covers():
    # With every crucial edge in Q, the crucial part of x is exactly Z.
    g = StochasticGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    cls = classify(g, [0.9, 0.9], tau_minus=0.05, tau_plus=0.5, epsilon=0.3)
    q = _manual_q(g, [1, 1], R=1)
    x = build_x(q, [0, 1], Realization(g, [True, True]), cls, np.zeros(g.n))
    assert x.size == 2.0
    # Empty realization: nothing survives.
    x0 = build_x(q, [], Realization(g, [False, False]), cls, np.zeros(g.n))
    assert x0.size == 0.0
    assert build_y(x0, 0.3).size == 0.0
