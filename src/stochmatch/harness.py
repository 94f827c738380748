"""Experiment orchestration: ratio estimation, statistical tests, pipeline.

Every statistical pass/fail uses pre-registered three-sigma thresholds
computed from the recorded per-run values.  Reports are plain dictionaries of
JSON-serializable values; rebuilding a report from the same config and seed
gives byte-identical JSON apart from the timings block, which the report
fingerprint excludes.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import combinations, islice

import numpy as np

from .certificate import (
    CertificateRun,
    FPropertyReport,
    build_x,
    build_y,
    certificate_size_report,
    check_blossom,
    test_f_properties,
)
from .decomposition import check_c_lambda, classify, estimate_q, threshold_schedule
from .errors import StochmatchError
from .generators import generate
from .graph import Realization, StochasticGraph, sample_realization
from .matching import mu
from .oracle import exact_stats
from .randomness import RandomStream
from .sparsifier import build_baseline_iterative, build_q, default_R, realize_and_match_q
from .stats import binomial_se, check_epsilon, covariance_se, mean_se, ratio_se
from .vim import VimEngine, VimParams

__all__ = [
    "RatioEstimate",
    "estimate_ratio",
    "ConcentrationReport",
    "concentration_test",
    "IndependenceReport",
    "independence_test",
    "run_certificate_batch",
    "run_f_property_batch",
    "ExperimentConfig",
    "ExperimentReport",
    "run_pipeline",
    "assumption_holds",
]


# -- approximation ratio ------------------------------------------------------

_RATIO_LEAST = {"outer": 2, "inner": 1, "denom_samples": 2}  # two samples give a standard error


@dataclass
class RatioEstimate:
    builder: str
    R: int
    ratio: float
    se: float
    num_mean: float
    num_se: float
    den_mean: float
    den_se: float

    def to_dict(self):
        return asdict(self)


def estimate_ratio(
    g: StochasticGraph,
    builder: str,
    R: int,
    *,
    outer: int = 12,
    inner: int = 40,
    denom_samples: int = 600,
    seed: int = 0,
) -> RatioEstimate:
    """Ê[mu(realized Q)] / Ê[mu(realized G)] with a delta-method CI.

    One subgraph per outer seed (the builder is randomized), many evaluation
    realizations per subgraph; the outer-level means are the i.i.d. samples.
    """
    for name, value in (("outer", outer), ("inner", inner), ("denom_samples", denom_samples)):
        if value < _RATIO_LEAST[name]:
            raise ValueError(f"{name} must be at least {_RATIO_LEAST[name]}, got {value}")
    build_stream = RandomStream(seed, ("ratio-build",))
    eval_stream = RandomStream(seed, ("ratio-eval",))
    denom_stream = RandomStream(seed, ("ratio-denom",))
    if builder == "baseline_iterative":
        baseline = build_baseline_iterative(g, R)  # deterministic: one Q for every outer seed
    elif builder != "algorithm1":
        raise ValueError(f"unknown builder {builder!r}")
    per_q_means = []
    for o in range(outer):
        q = build_q(g, R, build_stream.child(o)) if builder == "algorithm1" else baseline
        vals = [realize_and_match_q(q, eval_stream.child(o, i))[1] for i in range(inner)]
        per_q_means.append(float(np.mean(vals)))
    num_mean, num_se = mean_se(per_q_means)
    mus = [
        mu(g, sample_realization(g, denom_stream.child(i))) for i in range(denom_samples)
    ]
    den_mean, den_se = mean_se(mus)
    ratio, se = ratio_se(num_mean, num_se, den_mean, den_se)
    return RatioEstimate(
        builder=builder, R=R, ratio=ratio, se=se,
        num_mean=num_mean, num_se=num_se, den_mean=den_mean, den_se=den_se,
    )


# -- concentration ------------------------------------------------------------


@dataclass
class ConcentrationReport:
    opt_hat: float
    samples: int
    entries: list  # dicts: fraction, t, empirical, bound, se, status

    @property
    def failed(self) -> bool:
        return any(e["status"] == "fail" for e in self.entries)


def concentration_test(g: StochasticGraph, t_fractions, samples: int, seed: int) -> ConcentrationReport:
    """Empirical tail of |mu - opt_hat| against exp(-t^2 / (2 opt + 2t/3)).

    The bound needs 0 < t <= opt and an expectation large enough that the
    +-t band is meaningful for an integer variable; cases with t > opt_hat or
    opt_hat < 1 are labeled out_of_precondition rather than failed.
    """
    if samples < 100:
        raise ValueError("concentration test needs at least 100 samples")
    stream = RandomStream(seed, ("conc",))
    mus = np.array(
        [mu(g, sample_realization(g, stream.child(i))) for i in range(samples)],
        dtype=float,
    )
    opt_hat = float(mus.mean())
    entries = []
    for frac in t_fractions:
        t = float(frac) * opt_hat
        if t <= 0:
            entries.append({"fraction": float(frac), "t": t, "empirical": 1.0,
                            "bound": 1.0, "se": 0.0, "status": "out_of_precondition"})
            continue
        empirical = float(np.mean(np.abs(mus - opt_hat) >= t))
        bound = math.exp(-(t * t) / (2.0 * opt_hat + 2.0 * t / 3.0))
        se = float(binomial_se(empirical, samples))
        if t > opt_hat or opt_hat < 1.0:
            status = "out_of_precondition"
        elif empirical <= bound + 3.0 * se:
            status = "pass"
        else:
            status = "fail"
        entries.append({"fraction": float(frac), "t": t, "empirical": empirical,
                        "bound": bound, "se": se, "status": status})
    return ConcentrationReport(opt_hat=opt_hat, samples=samples, entries=entries)


# -- independence --------------------------------------------------------------


# independence_test checks at most this many far pairs and control edges.
_MAX_PAIRS = 200


@dataclass
class IndependenceReport:
    samples: int
    lam: float
    match_freq: list  # per vertex: fraction of samples in which it is matched
    far_pairs: list  # dicts: u, v, distance, cov, se, status
    controls: list  # dicts: u, v, cov, se, status
    notice: str | None = None

    @property
    def far_ok(self) -> bool:
        return all(p["status"] == "pass" for p in self.far_pairs)

    @property
    def controls_ok(self) -> bool:
        return all(c["status"] == "control_ok" for c in self.controls)


def independence_test(engine: VimEngine, samples: int) -> IndependenceReport:
    """Covariance of matched indicators for far vertex pairs, plus controls.

    Far pairs (crucial-graph distance at least lambda) should show covariance
    within three standard errors of zero; endpoints of one crucial edge are
    the positively correlated negative control.  The classification, its
    graph and lambda are the engine's (``engine.cls``).  The samples are the
    engine's ``matched_indicators`` at its full depth, so its gamma tables
    can be shared with the caller.
    """
    classification = engine.cls
    g = classification.graph
    lam = classification.lam
    X = engine.matched_indicators(("ind",), samples, engine.params.depth)

    active = [v for v in range(g.n) if classification.c_v[v] > 0]
    distances = ((u, v, classification.d_C(u, v)) for u, v in combinations(active, 2))
    far_pairs = list(islice((p for p in distances if p[2] >= lam), _MAX_PAIRS))

    far_results = []
    for u, v, d in far_pairs:
        cov, se = covariance_se(X[:, u], X[:, v])
        status = "pass" if abs(cov) <= 3.0 * se + 1e-12 else "fail"
        far_results.append({"u": u, "v": v,
                            "distance": (None if math.isinf(d) else d),
                            "cov": cov, "se": se, "status": status})

    controls = []
    for e in classification.crucial_edges[:_MAX_PAIRS]:
        u, v = g.endpoints(e)
        cov, se = covariance_se(X[:, u], X[:, v])
        status = "control_ok" if cov > 3.0 * se else "control_weak"
        controls.append({"u": u, "v": v, "cov": cov, "se": se, "status": status})

    notice = None if far_pairs else "no qualifying far pairs at this lambda"
    return IndependenceReport(samples=samples, lam=lam, match_freq=X.mean(axis=0).tolist(),
                              far_pairs=far_results, controls=controls, notice=notice)


# -- certificate batch ---------------------------------------------------------


def run_certificate_batch(engine: VimEngine, R: int, runs: int, seed: int) -> list[CertificateRun]:
    """Full per-run certificate pipeline: Q, realization, Z, f, x, y, checks.

    The classification, its graph and eps are the engine's (``engine.cls``);
    Z is the engine's run at its full depth, and x divides by its gamma
    table at that depth.  Blossom inequalities are checked on connected sets
    of up to min(ceil(1/eps), 9) vertices, the enumeration guard of
    ``check_blossom``.
    """
    classification = engine.cls
    g = classification.graph
    eps = classification.epsilon
    depth = engine.params.depth
    x_probs = engine.gamma_table(depth)
    crucial = frozenset(classification.crucial_edges)
    blossom_max = min(math.ceil(1.0 / eps), 9)
    build_stream = RandomStream(seed, ("cert-build",))
    eval_stream = RandomStream(seed, ("cert-eval",))
    records = []
    for s in range(runs):
        q = build_q(g, R, build_stream.child(s))
        realization = sample_realization(g, eval_stream.child(s))
        creal = frozenset(e for e in realization.edge_ids() if e in crucial)
        z = engine.run(depth, creal, key=("cert", s))
        x = build_x(q, z, realization, classification, x_probs)
        y = build_y(x, eps)
        mu_q = mu(g, Realization(g, realization.present & q.member))
        blossom = check_blossom(y, max_size=blossom_max)
        x_crucial = float(sum(x.values[e] for e in crucial))
        records.append(
            CertificateRun(
                x_size=x.size,
                y_size=y.size,
                mu_q=mu_q,
                x_crucial=x_crucial,
                z_size=len(z),
                x_v=x.x_v.copy(),
                y_valid=bool(np.all(y.x_v <= 1.0 + 1e-12)),
                blossom_ok=blossom.ok,
                edmonds_ok=bool(mu_q >= (1.0 - eps) * y.size - 1e-12),
            )
        )
    return records


def run_f_property_batch(classification, R: int, runs: int, seed: int,
                         *, q_se=None) -> FPropertyReport:
    """``test_f_properties`` over ``runs`` sparsifier builds of the
    classification's graph, keyed ("fprop", s)."""
    stream = RandomStream(seed, ("fprop",))
    batch = [build_q(classification.graph, R, stream.child(s)) for s in range(runs)]
    return test_f_properties(classification, batch, q_se=q_se)


# -- pipeline -------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Everything a pipeline run depends on; serializable for reproducibility."""

    # The fields that, when set, override a desk-mode VimParams default.
    _VIM_OVERRIDES = ("alpha", "depth", "walk_cap")

    graph_family: str | None = None
    graph_params: dict = field(default_factory=dict)
    graph_file: str | None = None
    epsilon: float = 0.3
    seed: int = 0
    mode: str = "desk"  # "desk" or "paper"
    force_paper: bool = False
    q_samples: int = 20_000
    vim_runs: int = 200
    cert_runs: int = 60
    gamma_samples: int = 300
    ratio_outer: int = 8
    ratio_inner: int = 30
    ratio_denom: int = 400
    R: int | None = None
    alpha: int | None = None
    depth: int | None = None
    walk_cap: int | None = None
    c_lambda: float = 2.0
    t0: float | None = None
    gamma: float = 0.3
    oracle_cap: int = 14
    default_r_cap: int = 4096

    def __post_init__(self):
        check_epsilon(self.epsilon)
        for name, least in (("q_samples", 1), ("vim_runs", 1), ("cert_runs", 1),
                            ("gamma_samples", 1), ("ratio_outer", _RATIO_LEAST["outer"]),
                            ("ratio_inner", _RATIO_LEAST["inner"]),
                            ("ratio_denom", _RATIO_LEAST["denom_samples"])):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.mode not in ("desk", "paper"):
            raise ValueError(f"mode must be 'desk' or 'paper', got {self.mode!r}")
        if self.mode == "desk":
            check_c_lambda(self.c_lambda)
        fixed = [k for k in self._VIM_OVERRIDES if getattr(self, k) is not None]
        if self.mode == "paper" and fixed:
            raise ValueError(f"paper mode takes alpha, depth and walk_cap from epsilon; "
                             f"unset {fixed}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """A config from a JSON object of field values; unknown keys raise ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError(f"a config is a JSON object of fields, not a {type(data).__name__}")
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(data) - set(types))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        for key, value in data.items():
            if not _has_type(value, types[key]):
                raise ValueError(f"config key {key!r} must be {types[key]}, "
                                 f"got {type(value).__name__} {value!r}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    def load_graph(self) -> StochasticGraph:
        if self.graph_file:
            try:
                return StochasticGraph.from_file(self.graph_file)
            except OSError as exc:
                raise ValueError(f"cannot read {self.graph_file}: {exc.strerror}") from exc
        if self.graph_family:
            return generate(self.graph_family, self.graph_params, self.seed)
        raise ValueError("no graph: set graph_file (--graph) or graph_family (--family)")

    def vim_params(self) -> VimParams:
        if self.mode == "paper":
            return VimParams.paper(
                self.epsilon,
                force=self.force_paper,
                gamma_samples=self.gamma_samples,
            )
        return VimParams(epsilon=self.epsilon, gamma_samples=self.gamma_samples,
                         **{k: getattr(self, k) for k in self._VIM_OVERRIDES
                            if getattr(self, k) is not None})

    def sparsifier_R(self, tau_minus: float) -> int:
        """The sparsifier width: ``R``, else ``default_R(tau_minus, default_r_cap)``."""
        return default_R(tau_minus, cap=self.default_r_cap) if self.R is None else self.R


def _has_type(value, annotation: str) -> bool:
    """Whether ``value`` is of a type the annotation (e.g. ``"int | None"``)
    names; an int also passes as a float, a bool never as an int."""
    names = {name.strip() for name in annotation.split("|")}
    kind = "None" if value is None else type(value).__name__
    return kind in names or (kind == "int" and "float" in names)


def assumption_holds(opt_hat: float, epsilon: float, n: int) -> bool:
    """The harness-level check that opt is not tiny relative to n."""
    return opt_hat >= 0.1 * epsilon * n


@dataclass
class ExperimentReport:
    config: dict
    stages: dict
    checks: list
    timings: dict

    @property
    def failed_checks(self) -> list:
        return [c for c in self.checks if c["status"] == "fail"]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "stages": self.stages,
            "checks": self.checks,
            "timings": self.timings,
        }

    def fingerprint(self) -> str:
        """Digest of everything except wall-clock timings."""
        data = {k: v for k, v in self.to_dict().items() if k != "timings"}
        return hashlib.sha256(report_json(data).encode()).hexdigest()


def report_json(payload) -> str:
    """Report and CLI payload JSON, the text a fingerprint digests."""
    return json.dumps(payload, indent=2, sort_keys=True, default=jsonify)


def jsonify(obj):
    """``json.dumps`` default for numpy scalars and arrays."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


class _StageTimer:
    def __init__(self):
        self.timings = {}

    def run(self, name, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except StochmatchError as exc:
            raise type(exc)(f"[stage {name}] {exc}") from exc
        self.timings[name] = time.perf_counter() - start
        return result


def run_pipeline(config: ExperimentConfig) -> ExperimentReport:
    """decompose -> build Q -> vertex-independent matching -> certificate -> checks."""
    timer = _StageTimer()
    checks: list[dict] = []
    stages: dict = {}

    def add_check(name, status, **details):
        checks.append({"name": name, "status": status, "details": details})

    g = timer.run("graph", config.load_graph)
    if not g.m:
        raise ValueError(f"the graph has no edges (n = {g.n}); the pipeline needs at least one")
    stages["graph"] = {"n": g.n, "m": g.m, "p_min": g.p_min}

    est = timer.run("estimate_q", lambda: estimate_q(g, config.q_samples, config.seed))
    stages["estimate_q"] = {
        "samples": est.samples,
        "opt_hat": est.opt_hat,
        "se_opt": est.se_opt,
        "q_hat": est.q_hat.tolist(),
    }
    add_check(
        "q_mass_identity",
        "pass" if int(est.counts.sum()) == est.sum_mu else "fail",
        sum_counts=int(est.counts.sum()),
        sum_mu=est.sum_mu,
    )

    oracle = None
    if g.m <= config.oracle_cap:
        oracle = timer.run("oracle", lambda: exact_stats(g, cap=config.oracle_cap))
        stages["oracle"] = {"opt": oracle.opt, "q": oracle.q.tolist()}
        bad = [
            e
            for e in range(g.m)
            if abs(est.q_hat[e] - oracle.q[e])
            > 3.0 * math.sqrt(max(oracle.q[e] * (1 - oracle.q[e]), 1e-12) / est.samples)
            + 1e-9
        ]
        add_check("q_oracle_agreement", "pass" if not bad else "fail", edges_out=bad)

    q_ref = oracle.q if oracle is not None else est.q_hat
    opt_ref = oracle.opt if oracle is not None else est.opt_hat

    f_shape = "paper" if config.mode == "paper" else "geometric"
    schedule = timer.run(
        "schedule",
        lambda: threshold_schedule(
            q_ref, opt_ref, config.epsilon, g.p_min,
            f_shape=f_shape, t0=config.t0, gamma=config.gamma,
        ),
    )
    stages["schedule"] = {
        "tau_minus": schedule.tau_minus,
        "tau_plus": schedule.tau_plus,
        "j": schedule.j,
        "bucket_masses": list(schedule.bucket_masses),
    }
    add_check(
        "schedule_bound",
        "pass" if schedule.j <= math.ceil(1 / config.epsilon) + 1 else "fail",
        j=schedule.j,
    )
    covered = float(q_ref[(q_ref >= schedule.tau_plus) | (q_ref <= schedule.tau_minus)].sum())
    add_check(
        "coverage",
        "pass" if covered >= (1 - config.epsilon) * opt_ref - 1e-9 else "fail",
        covered=covered,
        target=(1 - config.epsilon) * opt_ref,
    )

    classification = timer.run(
        "classify",
        lambda: classify(
            g, q_ref, schedule.tau_minus, schedule.tau_plus, config.epsilon,
            c_lambda=config.c_lambda,
            lambda_mode="paper" if config.mode == "paper" else "desk",
        ),
    )
    stages["classify"] = {
        "crucial": list(classification.crucial_edges),
        "noncrucial": list(classification.noncrucial_edges),
        "ignored": list(classification.ignored_edges),
        "delta_C": classification.delta_C,
        "lambda": classification.lam,
        "c_v": classification.c_v.tolist(),
        "n_v": classification.n_v.tolist(),
    }
    if oracle is not None and classification.delta_C:
        add_check(
            "crucial_degree_bound",
            "pass" if classification.delta_C * schedule.tau_plus <= 1.0 + 1e-9 else "fail",
            delta_C=classification.delta_C,
            tau_plus=schedule.tau_plus,
        )

    opt_ok = assumption_holds(est.opt_hat, config.epsilon, g.n)
    add_check(
        "assumption_opt_not_tiny",
        "pass" if opt_ok else "info",
        opt_hat=est.opt_hat,
        threshold=0.1 * config.epsilon * g.n,
        recommendation=None if opt_ok
        else "contract the graph (vertex sparsification) before sparsifying",
    )

    R = config.sparsifier_R(schedule.tau_minus)
    q_sub = timer.run("build_q", lambda: build_q(g, R, config.seed))
    max_degree = q_sub.max_member_degree()
    stages["build_q"] = {
        "R": R,
        "members": q_sub.member_edges(),
        "t": q_sub.t.tolist(),
        "max_degree": max_degree,
    }
    add_check("degree_bound", "pass" if max_degree <= R else "fail",
              max_degree=max_degree, R=R)

    params = config.vim_params()
    engine = VimEngine(classification, params, config.seed)

    X = timer.run("vim", lambda: engine.matched_indicators(("pipe",), config.vim_runs,
                                                           params.depth))
    # Z is a matching, so each row marks 2|Z| vertices.
    sizes = X.sum(axis=1) // 2
    match_freq = X.mean(axis=0)
    mean_z, se_z = mean_se(sizes)
    stages["vim"] = {
        "alpha": params.alpha,
        "depth": params.depth,
        "walk_cap": params.walk_cap,
        "mean_Z": mean_z,
        "se_Z": se_z,
        "match_freq": match_freq.tolist(),
        "raw_sizes": [int(s) for s in sizes],
    }
    # VimEngine._find raises at any node whose counting identity fails.
    add_check("vim_counting_identity", "pass")
    cap_slack = 3.0 * binomial_se(match_freq, config.vim_runs)
    if params.depth > 0:
        gamma_ci = params.gamma_ci_factor * engine.gamma_se(params.depth - 1)
    else:
        gamma_ci = np.zeros(g.n)
    cap = np.maximum(classification.c_v - params.epsilon**2, 0.0)
    over = [
        int(v)
        for v in range(g.n)
        if match_freq[v] > cap[v] + cap_slack[v] + gamma_ci[v]
    ]
    add_check("vim_probability_cap", "pass" if not over else "fail", vertices_over=over)

    records = timer.run(
        "certificate",
        lambda: run_certificate_batch(engine, R, config.cert_runs, config.seed),
    )
    size_report = certificate_size_report(records, config.epsilon, p_min=g.p_min)
    stages["certificate"] = {
        "runs": size_report.runs,
        "mean_x": size_report.mean_x,
        "se_x": size_report.se_x,
        "mean_y": size_report.mean_y,
        "se_y": size_report.se_y,
        "mean_mu_Q": size_report.mean_mu_q,
        "se_mu_Q": size_report.se_mu_q,
        "mean_x_crucial": size_report.mean_x_crucial,
        "mean_Z": size_report.mean_z,
        "edmonds_fraction": size_report.edmonds_fraction,
        "x_v_tail": size_report.x_v_tail.tolist(),
        "x_v_tail_bound": size_report.x_v_tail_bound,
        "raw_x_sizes": [r.x_size for r in records],
        "raw_y_sizes": [r.y_size for r in records],
        "raw_mu_q": [int(r.mu_q) for r in records],
    }
    add_check("y_valid", "pass" if size_report.y_valid_all else "fail")
    add_check("y_blossom", "pass" if size_report.blossom_ok_all else "fail")
    x_v_over = [
        int(v)
        for v in range(g.n)
        if size_report.mean_x_v[v]
        > 1.0 + 3.0 * np.std([r.x_v[v] for r in records]) / math.sqrt(len(records)) + 1e-9
    ]
    add_check("x_v_expectation", "pass" if not x_v_over else "fail", vertices_over=x_v_over)

    freport = timer.run(
        "f_properties",
        lambda: run_f_property_batch(
            classification, R, min(config.cert_runs, 40), config.seed,
            q_se=est.se_q if oracle is None else None,
        ),
    )
    add_check("f_vertex_sums", "pass" if freport.vertex_sum_ok else "fail")
    add_check(
        "f_edge_bounds",
        "pass" if freport.edges_ok else "fail",
        edges=[(e, m) for e, m, lo, hi, ok in freport.per_edge if not ok],
    )

    ratio = timer.run(
        "ratio",
        lambda: estimate_ratio(
            g, "algorithm1", R,
            outer=config.ratio_outer, inner=config.ratio_inner,
            denom_samples=config.ratio_denom, seed=config.seed,
        ),
    )
    stages["ratio"] = ratio.to_dict()

    if config.mode == "paper":
        add_check("paper_mode", "info", note="paper-scale constants passed the guards")

    return ExperimentReport(
        config=config.to_dict(),
        stages=stages,
        checks=checks,
        timings=timer.timings,
    )
