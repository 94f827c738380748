"""Batch command-line interface.

Subcommands mirror the pipeline stages: gen, oracle, decompose, sparsify,
contract, vim, certify, experiment.  The vim and certify subcommands print
the reports of the harness's independence test and certificate batch.
Output is JSON by default; csv writes one row per leaf of the payload, the
dotted key path and the JSON-encoded value.  The experiment subcommand exits
nonzero when any non-informational check fails.  Bad input (an unreadable
graph or config file included) and tripped guards print ``error: <message>``
to stderr and exit 2, without a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .certificate import certificate_size_report
from .decomposition import classify, estimate_q, threshold_schedule
from .errors import StochmatchError
from .generators import generate
from .graph import StochasticGraph
from .harness import (
    ExperimentConfig,
    independence_test,
    jsonify,
    run_certificate_batch,
    run_f_property_batch,
    run_pipeline,
)
from .oracle import exact_stats
from .reduction import contract
from .sparsifier import build_baseline_iterative, build_q, default_R
from .vim import VimEngine, VimParams

__all__ = ["main"]


def _load_graph(args) -> StochasticGraph:
    if getattr(args, "graph", None):
        try:
            return StochasticGraph.from_file(args.graph)
        except OSError as exc:
            raise ValueError(f"cannot read {args.graph}: {exc.strerror}") from exc
    if getattr(args, "family", None):
        params = json.loads(args.params) if args.params else {}
        return generate(args.family, params, args.seed)
    raise SystemExit("provide --graph FILE or --family NAME [--params JSON]")


def _emit(args, payload):
    if args.out == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for key, value in sorted(_flatten(payload).items()):
            writer.writerow([key, json.dumps(value, default=jsonify)])
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, default=jsonify) + "\n")


def _flatten(payload, prefix=""):
    """Nested dicts as {dotted key path: leaf}; lists are leaves."""
    if not isinstance(payload, dict):
        return {prefix: payload}
    out = {}
    for k, v in payload.items():
        out.update(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    return out


def _add_schedule(parser):
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--gamma", type=float, default=0.3)
    parser.add_argument("--paper-schedule", action="store_true")


def _add_common(parser):
    parser.add_argument("--graph", help="graph file in the standard format")
    parser.add_argument("--family", help="generator family name")
    parser.add_argument("--params", help="generator params as JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=0.3)
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--out", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--force-paper-constants", action="store_true",
        help="run past the paper-scale parameter guards",
    )


def _cmd_gen(args):
    g = _load_graph(args)
    sys.stdout.write(g.to_text())
    return 0


def _cmd_oracle(args):
    g = _load_graph(args)
    stats = exact_stats(g, cap=args.cap)
    _emit(args, {"opt": stats.opt, "q": stats.q.tolist(),
                 "matched_prob": stats.matched_prob.tolist()})
    return 0


def _decompose(args, g):
    est = estimate_q(g, args.samples, args.seed)
    schedule = threshold_schedule(
        est.q_hat, est.opt_hat, args.epsilon, g.p_min,
        f_shape="paper" if args.paper_schedule else "geometric",
        t0=args.t0, gamma=args.gamma,
    )
    cls = classify(g, est.q_hat, schedule.tau_minus, schedule.tau_plus, args.epsilon)
    return est, schedule, cls


def _cmd_decompose(args):
    g = _load_graph(args)
    est, schedule, cls = _decompose(args, g)
    _emit(args, {
        "opt_hat": est.opt_hat,
        "tau_minus": schedule.tau_minus,
        "tau_plus": schedule.tau_plus,
        "j": schedule.j,
        "labels": list(cls.labels),
        "delta_C": cls.delta_C,
        "lambda": cls.lam,
        "c_v": cls.c_v.tolist(),
        "n_v": cls.n_v.tolist(),
    })
    return 0


def _cmd_sparsify(args):
    g = _load_graph(args)
    if args.baseline == "iterative":
        q = build_baseline_iterative(g, args.R)
    else:
        q = build_q(g, args.R, args.seed)
    _emit(args, {"R": q.R, "members": q.member_edges(), "t": q.t.tolist(),
                 "max_degree": q.max_member_degree()})
    return 0


def _cmd_contract(args):
    g = _load_graph(args)
    c = contract(g, args.epsilon, args.opt, args.seed)
    _emit(args, {
        "k": c.k,
        "buckets": c.b.tolist(),
        "merged": c.merged.to_text(),
        "origin": [list(o) for o in c.origin],
    })
    return 0


def _vim_params(args) -> VimParams:
    if args.paper_constants:
        return VimParams.paper(args.epsilon, force=args.force_paper_constants,
                               gamma_samples=args.gamma_samples)
    return VimParams(
        epsilon=args.epsilon, alpha=args.alpha, depth=args.depth,
        walk_cap=args.walk_cap, gamma_samples=args.gamma_samples,
    )


def _cmd_vim(args):
    if args.runs < 2:
        raise StochmatchError(f"vim needs --runs >= 2 to estimate covariances, got {args.runs}")
    g = _load_graph(args)
    _est, _schedule, cls = _decompose(args, g)
    params = _vim_params(args)
    engine = VimEngine(cls, params, args.seed)
    report = independence_test(g, cls, engine, args.runs)
    # E|Z_r| is half the summed per-vertex matched frequency at level r.
    _emit(args, {
        "per_vertex_match_freq": report.match_freq,
        "size_by_depth": {str(r): float(engine.gamma_table(r).sum() / 2)
                          for r in range(params.depth + 1)},
        "far_pairs": report.far_pairs,
        "controls": report.controls,
        "notice": report.notice,
        "lambda": report.lam,
    })
    return 0


def _cmd_certify(args):
    g = _load_graph(args)
    est, schedule, cls = _decompose(args, g)
    R = default_R(schedule.tau_minus, cap=4096) if args.R is None else args.R
    engine = VimEngine(cls, _vim_params(args), args.seed)
    records = run_certificate_batch(g, cls, engine, R, args.runs, args.seed)
    rep = certificate_size_report(records, args.epsilon, p_min=g.p_min)
    freport = run_f_property_batch(g, cls, R, args.runs, args.seed, q_se=est.se_q)
    _emit(args, {
        "mean_x": rep.mean_x,
        "mean_y": rep.mean_y,
        "mean_mu_Q": rep.mean_mu_q,
        "blossom_ok": rep.blossom_ok_all,
        "y_valid": rep.y_valid_all,
        "edmonds_fraction": rep.edmonds_fraction,
        "f_checks": {
            "vertex_sums_exact": freport.vertex_sum_ok,
            "edge_bounds_ok": freport.edges_ok,
            "per_edge": [
                {"edge": e, "mean_f": m, "lower": lo, "upper": hi, "ok": ok}
                for e, m, lo, hi, ok in freport.per_edge
            ],
        },
    })
    return 0


def _cmd_experiment(args):
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read {args.config}: {exc.strerror}") from exc
        config = ExperimentConfig.from_dict(data)
    else:
        params = json.loads(args.params) if args.params else {}
        config = ExperimentConfig(
            graph_family=args.family,
            graph_params=params,
            graph_file=args.graph,
            epsilon=args.epsilon,
            seed=args.seed,
            q_samples=args.samples,
            mode="paper" if args.paper_constants else "desk",
            force_paper=args.force_paper_constants,
        )
    report = run_pipeline(config)
    payload = report.to_dict()
    payload["fingerprint"] = report.fingerprint()
    _emit(args, payload)
    return 1 if report.failed_checks else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochmatch",
        description="Stochastic-matching sparsifier toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generated graph in the standard format")
    _add_common(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("oracle", help="exact opt and q by full enumeration")
    _add_common(p)
    p.add_argument("--cap", type=int, default=20, help="edge-count enumeration cap")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("decompose", help="estimate q, pick thresholds, classify")
    _add_common(p)
    _add_schedule(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("sparsify", help="build the sampled-union sparsifier")
    _add_common(p)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--baseline", choices=("iterative",), default=None)
    p.set_defaults(fn=_cmd_sparsify)

    p = sub.add_parser("contract", help="vertex sparsification")
    _add_common(p)
    p.add_argument("--opt", type=float, required=True, help="opt estimate")
    p.set_defaults(fn=_cmd_contract)

    for name, fn in (("vim", _cmd_vim), ("certify", _cmd_certify)):
        p = sub.add_parser(name)
        _add_common(p)
        _add_schedule(p)
        p.add_argument("--alpha", type=int, default=7)
        p.add_argument("--depth", type=int, default=3)
        p.add_argument("--walk-cap", dest="walk_cap", type=int, default=3)
        p.add_argument("--gamma-samples", dest="gamma_samples", type=int, default=300)
        p.add_argument("--runs", type=int, default=100)
        p.add_argument("--paper-constants", action="store_true")
        if name == "certify":
            p.add_argument("--R", type=int, default=None,
                           help="sparsifier width; defaults to the guarded 1/(2 tau_minus)")
        p.set_defaults(fn=fn)

    p = sub.add_parser("experiment", help="full pipeline with the check table")
    _add_common(p)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--paper-constants", action="store_true")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (StochmatchError, ValueError) as exc:
        # Bad input (an unknown family, a missing or out-of-range parameter)
        # is reported like a guard error, without a traceback.
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
