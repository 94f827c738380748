"""Batch command-line interface.

Subcommands mirror the pipeline stages.  Each builds one ``ExperimentConfig``
from the flags given (experiment: or from ``--config FILE``) and takes its
graph, VIM parameters, R and every default from it.  The flags are

  all             --graph --family --params --seed
  oracle          --out --cap
  decompose       --epsilon --samples --out --t0 --gamma --paper-constants
  sparsify        --out --R --baseline
  contract        --epsilon --out --opt
  vim, certify    the decompose flags, --force-paper-constants --alpha --depth
                  --walk-cap --gamma-samples --runs (certify: --R)
  experiment      --epsilon --samples --out --force-paper-constants
                  --paper-constants --config

decompose, vim and certify run the pipeline's decomposition stages
(``harness.decompose``); vim and certify print the reports of the harness's
independence test and certificate batch.  Output is JSON by default; csv
writes one row per leaf of the payload, the dotted key path and the
JSON-encoded value.  experiment exits nonzero when any non-informational
check fails.  Bad input (an unreadable graph or config file included) and
tripped guards print ``error: <message>`` to stderr and exit 2, without a
traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields

from .certificate import certificate_size_report
from .errors import StochmatchError
from .harness import (
    ExperimentConfig,
    decompose,
    independence_test,
    jsonify,
    report_json,
    run_certificate_batch,
    run_f_property_batch,
    run_pipeline,
)
from .oracle import DEFAULT_EDGE_CAP, exact_stats
from .reduction import contract
from .sparsifier import build_baseline_iterative, build_q
from .vim import VimEngine

__all__ = ["main"]

_CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


def _config(args) -> ExperimentConfig:
    """The run's config: the file named by --config, or the config flags given."""
    given = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
    path = getattr(args, "config", None)
    if not path:
        if "graph_params" in given:
            given["graph_params"] = json.loads(given["graph_params"] or "{}")
        return ExperimentConfig(**given)
    if given:
        raise ValueError(f"--config {path} holds the whole run; set {sorted(given)} "
                         f"in the file instead of by flag")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    return ExperimentConfig.from_dict(data)


def _emit(args, payload):
    if args.out == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for key, value in sorted(_flatten(payload).items()):
            writer.writerow([key, json.dumps(value, default=jsonify)])
    else:
        sys.stdout.write(report_json(payload) + "\n")


def _flatten(payload, prefix=""):
    """Nested dicts as {dotted key path: leaf}; lists are leaves."""
    if not isinstance(payload, dict):
        return {prefix: payload}
    out = {}
    for k, v in payload.items():
        out.update(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    return out


def _cmd_gen(args, config):
    sys.stdout.write(config.load_graph().to_text())
    return 0


def _cmd_oracle(args, config):
    stats = exact_stats(config.load_graph(), cap=args.cap)
    _emit(args, {"opt": stats.opt, "q": stats.q.tolist(),
                 "matched_prob": stats.matched_prob.tolist()})
    return 0


def _cmd_decompose(args, config):
    est, _oracle, schedule, cls = decompose(config, config.load_graph())
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


def _cmd_sparsify(args, config):
    g = config.load_graph()
    if args.baseline == "iterative":
        q = build_baseline_iterative(g, config.R)
    else:
        q = build_q(g, config.R, config.seed)
    _emit(args, {"R": q.R, "members": q.member_edges(), "t": q.t.tolist(),
                 "max_degree": q.max_member_degree()})
    return 0


def _cmd_contract(args, config):
    c = contract(config.load_graph(), config.epsilon, args.opt, config.seed)
    _emit(args, {
        "k": c.k,
        "buckets": c.b.tolist(),
        "merged": c.merged.to_text(),
        "origin": [list(o) for o in c.origin],
    })
    return 0


def _cmd_vim(args, config):
    if args.runs < 2:
        raise StochmatchError(f"vim needs --runs >= 2 to estimate covariances, got {args.runs}")
    _est, _oracle, _schedule, cls = decompose(config, config.load_graph())
    params = config.vim_params()
    engine = VimEngine(cls, params, config.seed)
    report = independence_test(engine, args.runs)
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


def _cmd_certify(args, config):
    if args.runs < 1:
        raise StochmatchError(f"certify needs --runs >= 1, got {args.runs}")
    g = config.load_graph()
    est, oracle, schedule, cls = decompose(config, g)
    R = config.sparsifier_R(schedule.tau_minus)
    engine = VimEngine(cls, config.vim_params(), config.seed)
    records = run_certificate_batch(engine, R, args.runs, config.seed)
    rep = certificate_size_report(records, config.epsilon, p_min=g.p_min)
    freport = run_f_property_batch(cls, R, args.runs, config.seed,
                                   q_se=est.se_q if oracle is None else None)
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


def _cmd_experiment(args, config):
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

    def command(name, fn, flags, help=None):
        # Flags without a default of their own stay out of the namespace when
        # absent, so the config supplies the default.
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--graph", dest="graph_file", help="graph file in the standard format")
        p.add_argument("--family", dest="graph_family", help="generator family name")
        p.add_argument("--params", dest="graph_params", help="generator params as JSON")
        p.add_argument("--seed", type=int)
        if "epsilon" in flags:
            p.add_argument("--epsilon", type=float)
        if "samples" in flags:
            p.add_argument("--samples", dest="q_samples", type=int)
        if "out" in flags:
            p.add_argument("--out", choices=("json", "csv"), default="json")
        if "paper" in flags:
            p.add_argument("--force-paper-constants", dest="force_paper", action="store_true",
                           help="run past the paper-scale parameter guards")
        if "schedule" in flags:
            p.add_argument("--t0", type=float)
            p.add_argument("--gamma", type=float)
            p.add_argument("--paper-constants", dest="mode", action="store_const", const="paper")
        p.set_defaults(fn=fn)
        return p

    command("gen", _cmd_gen, (), help="emit a generated graph in the standard format")

    p = command("oracle", _cmd_oracle, ("out",), help="exact opt and q by full enumeration")
    p.add_argument("--cap", type=int, default=DEFAULT_EDGE_CAP,
                   help="edge-count enumeration cap (default %(default)s)")

    command("decompose", _cmd_decompose, ("epsilon", "samples", "out", "schedule"),
            help="estimate q, pick thresholds, classify")

    p = command("sparsify", _cmd_sparsify, ("out",), help="build the sampled-union sparsifier")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--baseline", choices=("iterative",), default=None)

    p = command("contract", _cmd_contract, ("epsilon", "out"), help="vertex sparsification")
    p.add_argument("--opt", type=float, required=True, help="opt estimate")

    for name, fn, help in (
        ("vim", _cmd_vim, "VIM matched frequencies and independence test"),
        ("certify", _cmd_certify, "fractional certificate sizes and f-property checks"),
    ):
        p = command(name, fn, ("epsilon", "samples", "out", "paper", "schedule"), help=help)
        p.add_argument("--alpha", type=int)
        p.add_argument("--depth", type=int)
        p.add_argument("--walk-cap", dest="walk_cap", type=int)
        p.add_argument("--gamma-samples", dest="gamma_samples", type=int)
        p.add_argument("--runs", type=int, default=100)
        if name == "certify":
            p.add_argument("--R", type=int,
                           help="sparsifier width; defaults to the guarded 1/(2 tau_minus)")

    p = command("experiment", _cmd_experiment, ("epsilon", "samples", "out", "paper"),
                help="full pipeline with the check table")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--paper-constants", dest="mode", action="store_const", const="paper")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, _config(args))
    except (StochmatchError, ValueError) as exc:
        # Bad input (an unknown family, a missing or out-of-range parameter)
        # is reported like a guard error, without a traceback.
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
