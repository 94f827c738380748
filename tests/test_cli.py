"""CLI smoke tests over the subcommands."""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os

import pytest

from stochmatch import harness
from stochmatch.cli import build_parser, main
from stochmatch.decomposition import classify, estimate_q, threshold_schedule
from stochmatch.generators import path
from stochmatch.harness import ExperimentConfig, independence_test, report_json
from stochmatch.sparsifier import build_baseline_iterative
from stochmatch.vim import VimEngine, VimParams


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_and_oracle_roundtrip(capsys, tmp_path):
    code, out = _run(capsys, ["gen", "--family", "path", "--params", '{"n": 3, "p": 0.5}'])
    assert code == 0
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(out)

    code, out = _run(capsys, ["oracle", "--graph", str(graph_file)])
    assert code == 0
    payload = json.loads(out)
    assert payload["opt"] == pytest.approx(0.75, abs=1e-9)
    assert payload["q"] == pytest.approx([0.5, 0.25], abs=1e-9)


def test_decompose_json(capsys):
    code, out = _run(capsys, [
        "decompose", "--family", "path", "--params", '{"n": 3, "p": 0.5}',
        "--samples", "4000", "--epsilon", "0.3",
    ])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"tau_minus", "tau_plus", "labels", "delta_C", "lambda", "c_v", "n_v"}
    assert len(payload["labels"]) == 2


def test_decompose_an_edgeless_graph(capsys, tmp_path):
    graph_file = tmp_path / "edgeless.txt"
    graph_file.write_text("3 0\n")
    code, out = _run(capsys, ["decompose", "--graph", str(graph_file)])
    assert code == 0
    payload = json.loads(out)
    assert payload["opt_hat"] == 0.0 and payload["labels"] == []
    assert payload["c_v"] == payload["n_v"] == [0.0, 0.0, 0.0]


def test_sparsify_members(capsys):
    code, out = _run(capsys, [
        "sparsify", "--family", "clique", "--params", '{"n": 4, "p": 1.0}',
        "--R", "3", "--seed", "1",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_degree"] <= 3
    assert len(payload["members"]) == 2


def test_sparsify_baseline_iterative_prints_the_baseline(capsys):
    code, out = _run(capsys, [
        "sparsify", "--family", "path", "--params", '{"n": 5, "p": 0.5}',
        "--R", "2", "--baseline", "iterative",
    ])
    assert code == 0
    q = build_baseline_iterative(path(5, 0.5), 2)
    assert json.loads(out) == {"R": 2, "members": q.member_edges(), "t": q.t.tolist(),
                               "max_degree": q.max_member_degree()}
    assert q.member_edges() == [0, 1, 2, 3]


def test_contract_output(capsys):
    code, out = _run(capsys, [
        "contract", "--family", "clique", "--params", '{"n": 4, "p": 0.5}',
        "--opt", "1.5", "--epsilon", "0.5", "--seed", "0",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 24
    assert len(payload["buckets"]) == 4


def test_vim_output(capsys):
    code, out = _run(capsys, [
        "vim", "--family", "path", "--params", '{"n": 3, "p": 0.6}',
        "--samples", "2000", "--alpha", "2", "--depth", "1",
        "--gamma-samples", "50", "--runs", "20",
    ])
    assert code == 0
    payload = json.loads(out)
    assert "size_by_depth" in payload and "per_vertex_match_freq" in payload


def test_vim_prints_the_independence_report(capsys):
    argv = ["vim", "--family", "path", "--params", '{"n": 3, "p": 0.6}',
            "--samples", "2000", "--alpha", "2", "--depth", "1",
            "--gamma-samples", "50", "--runs", "20"]
    code, out = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    g = path(3, 0.6)
    est = estimate_q(g, 2000, 0)
    schedule = threshold_schedule(est.q_hat, est.opt_hat, 0.3, g.p_min)
    cls = classify(g, est.q_hat, schedule.tau_minus, schedule.tau_plus, 0.3)
    params = VimParams(epsilon=0.3, alpha=2, depth=1, walk_cap=3, gamma_samples=50)
    report = independence_test(VimEngine(cls, params, 0), 20)
    assert payload["per_vertex_match_freq"] == report.match_freq
    assert payload["far_pairs"] == report.far_pairs
    assert payload["controls"] == report.controls
    assert payload["notice"] == report.notice
    assert set(payload["size_by_depth"]) == {"0", "1"}
    assert payload["size_by_depth"]["0"] == 0.0


def test_vim_rejects_fewer_than_two_runs(capsys):
    code = main(["vim", "--family", "path", "--params", '{"n": 3, "p": 0.6}',
                 "--samples", "200", "--alpha", "1", "--depth", "1",
                 "--gamma-samples", "10", "--runs", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--runs >= 2" in captured.err
    assert "Traceback" not in captured.err


def test_vim_builds_each_gamma_level_once(capsys, monkeypatch):
    built = []
    original = VimEngine._build_gamma

    def counting(self, r):
        built.append(r)
        return original(self, r)

    monkeypatch.setattr(VimEngine, "_build_gamma", counting)
    code, out = _run(capsys, [
        "vim", "--family", "path", "--params", '{"n": 3, "p": 0.6}',
        "--samples", "2000", "--alpha", "2", "--depth", "2",
        "--gamma-samples", "30", "--runs", "10",
    ])
    assert code == 0
    assert set(json.loads(out)["size_by_depth"]) == {"0", "1", "2"}
    assert sorted(built) == [0, 1, 2]


def test_certify_output(capsys):
    code, out = _run(capsys, [
        "certify", "--family", "path", "--params", '{"n": 3, "p": 0.6}',
        "--samples", "2000", "--alpha", "2", "--depth", "1",
        "--gamma-samples", "50", "--runs", "10", "--R", "4",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["y_valid"] is True


_SMALL_EXPERIMENT = {
    "graph_family": "path",
    "graph_params": {"n": 3, "p": 0.5},
    "epsilon": 0.3,
    "seed": 3,
    "q_samples": 3000,
    "vim_runs": 40,
    "cert_runs": 15,
    "gamma_samples": 60,
    "ratio_outer": 3,
    "ratio_inner": 10,
    "ratio_denom": 100,
    "alpha": 2,
    "depth": 2,
}


def _small_experiment_argv(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(_SMALL_EXPERIMENT))
    return ["experiment", "--config", str(config_file)]


def test_experiment_exit_code_and_fingerprint(capsys, tmp_path):
    argv = _small_experiment_argv(tmp_path)
    code, out = _run(capsys, argv)
    payload = json.loads(out)
    assert code == 0, [c for c in payload["checks"] if c["status"] == "fail"]
    fingerprint = payload["fingerprint"]
    code2, out2 = _run(capsys, argv)
    assert json.loads(out2)["fingerprint"] == fingerprint


def test_experiment_fingerprint_is_the_digest_of_the_printed_report(capsys, tmp_path):
    # The printed report minus fingerprint and timings, re-encoded, is what
    # the fingerprint digests, so a reader can check it from stdout alone.
    code, out = _run(capsys, _small_experiment_argv(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert out == report_json(payload) + "\n"
    fingerprint = payload.pop("fingerprint")
    del payload["timings"]
    assert hashlib.sha256(report_json(payload).encode()).hexdigest() == fingerprint


def test_experiment_refuses_an_edgeless_graph_before_any_stage(capsys, tmp_path, monkeypatch):
    def estimate_q_not_reached(*args, **kwargs):
        raise AssertionError("estimate_q ran on an edgeless graph")

    monkeypatch.setattr(harness, "estimate_q", estimate_q_not_reached)
    graph_file = tmp_path / "edgeless.txt"
    graph_file.write_text("3 0\n")
    code = main(["experiment", "--graph", str(graph_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: the graph has no edges (n = 3); the pipeline needs at least one\n"


def test_csv_output(capsys):
    code, out = _run(capsys, [
        "oracle", "--family", "path", "--params", '{"n": 3, "p": 0.5}', "--out", "csv",
    ])
    assert code == 0
    assert any(line.startswith("opt,") for line in out.splitlines())


def test_csv_output_parses_back_to_the_json_output(capsys):
    argv = ["decompose", "--family", "path", "--params", '{"n": 3, "p": 0.5}',
            "--samples", "2000", "--epsilon", "0.3"]
    code, out_json = _run(capsys, argv)
    assert code == 0
    code, out_csv = _run(capsys, argv + ["--out", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert all(len(row) == 2 for row in rows)
    parsed = {key: json.loads(value) for key, value in rows}
    assert parsed == json.loads(out_json)
    assert parsed["labels"] and all(isinstance(lab, str) for lab in parsed["labels"])


def test_guard_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "big.txt"
    edges = [(i, i + 1, 0.5) for i in range(24)]
    lines = ["25 24"] + [f"{u} {v} {p}" for u, v, p in edges]
    bad.write_text("\n".join(lines) + "\n")
    code = main(["oracle", "--graph", str(bad)])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["gen", "--family", "path", "--params", '{"n": 3}'],
     "family 'path' needs parameter 'p'"),
    (["gen", "--family", "nosuch"], "unknown family 'nosuch'"),
    (["gen", "--family", "path", "--params", "[3, 0.5]"], "params must be a dict"),
    (["vim", "--family", "path", "--params", '{"n": 3, "p": 0.6}', "--samples", "200",
      "--walk-cap", "0"], "walk_cap"),
    (["oracle", "--graph", "/nonexistent.txt"],
     "cannot read /nonexistent.txt: No such file or directory"),
    (["certify", "--graph", "/nonexistent.txt"], "cannot read /nonexistent.txt"),
    (["vim", "--graph", "/nonexistent.txt"], "cannot read /nonexistent.txt"),
    (["experiment", "--config", "/nonexistent.json"],
     "cannot read /nonexistent.json: No such file or directory"),
    (["experiment", "--graph", "/nonexistent.txt"], "cannot read /nonexistent.txt"),
    (["oracle", "--graph", os.path.dirname(__file__)], "Is a directory"),
    (["gen", "--family", "path", "--params", '{"n": 3, "p": [0.5]}'],
     "family 'path': parameter 'p' must be a number or a range of two numbers"),
    (["gen", "--family", "path", "--params", '{"n": 3, "p": null}'],
     "family 'path': parameter 'p' must be a number or a range of two numbers, got None"),
    (["gen", "--family", "path", "--params", '{"n": null, "p": 0.5}'],
     "family 'path': parameter 'n' must be a number, got None"),
    (["experiment", "--config", "TMP/unknown_key.json"], "unknown config keys ['nosuch']"),
    (["experiment", "--config", "TMP/list.json"], "a config is a JSON object"),
    (["experiment", "--config", "TMP/unknown_key.json", "--seed", "5"],
     "set ['seed'] in the file instead of by flag"),
    (["gen"], "no graph: set graph_file (--graph) or graph_family (--family)"),
    (["experiment", "--config", "TMP/epsilon_str.json"],
     "config key 'epsilon' must be float, got str '0.3'"),
    (["experiment", "--config", "TMP/q_samples_float.json"],
     "config key 'q_samples' must be int, got float 2.5"),
    (["experiment", "--config", "TMP/seed_bool.json"],
     "config key 'seed' must be int, got bool True"),
    (["experiment", "--config", "TMP/ratio_outer_one.json"],
     "ratio_outer must be at least 2, got 1"),
    (["experiment", "--config", "TMP/c_lambda_negative.json"],
     "c_lambda must be positive, got -1.0"),
    (["vim", "--family", "path", "--params", '{"n": 3, "p": 0.6}', "--paper-constants",
      "--alpha", "5"], "paper mode takes alpha, depth and walk_cap from epsilon; unset ['alpha']"),
    (["gen", "--family", "path", "--params", '{"n": 3.9, "p": 0.5}'],
     "family 'path': parameter 'n' must be a whole number, got 3.9"),
    (["gen", "--family", "path", "--params", '{"n": Infinity, "p": 0.5}'],
     "family 'path': parameter 'n' must be a number, got inf"),
    (["gen", "--family", "erdos_renyi", "--params", '{"n": 4, "edge_density": true, "p": 0.5}'],
     "family 'erdos_renyi': parameter 'edge_density' must be a number, got True"),
    (["gen", "--family", "erdos_renyi", "--params", '{"n": 5, "edge_density": 0.0, "p": 2.0}'],
     "probability must be in (0, 1], got 2.0"),
    (["gen", "--family", "bipartite_random", "--params",
      '{"n1": 2, "n2": 3, "density": 7, "p": 0.5}'], "density must be in [0, 1], got 7.0"),
    (["experiment", "--graph", "TMP/edgeless.txt"], "the graph has no edges"),
], ids=["missing_param", "unknown_family", "params_not_a_dict", "walk_cap_0",
        "oracle_missing_graph", "certify_missing_graph", "vim_missing_graph",
        "experiment_missing_config", "experiment_missing_graph", "oracle_graph_is_a_directory",
        "p_range_of_one", "p_null", "n_null", "config_unknown_key", "config_not_an_object",
        "config_with_input_flags", "gen_without_a_graph", "config_epsilon_a_string",
        "config_q_samples_a_float", "config_seed_a_bool", "config_ratio_outer_one",
        "config_c_lambda_negative", "paper_mode_with_alpha", "n_fractional", "n_infinite",
        "density_bool", "p_out_of_range_without_edges", "bipartite_density_above_one",
        "experiment_edgeless_graph"])
def test_input_errors_exit_2_without_a_traceback(capsys, tmp_path, argv, message):
    (tmp_path / "unknown_key.json").write_text('{"graph_family": "path", "nosuch": 1}')
    (tmp_path / "list.json").write_text('[1, 2]')
    graph = '"graph_family": "path", "graph_params": {"n": 3, "p": 0.5}'
    (tmp_path / "epsilon_str.json").write_text('{%s, "epsilon": "0.3"}' % graph)
    (tmp_path / "q_samples_float.json").write_text('{%s, "q_samples": 2.5}' % graph)
    (tmp_path / "seed_bool.json").write_text('{%s, "seed": true}' % graph)
    (tmp_path / "ratio_outer_one.json").write_text('{%s, "ratio_outer": 1}' % graph)
    (tmp_path / "c_lambda_negative.json").write_text('{%s, "c_lambda": -1.0}' % graph)
    (tmp_path / "edgeless.txt").write_text("3 0\n")
    code = main([a.replace("TMP", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err


_GRAPH_FLAGS = {"--graph", "--family", "--params", "--seed"}
_DECOMPOSE_FLAGS = _GRAPH_FLAGS | {"--epsilon", "--samples", "--out", "--t0", "--gamma",
                                   "--paper-schedule"}
_VIM_FLAGS = _DECOMPOSE_FLAGS | {"--force-paper-constants", "--paper-constants", "--alpha",
                                 "--depth", "--walk-cap", "--gamma-samples", "--runs"}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {name: [a for a in p._actions if a.dest != "help"]
               for name, p in commands.choices.items()}
    flags = {name: {opt for a in acts for opt in a.option_strings}
             for name, acts in actions.items()}
    assert flags == {
        "gen": _GRAPH_FLAGS,
        "oracle": _GRAPH_FLAGS | {"--out", "--cap"},
        "decompose": _DECOMPOSE_FLAGS,
        "sparsify": _GRAPH_FLAGS | {"--out", "--R", "--baseline"},
        "contract": _GRAPH_FLAGS | {"--epsilon", "--out", "--opt"},
        "vim": _VIM_FLAGS,
        "certify": _VIM_FLAGS | {"--R"},
        "experiment": _GRAPH_FLAGS | {"--epsilon", "--samples", "--out",
                                      "--force-paper-constants", "--paper-constants",
                                      "--config"},
    }
    assert sum(len(opts) for opts in flags.values()) == 79
    # ``stochmatch --help`` lists each subcommand with its help line.
    helps = {a.dest: a.help for a in commands._choices_actions}
    assert helps.keys() == flags.keys() and all(helps.values())
    # A flag that sets a config field has no default of its own, so an absent
    # flag leaves the field at ExperimentConfig's default.
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for acts in actions.values():
        for a in acts:
            if a.dest in config_fields and not a.required:
                assert a.default is argparse.SUPPRESS, a.option_strings
