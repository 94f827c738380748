"""Mutation checks: each mutant of the library must make its named tests fail.

A mutant is (name, file under ``src/stochmatch``, exact old text, new text,
the tests that must fail).  For each one the script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, replaces the
old text, which must occur exactly once, and runs only the named tests there
under a timeout.  The mutant is killed when pytest reports a failing test or
the run times out (a broken loop can hang); it survives when the tests pass.
First the named tests of every mutant run once on the unmutated copy and
must pass, so a kill is the mutation's doing.  That run also times each
test, and a mutant's timeout is ``TIMEOUT_FACTOR`` times the unmutated time
of its named tests plus ``TIMEOUT_PAD_S`` (pytest start-up and imports), so a
mutant that hangs costs seconds, not minutes.

Expected survivors are mutants that no test can kill, each with the reason:
they must pass their tests, so a test that starts killing one shows that
the reason no longer holds.

Run every mutant from the repository root, with pytest and hypothesis
installed:

    python tools/mutants.py

The exit status is 1 when a mutant survives, an expected survivor is
killed, a mutant cannot be applied or run, or the unmutated tests fail.
Only the standard library is imported here; pytest runs in child processes.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLEAN_TIMEOUT_S = 600  # the one unmutated run of every named test
TIMEOUT_FACTOR, TIMEOUT_PAD_S = 5, 10

V = "tests/test_vim.py::"
M = "tests/test_matching.py::"
C = "tests/test_cli.py::"
H = "tests/test_harness.py::"
MUTANTS = [
    # -- constants and state of the VIM construction --------------------------
    ("round_factor", "mis.py",
     "_ROUND_FACTOR = 2.0", "_ROUND_FACTOR = 1.5",
     ["tests/test_mis.py::test_apx_mis_results_pinned", V + "test_level_traces_pinned[path3]"]),
    ("sum_d", "vim.py",
     "return sum(map(len, self.cover))", "return sum(map(len, self.cover[1:]))",
     [V + "test_apply_counts", V + "test_counting_identity_recorded_every_level"]),
    # A per-node budget: the largest conflict degree of the node's candidates.
    ("per_node_round_budget", "vim.py",
     "return luby_rounds(members, self.mis_rounds, priorities)",
     "return luby_rounds(members, mis_round_budget(max(map(len, build_conflict_graph("
     "[_Walk((), m) for m in members])), default=0), self.params.epsilon), priorities)",
     [V + "test_far_component_leaves_the_output_unchanged"]),
    ("walk_cap_raise", "vim.py",
     "raise CandidateWalkCapError(", "print(",
     [V + "test_conflict_cap_guard"]),
    ("int_keys_tuple", "randomness.py",
     "encode_key(x if type(x) is tuple else (x,))", "encode_key((x,))",
     [V + "test_outputs_pinned_against_randomness_format_drift",
      "tests/test_randomness.py::test_int_keys_join_to_the_full_key"]),
    ("uniforms_at_perturbation", "randomness.py",
     "h.update(suffix)", "pass",
     ["tests/test_randomness.py::test_uniforms_at_equals_one_draw_at_a_time",
      "tests/test_randomness.py::test_perturbed_prefix_resamples_outside_the_kept_region"]),
    ("edge_tail_prefix", "vim.py",
     "encode_key((*prefix, e))", "encode_key((e,))",
     [V + "test_outputs_pinned_against_randomness_format_drift"]),
    # -- input and check rules --------------------------------------------------
    ("duplicate_line", "graph.py",
     "edges.append(_checked_edge(n, u, v, p, seen))",
     "edges.append(_checked_edge(n, u, v, p, set()))",
     ["tests/test_graph_io.py::test_parse_errors_carry_line_numbers"]),
    ("ratio_min", "harness.py",
     '"outer": 2', '"outer": 1',
     ["tests/test_harness.py::test_config_validation",
      "tests/test_harness.py::test_estimate_ratio_needs_two_outer_and_denominator_samples",
      C + "test_input_errors_exit_2_without_a_traceback[config_ratio_outer_one]"]),
    ("f_vertex_sum", "certificate.py",
     "g.vertex_sums(fv) <= 1.0 + 1e-12", "g.vertex_sums(fv) <= 2.0",
     ["tests/test_certificate.py::test_f_property_checks_fail_on_vertex_sums_over_one"]),
    ("f_graph_agreement", "certificate.py",
     "if q.parent is not classification.graph:", "if False:",
     ["tests/test_certificate.py::test_f_and_x_refuse_inputs_of_another_graph"]),
    ("x_realization_graph", "certificate.py",
     "if realization.parent is not g:", "if False:",
     ["tests/test_certificate.py::test_f_and_x_refuse_inputs_of_another_graph"]),
    # -- earlier hand-made mutants, now repeatable -----------------------------
    ("luby_tie_rule", "mis.py",
     "(rec[2] is not None and not p < rec[2])", "(rec[2] is not None and p > rec[2])",
     ["tests/test_mis.py::test_luby_rounds_tie_at_a_shared_member_blocks_both"]),
    ("counting_identity_raise", "vim.py",
     "if d_before + 2 * len(chosen) != d_after:", "if False:",
     ["tests/test_harness.py::test_broken_counting_identity_aborts"]),
    ("blossom_union_sort", "matching.py",
     "blossom.sort()", "pass",
     [M + "test_reference_agreement_on_workload_realizations",
      M + "test_blossom_results_equal_the_checked_constructor"]),
    ("blossom_member_lists", "matching.py",
     "members.pop(b, (b,))", "(b,)",
     [M + "test_reference_agreement_on_workload_realizations",
      M + "test_blossom_results_equal_the_checked_constructor"]),
    ("blossom_odd_reset", "matching.py",
     "        for x in odd:\n            parent[x] = -1\n", "",
     [M + "test_reference_agreement_on_workload_realizations",
      M + "test_reference_agreement_on_sparse_random_graphs",
      M + "test_blossom_results_equal_the_checked_constructor"]),
    ("blossom_last_root", "matching.py",
     "if last == i:", "if last <= i + 1:",
     [M + "test_reference_agreement_on_workload_realizations",
      M + "test_reference_agreement_on_sparse_random_graphs",
      M + "test_blossom_results_equal_the_checked_constructor"]),
    ("lex_pass_id_order", "graph.py",
     "sorted(range(self.m), key=edges.__getitem__)", "range(self.m)",
     [M + "test_reference_agreement_with_edge_ids_out_of_pair_order"]),
    ("lex_seed_lower_end_free", "matching.py",
     "if match[u] < 0 and match[v] < 0:", "if match[v] < 0:",
     [M + "test_reference_agreement_with_edge_ids_out_of_pair_order"]),
    ("kahan_compensation", "oracle.py",
     "comp[e] = (t - total[e]) - y", "comp[e] = 0.0",
     ["tests/test_oracle.py::test_exact_stats_bits_equal_the_numpy_element_reference"]),
    # -- the mask table's split by connected components ------------------------
    ("mask_component_leak", "matching.py",
     "frontier = reach & mask & ~comp", "frontier = reach & ~comp",
     [M + "test_mask_path_equals_reference_on_disjoint_unions"]),
    ("mask_component_drop_rest", "matching.py",
     "matched_by_mask(g, comp) + matched_by_mask(g, mask ^ comp)", "matched_by_mask(g, comp)",
     [M + "test_mask_path_equals_reference_on_disjoint_unions"]),
    # -- the one integer-input check of edge ids and masks ---------------------
    ("int_input_bool", "matching.py",
     "if isinstance(x, (bool, np.bool_)):", "if False:",
     [M + "test_bool_edge_ids_rejected", M + "test_non_integer_mask_rejected_on_a_miss"]),
    # -- the level-1 node ------------------------------------------------------
    ("level_one_disjointness_raise", "vim.py",
     "if len({x for i in result.in_set for x in members[i]}) != 2 * len(chosen):", "if False:",
     [V + "test_level_one_refuses_steps_that_share_a_vertex"]),
    ("early_return_live_at_every_level", "vim.py",
     "(creal.isdisjoint(self._live_edges()) if r == 1 else not creal)",
     "creal.isdisjoint(self._live_edges())",
     [V + "test_untraced_runs_equal_the_full_evaluation"]),
    # -- what the enumerator and the walk value keep ---------------------------
    ("leaf_cover_test", "vim.py",
     "if row[cur] == 1 or row[nbr] == 1:", "if False:",
     [V + "test_enumeration_matches_reference_enumerator"]),
    ("walk_length_check", "vim.py",
     "if len(vertices) != len(steps) + 1:", "if False:",
     [V + "test_hyperwalk_constructor_checks_lengths"]),
    # -- argument checks -------------------------------------------------------
    ("c_lambda_positive", "decomposition.py",
     "if not c_lambda > 0:", "if False:",
     ["tests/test_decomposition.py::test_classify_refuses_a_non_positive_c_lambda",
      C + "test_input_errors_exit_2_without_a_traceback[config_c_lambda_negative]"]),
    ("config_c_lambda", "harness.py",
     "check_c_lambda(self.c_lambda)", "pass",
     ["tests/test_harness.py::test_config_refuses_a_non_positive_desk_c_lambda"]),
    ("pipeline_f_band_q_se", "harness.py",
     "            q_se=est.se_q if oracle is None else None,\n", "",
     ["tests/test_harness.py::test_pipeline_f_band_counts_the_q_error_without_an_oracle"]),
    ("certify_runs_check", "cli.py",
     "if args.runs < 1:", "if False:",
     [C + "test_certify_refuses_fewer_than_one_run_before_any_stage"]),
    ("paper_mode_fixed_fields", "harness.py",
     'if self.mode == "paper" and fixed:', "if False:",
     ["tests/test_harness.py::test_config_validation",
      C + "test_input_errors_exit_2_without_a_traceback[paper_mode_with_alpha]"]),
    ("vim_params_integer_check", "vim.py",
     "_checked_count(getattr(self, name), name, least)",
     "if getattr(self, name) < least: raise ValueError(name)",
     [V + "test_vim_params_refuse_counts_that_are_not_integers"]),
    ("dependency_radius_trials", "vim.py",
     "if trials < 1:", "if False:",
     [V + "test_dependency_radius_needs_a_trial"]),
    ("generator_bool", "generators.py",
     "if kind is not str and any(isinstance(x, bool) for x in items):", "if False:",
     [C + "test_input_errors_exit_2_without_a_traceback[density_bool]"]),
    ("generator_whole_number", "generators.py",
     "if kind is int and isinstance(value, float) and not value.is_integer():", "if False:",
     [C + "test_input_errors_exit_2_without_a_traceback[n_fractional]"]),
    ("generator_overflow", "generators.py",
     "(TypeError, ValueError, OverflowError)", "(TypeError, ValueError)",
     [C + "test_input_errors_exit_2_without_a_traceback[n_infinite]"]),
    ("generator_density", "generators.py",
     "if density is not None and not (0.0 <= density[1] <= 1.0):", "if False:",
     [H + "test_densities_outside_zero_one_are_refused",
      C + "test_input_errors_exit_2_without_a_traceback[bipartite_density_above_one]"]),
    ("dependency_radius_vertex", "vim.py",
     "if not 0 <= v < self.cls.graph.n:", "if False:",
     [V + "test_dependency_radius_needs_a_vertex_of_the_graph"]),
    ("epsilon_open_interval", "stats.py",
     "if not (0.0 < epsilon < 1.0):", "if not (0.0 < epsilon <= 1.0):",
     ["tests/test_vertex_sums.py::test_each_epsilon_check_refuses_values_outside_zero_one"]),
    # -- draw addresses of the graph generators --------------------------------
    ("generator_pair_prefix", "generators.py",
     'stream.child("pair")', 'stream.child("edge")',
     [H + "test_generators_equal_the_per_pair_reference", H + "test_generated_edges_pinned"]),
    ("generator_p_index", "generators.py",
     "[ik[i] for i, _ in kept]", "[ik[i] for i in range(len(kept))]",
     [H + "test_generators_equal_the_per_pair_reference", H + "test_generated_edges_pinned"]),
    # -- the decomposition stages the pipeline and the CLI share ---------------
    ("decompose_reference_q", "harness.py",
     "g, q_ref, schedule.tau_minus", "g, est.q_hat, schedule.tau_minus",
     [C + "test_decompose_prints_the_pipeline_decomposition"]),
]

# (name, file, old text, new text, the tests it must pass, why it is equivalent)
SURVIVORS = [
    ("leaf_orientation_le", "vim.py",
     "if steps and not steps[0] < step:", "if steps and not steps[0] <= step:",
     ["tests/test_vim.py", "tests/test_harness.py"],
     "a last step equal to the first is an add step already in the walk, which "
     "leaves both its vertices covered once in its slot, so the leaf's cover-row "
     "test already rejects it"),
]


def copy_tree(dest: Path):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(where: Path, tests, timeout_s: float, *extra) -> tuple[str, str]:
    """('pass' | 'fail' | 'timeout' | 'error', pytest's output), with the
    ``extra`` pytest options."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *extra, *tests]
    try:
        proc = subprocess.run(cmd, cwd=where, capture_output=True, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    status = {0: "pass", 1: "fail"}.get(proc.returncode, "error")
    return status, (proc.stdout + proc.stderr).strip()


def tail(out: str) -> str:
    return "\n".join(out.splitlines()[-5:])


_DURATION = re.compile(r"^(\d+\.\d+)s (?:setup|call|teardown) +(\S.*)$", re.M)


def seconds_by_test(durations: str) -> dict[str, float]:
    """Seconds per test node id from pytest's ``--durations=0`` report."""
    out: dict[str, float] = {}
    for secs, node in _DURATION.findall(durations):
        out[node] = out.get(node, 0.0) + float(secs)
    return out


def timeout_for(tests, seconds: dict[str, float]) -> float:
    """The mutant timeout for ``tests``, each a node id, a parametrized test's
    id without its parameters, or a whole file."""
    total = sum(t for node, t in seconds.items()
                if any(node == name or node.startswith(name + ("[" if "::" in name else "::"))
                       for name in tests))
    return TIMEOUT_FACTOR * total + TIMEOUT_PAD_S


def apply(dest: Path, file: str, old: str, new: str):
    path = dest / "src" / "stochmatch" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise ValueError(f"{file}: old text occurs {text.count(old)} times: {old!r}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def run_mutant(tmp: str, name: str, file: str, old: str, new: str, tests,
               timeout_s: float) -> tuple[str, str]:
    """Apply one mutant to a fresh copy and run its tests, as ``run_tests``;
    ('error', reason) when the old text cannot be replaced."""
    work = Path(tmp) / name
    copy_tree(work)
    try:
        apply(work, file, old, new)
        return run_tests(work, tests, timeout_s)
    except ValueError as exc:
        return "error", f"cannot apply: {exc}"
    finally:
        shutil.rmtree(work)


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        all_tests = list(dict.fromkeys(t for m in MUTANTS + SURVIVORS for t in m[4]))
        status, out = run_tests(clean, all_tests, CLEAN_TIMEOUT_S,
                                "--durations=0", "--durations-min=0")
        print(f"unmutated: {status} ({len(all_tests)} tests)", flush=True)
        if status != "pass":
            print(tail(out))
            return 1
        seconds = seconds_by_test(out)
        # A survivor entry carries its reason as a sixth field.
        for name, file, old, new, tests, *why in MUTANTS + SURVIVORS:
            start = time.perf_counter()
            timeout_s = timeout_for(tests, seconds)
            status, out = run_mutant(tmp, name, file, old, new, tests, timeout_s)
            verdict = {"fail": "killed", "timeout": f"killed (timeout of {timeout_s:.0f}s)",
                       "pass": "survived"}.get(status, "ERROR")
            expected = status == "pass" if why else status in ("fail", "timeout")
            note = f" ({why[0]})" if why else ""
            print(f"{name}: {verdict}{'' if expected else ' UNEXPECTEDLY'} in "
                  f"{time.perf_counter() - start:.1f}s{note}", flush=True)
            if not expected:
                failures += 1
                print(tail(out))
    total = len(MUTANTS) + len(SURVIVORS)
    print(f"{total - failures} of {total} mutants as expected "
          f"({len(MUTANTS)} to be killed, {len(SURVIVORS)} to survive)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
