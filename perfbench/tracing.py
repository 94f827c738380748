"""Span tracing of stochmatch from outside the package.

``Tracer.install`` replaces selected public functions and methods with
wrappers that record one span per call: name, start, end and the span that
was open when the call started.  A function is replaced under every name
that any ``stochmatch`` module bound it to (``keyed_uniform`` lives in both
``randomness`` and ``vim``), so calls are caught whichever module makes
them.  Spans are kept in flat in-memory arrays and written out at the end;
counts come from arguments and return values at the same boundaries.
``uninstall`` restores every original object.  Untraced runs never create a
tracer, so they execute the package exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Stage names of ``harness.run_pipeline``'s timings block, in pipeline order.
PIPELINE_STAGES = (
    "graph", "estimate_q", "oracle", "schedule", "classify",
    "build_q", "vim", "certificate", "ratio",
)

# Layer of each span name; a layer's self time is the sum over its spans.
LAYERS = {
    "keyed_uniform": "randomness",
    "uniforms": "randomness",
    "sample_realization": "graph",
    "max_matching": "matching",
    "exact_stats": "oracle",
    "estimate_q": "decomposition",
    "build_q": "sparsifier",
    "realize_and_match_q": "sparsifier",
    "input_realization": "vim",
    "gamma_table": "vim",
    "run": "vim",
    "enumerate_augmenting_hyperwalks": "vim",
    "build_conflict_graph": "vim",
    "profile": "vim",
    "apply_hyperwalks": "vim",
    "luby_rounds": "mis",
    "compute_f": "certificate",
    "build_x": "certificate",
    "build_y": "certificate",
    "check_blossom": "certificate",
    "test_f_properties": "certificate",
    "run_pipeline": "harness",
    "estimate_ratio": "harness",
    "concentration_test": "harness",
    "main": "cli",
}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))


def _edge_count(edge_set, g) -> int:
    if edge_set is None:
        return g.m
    present = getattr(edge_set, "present", None)
    if present is not None:
        return int(present.sum())
    return len(edge_set)


class Tracer:
    """Records spans of wrapped calls plus counters read at the same calls."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller of a finishing call)."""
        if not self._stack:
            return None
        return self.names[self.name_ids[self._stack[-1]]]

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if count is not None:
                count(self, result, args, kwargs)
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap every traced boundary of the imported stochmatch package."""
        from stochmatch import certificate, cli, decomposition, graph, harness
        from stochmatch import matching, mis, oracle, randomness, sparsifier, vim

        c = self.counts

        def uniforms(tr, result, args, kwargs):
            c["bulk_values"] += result.size
            if tr.parent_name() == "estimate_q":
                c["bulk_values_in_estimate_q"] += result.size

        def max_matching(tr, result, args, kwargs):
            g = args[0]
            edge_set = args[1] if len(args) > 1 else kwargs.get("edge_set")
            c["matching_edges"] += _edge_count(edge_set, g)
            if tr.parent_name() == "estimate_q":
                c["estimate_q_matchings"] += 1

        def exact_stats(tr, result, args, kwargs):
            c["oracle_masks"] += 1 << result.graph.m

        def estimate_q(tr, result, args, kwargs):
            c["estimate_q_samples"] += result.samples
            c["estimate_q_values_used"] += result.samples * result.graph.m

        def enumerate_walks(tr, result, args, kwargs):
            c["walks_enumerated"] += len(result)

        def conflict_graph(tr, result, args, kwargs):
            c["conflict_edges"] += sum(len(a) for a in result) // 2

        def apply_walks(tr, result, args, kwargs):
            c["walks_selected"] += len(args[1])

        def luby(tr, result, args, kwargs):
            c["mis_rounds_used"] += result.rounds
            c["mis_round_budget"] += args[1]
            c["mis_undecided"] += len(result.undecided)

        def blossom(tr, result, args, kwargs):
            c["blossom_subsets"] += result.subsets_checked

        def pipeline(tr, result, args, kwargs):
            for stage, seconds in result.timings.items():
                c[f"stage.{stage}"] += seconds

        functions = [
            (randomness, "keyed_uniform", None),
            (graph, "sample_realization", None),
            (matching, "max_matching", max_matching),
            (oracle, "exact_stats", exact_stats),
            (decomposition, "estimate_q", estimate_q),
            (sparsifier, "build_q", None),
            (sparsifier, "realize_and_match_q", None),
            (vim, "enumerate_augmenting_hyperwalks", enumerate_walks),
            (vim, "build_conflict_graph", conflict_graph),
            (vim, "apply_hyperwalks", apply_walks),
            (mis, "luby_rounds", luby),
            (certificate, "compute_f", None),
            (certificate, "build_x", None),
            (certificate, "build_y", None),
            (certificate, "check_blossom", blossom),
            (certificate, "test_f_properties", None),
            (harness, "run_pipeline", pipeline),
            (harness, "estimate_ratio", None),
            (harness, "concentration_test", None),
            (cli, "main", None),
        ]
        methods = [
            (randomness.RandomStream, "uniforms", "uniforms", uniforms),
            (vim.VimEngine, "input_realization", "input_realization", None),
            (vim.VimEngine, "gamma_table", "gamma_table", None),
            (vim.VimEngine, "run", "run", None),
            (vim.Profile, "__init__", "profile", None),
        ]
        modules = [mod for key, mod in sys.modules.items()
                   if key == "stochmatch" or key.startswith("stochmatch.")]
        for home, attr, count in functions:
            original = getattr(home, attr)
            traced = self.wrap(attr, original, count)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, bound, value))
                        setattr(mod, bound, traced)
        for cls, attr, name, count in methods:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, count))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }

    def save(self, path):
        np.savez(path, **self.arrays())

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced section that took ``wall_s``."""
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        n_names = len(self.names)
        calls_by_id = np.bincount(nid, minlength=n_names)
        self_by_id = np.bincount(nid, weights=self_time, minlength=n_names)
        ids = {name: i for i, name in enumerate(self.names)}

        def calls(name):
            return int(calls_by_id[ids[name]])

        def self_s(*names):
            return float(sum(self_by_id[ids[n]] for n in names))

        def inclusive_s(name):
            """Summed duration of the calls not nested in a call of the same name."""
            sel = np.flatnonzero(nid == ids[name])
            total, open_until = 0.0, -np.inf
            for s, e in zip(a["start"][sel], a["end"][sel]):
                if s >= open_until:
                    total += e - s
                    open_until = e
            return float(total)

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        c = self.counts
        draws = calls("keyed_uniform")
        match_calls = calls("max_matching")
        q_samples = c["estimate_q_samples"]
        values = c["bulk_values"]
        used = values - c["bulk_values_in_estimate_q"] + c["estimate_q_values_used"]
        walks = c["walks_enumerated"]
        estimate_q_s = inclusive_s("estimate_q")
        pipeline_s = inclusive_s("run_pipeline")
        staged = sum(c[f"stage.{s}"] for s in PIPELINE_STAGES)
        out = {
            "randomness.keyed_draws": draws,
            "randomness.keyed_self_s": self_s("keyed_uniform"),
            "randomness.keyed_us_per_draw": 1e6 * ratio(self_s("keyed_uniform"), draws),
            "randomness.bulk_values": int(values),
            "randomness.bulk_self_s": self_s("uniforms"),
            "randomness.bulk_used_ratio": ratio(used, values),
            "graph.sample_realization_calls": calls("sample_realization"),
            "graph.sample_realization_self_s": self_s("sample_realization"),
            "matching.calls": match_calls,
            "matching.self_s": self_s("max_matching"),
            "matching.ms_per_call": 1e3 * ratio(self_s("max_matching"), match_calls),
            "matching.mean_edges_per_call": ratio(c["matching_edges"], match_calls),
            "oracle.exact_stats_s": inclusive_s("exact_stats"),
            "oracle.masks": int(c["oracle_masks"]),
            "oracle.self_s": self_s("exact_stats"),
            "decomposition.estimate_q_s": estimate_q_s,
            "decomposition.us_per_sample": 1e6 * ratio(estimate_q_s, q_samples),
            "decomposition.memo_hit_rate":
                1.0 - ratio(c["estimate_q_matchings"], q_samples) if q_samples else 0.0,
            "sparsifier.build_q_s": inclusive_s("build_q"),
            "sparsifier.realize_and_match_calls": calls("realize_and_match_q"),
            "sparsifier.realize_and_match_self_s": self_s("realize_and_match_q"),
            "vim.nodes": calls("enumerate_augmenting_hyperwalks"),
            "vim.enumerate_self_s": self_s("enumerate_augmenting_hyperwalks"),
            "vim.walks_enumerated": int(walks),
            "vim.walks_selected_ratio": ratio(c["walks_selected"], walks),
            "vim.conflict_self_s": self_s("build_conflict_graph"),
            "vim.conflict_edges": int(c["conflict_edges"]),
            "vim.profile_self_s": self_s("profile"),
            "vim.apply_self_s": self_s("apply_hyperwalks"),
            "vim.run_self_s": self_s("run"),
            "vim.input_self_s": self_s("input_realization"),
            "vim.gamma_self_s": self_s("gamma_table"),
            "vim.gamma_build_s": inclusive_s("gamma_table"),
            "mis.luby_self_s": self_s("luby_rounds"),
            "mis.rounds_used": int(c["mis_rounds_used"]),
            "mis.round_budget": int(c["mis_round_budget"]),
            "mis.undecided_nodes": int(c["mis_undecided"]),
            "certificate.self_s": self_s("compute_f", "build_x", "build_y",
                                         "check_blossom", "test_f_properties"),
            "certificate.blossom_subsets": int(c["blossom_subsets"]),
        }
        for stage in PIPELINE_STAGES:
            out[f"harness.stage.{stage}_s"] = float(c[f"stage.{stage}"])
        out["harness.untimed_s"] = pipeline_s - staged if pipeline_s else 0.0
        out["harness.estimate_ratio_s"] = inclusive_s("estimate_ratio")
        out["harness.concentration_s"] = inclusive_s("concentration_test")
        out["cli.overhead_s"] = inclusive_s("main") - pipeline_s
        layer_self = defaultdict(float)
        for name, layer in LAYERS.items():
            layer_self[layer] += self_s(name)
        for layer in LAYER_NAMES:
            out[f"share.{layer}"] = ratio(layer_self[layer], wall_s)
        out["share.untraced"] = ratio(wall_s - sum(layer_self.values()), wall_s)
        out["trace.spans"] = int(dur.size)
        return out
