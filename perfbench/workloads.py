"""One run of one benchmark workload, in a fresh single-threaded process.

Usage (from the root of a checkout; ``run.py`` starts it):

    python3 perfbench/workloads.py --workload NAME --seed N --started-at T
        [--setup-only] [--budget SECONDS] [--trace]

The process builds the workload's inputs from the seed (set-up), then repeats
the same work until ``--budget`` seconds have passed: the timed section, split
into steps, then a sweep over the workload's items, then a few tail sweeps
that repeat only the currently slowest items.  Where the items are not the
timed section, only the first repeat sweeps all of them.  Calibration chunks run between
steps and items (``calibrate.py``).  Outputs of the first repeat are checked
outside any timed section, and every repeat's output digest must equal the
first.  The last line of standard output is one JSON object with the set-up
time, each step's and item's time at reference speed and as measured, peak
RSS, checks attempted and failed and the digest; with ``--trace``, untraced
and traced repeats alternate and the object also holds the per-layer metrics
of the traced ones, as measured.
``--started-at`` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this process, so set-up time counts interpreter start and
imports too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time

from calibrate import Calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_REPEATS = 2
MIN_TRACED_REPEATS = 1
# After each untraced repeat, this many sweeps over the slowest TAIL_SHARE of
# the items.  The p99 is decided by a few tail items; repeating them more
# often lets each reach its uncontended time as the bulk of the items does.
TAIL_SWEEPS = 3
TAIL_SHARE = 0.05


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_package():
    """Import stochmatch from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "stochmatch", "__init__.py")):
        raise SystemExit(f"stochmatch sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import stochmatch

    if not os.path.abspath(stochmatch.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported stochmatch from {stochmatch.__file__}, not {SRC}")
    return stochmatch


class Checks:
    """Counts checked operations; each failed check is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


# Seconds of work between calibrations while items run.
CALIBRATE_EVERY_S = 0.1
# Calibration chunks before each step: a step may run for seconds without any.
STEP_CHUNKS = 4


def _timed(cal: Calibration, fn):
    """Calibrate, then time ``fn``; returns ((seconds, start, end), result)."""
    cal.run(STEP_CHUNKS)
    start = time.perf_counter()
    out = fn()
    end = time.perf_counter()
    return (end - start, start, end), out


# Every workload is a class with:
#   setup(seed)      builds the inputs (counted in setup_s);
#   steps(cal)       runs the timed section, calibrating before each step;
#                    returns its steps' (seconds, start, end) and its output;
#   n_items, item(i) one item, whose latency is timed by the caller;
#   items_timed      whether the item sweep is part of the timed section;
#   digest(output)   digest of a repeat's output, items included;
#   check(output, checks)  the output checks of the first repeat.


# -- vim_path3 -----------------------------------------------------------------


class VimPath3:
    """gamma_table(1) on a fresh engine, then 1000 VIM samples (the items)."""

    # Items per sweep: the nearest-rank p99 of 1000 items has 10 items above it.
    n_items = 1000
    items_timed = True
    # The engine seed fixes the gamma tables and with them the saturated sets,
    # which decide how much walk enumeration every item does; the workload
    # seed picks the items' inputs and randomness, so seeds change inputs, not
    # the amount of work per item.
    ENGINE_SEED = 13

    def setup(self, seed: int):
        from stochmatch import StochasticGraph
        from stochmatch.decomposition import classify
        from stochmatch.oracle import exact_stats
        from stochmatch.vim import VimEngine, VimParams

        self.VimEngine = VimEngine
        self.g = StochasticGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        stats = exact_stats(self.g)
        self.cls = classify(self.g, stats.q, 0.1, 0.2, epsilon=0.3)
        self.params = VimParams(epsilon=0.3, alpha=11, depth=2, gamma_samples=300)
        self.seed = seed
        self.engine = VimEngine(self.cls, self.params, self.ENGINE_SEED)
        self.outputs = [None] * self.n_items

    def steps(self, cal):
        # A fresh engine per repeat, so that every repeat builds the gamma table.
        self.engine = self.VimEngine(self.cls, self.params, self.ENGINE_SEED)
        gamma, _ = _timed(cal, lambda: self.engine.gamma_table(1))
        return [gamma], None

    def item(self, s: int):
        key = ("bench", self.seed, s)
        creal = self.engine.input_realization(key)
        self.outputs[s] = (creal, self.engine.run(2, creal, key=key))

    def digest(self, _output) -> str:
        return _sha(sorted(z) for _creal, z in self.outputs)

    def check(self, _output, checks: Checks):
        import numpy as np
        from stochmatch import Matching

        g, params = self.g, self.params
        hits = np.zeros(g.n)
        for s, (creal, z) in enumerate(self.outputs):
            try:
                Matching(g, z)
                ok = z <= creal
            except ValueError:
                ok = False
            checks.check(ok, f"item {s}: output is not a matching inside its realization")
            for e in z:
                u, v = g.endpoints(e)
                hits[u] += 1
                hits[v] += 1
        # Criterion 05's band: frequency <= c_v - eps^2 + 3 se + gamma CI.
        freq = hits / self.n_items
        cap = np.maximum(self.cls.c_v - params.epsilon**2, 0.0)
        band = 3.0 * np.sqrt(freq * (1.0 - freq) / self.n_items)
        gamma_ci = params.gamma_ci_factor * self.engine.gamma_se(params.depth - 1)
        over = [v for v in range(g.n) if freq[v] > cap[v] + band[v] + gamma_ci[v]]
        checks.check(not over, f"match frequency above the criterion 05 cap at {over}")


# -- mc_er300 ------------------------------------------------------------------


class McEr300:
    """The library's Monte Carlo entry points on a fixed ER graph, n=300, m=1405.

    Items are single Monte Carlo samples: one realization and its maximum
    matching, the unit of work inside every batch call of the timed section.
    """

    n_items = 1000
    items_timed = False
    NX_REALIZATIONS = 8

    # The graph stays fixed, so every seed does the same matching work; the
    # workload seed keys the Monte Carlo streams and the item streams.
    def setup(self, seed: int):
        from stochmatch import RandomStream
        from stochmatch.generators import erdos_renyi

        self.g = erdos_renyi(300, 0.03, (0.2, 0.8), seed=7)
        self.seed = seed
        stream = RandomStream(seed, ("bench-item",))
        self.item_streams = [stream.child(i) for i in range(self.n_items)]

    def steps(self, cal):
        from stochmatch.decomposition import estimate_q
        from stochmatch.harness import concentration_test, estimate_ratio
        from stochmatch.sparsifier import build_q

        g, seed = self.g, self.seed
        calls = [
            ("est", lambda: estimate_q(g, 50, seed)),
            ("q", lambda: build_q(g, 16, seed)),
            ("ratio", lambda: estimate_ratio(g, "algorithm1", 16, outer=2, inner=10,
                                             denom_samples=50, seed=seed)),
            ("conc", lambda: concentration_test(g, [0.05, 0.1], 100, seed)),
        ]
        times, output = [], {}
        for name, call in calls:
            timing, output[name] = _timed(cal, call)
            times.append(timing)
        return times, output

    def item(self, i: int):
        from stochmatch import mu, sample_realization

        mu(self.g, sample_realization(self.g, self.item_streams[i]))

    def digest(self, out) -> str:
        est, ratio, conc = out["est"], out["ratio"], out["conc"]
        return _sha([est.counts.tolist(), est.sum_mu, est.sum_mu_sq, out["q"].t.tolist(),
                     ratio.ratio, ratio.se, ratio.num_mean, ratio.num_se,
                     ratio.den_mean, ratio.den_se, conc.opt_hat])

    def check(self, out, checks: Checks):
        import math

        import networkx as nx
        from stochmatch import RandomStream, mu, sample_realization

        g, est, ratio, conc = self.g, out["est"], out["ratio"], out["conc"]
        checks.check(int(est.counts.sum()) == est.sum_mu, "estimate_q mass identity")
        stream = RandomStream(self.seed, ("bench-nx",))
        for i in range(self.NX_REALIZATIONS):
            real = sample_realization(g, stream.child(i))
            ref = nx.Graph()
            ref.add_edges_from(g.endpoints(e) for e in real.edge_ids())
            expected = len(nx.max_weight_matching(ref, maxcardinality=True))
            checks.check(mu(g, real) == expected,
                         f"mu differs from networkx on realization {i}")
        # A sparsifier is a subgraph, so its realized matching cannot beat G's.
        checks.check(math.isfinite(ratio.ratio) and 0.0 < ratio.ratio <= 1.0 + 3.0 * ratio.se,
                     f"ratio {ratio.ratio} outside (0, 1 + 3 se]")
        for entry in conc.entries:
            checks.check(entry["status"] != "fail", f"concentration entry failed: {entry}")


# -- experiment_er12 -------------------------------------------------------------


class ExperimentEr12:
    """``stochmatch experiment --config`` on a 12-vertex ER graph with m=14.

    Items are single ``max_matching`` calls on 12-vertex realizations sampled
    in set-up: the per-call overhead that dominates the pipeline's thousands
    of tiny matchings.
    """

    n_items = 1000
    items_timed = False
    # The report's q_oracle_agreement check tests every edge at three sigma,
    # so some config seeds fail it by chance.  The pipeline therefore always
    # runs config seed 0; the workload seed picks the items' realizations.
    CONFIG_SEED = 0

    def setup(self, seed: int):
        from stochmatch import RandomStream, sample_realization
        from stochmatch.generators import erdos_renyi

        self.g = erdos_renyi(12, 0.12, (0.3, 0.9), seed=2)
        graph_path = "graph.txt"
        with open(graph_path, "w", encoding="utf-8") as fh:
            fh.write(self.g.to_text())
        config = {"graph_file": graph_path, "seed": self.CONFIG_SEED, "alpha": 3,
                  "depth": 2, "gamma_samples": 60, "vim_runs": 60, "cert_runs": 20,
                  "oracle_cap": self.g.m}
        self.config_path = "config.json"
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        stream = RandomStream(seed, ("bench-item",))
        self.reals = [sample_realization(self.g, stream.child(i))
                      for i in range(self.n_items)]

    def steps(self, cal):
        """One CLI run; its steps are the report's stage timings plus the rest."""
        from stochmatch import cli

        out = io.StringIO()

        def experiment():
            with contextlib.redirect_stdout(out):
                return cli.main(["experiment", "--config", self.config_path])

        (total, start, end), exit_code = _timed(cal, experiment)
        output = {"exit_code": exit_code, "stdout": out.getvalue()}
        try:
            timings = json.loads(output["stdout"])["timings"]
        except (json.JSONDecodeError, KeyError):
            return [(total, start, end)], output
        # The stages run inside one call, so all share the call's interval.
        stages = [timings[name] for name in sorted(timings)]
        return [(t, start, end) for t in stages + [total - sum(stages)]], output

    def item(self, i: int):
        from stochmatch import max_matching

        max_matching(self.g, self.reals[i])

    def digest(self, out) -> str:
        try:
            return json.loads(out["stdout"])["fingerprint"]
        except (json.JSONDecodeError, KeyError):
            return ""

    def check(self, out, checks: Checks):
        checks.check(out["exit_code"] == 0, f"CLI exit code {out['exit_code']}")
        try:
            report = json.loads(out["stdout"])
        except json.JSONDecodeError:
            checks.check(False, "CLI output is not JSON")
            return
        for entry in report["checks"]:
            checks.check(entry["status"] != "fail", f"pipeline check failed: {entry['name']}")


WORKLOADS = {"vim_path3": VimPath3, "mc_er300": McEr300, "experiment_er12": ExperimentEr12}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up only, then exit")
    parser.add_argument("--budget", type=float, default=30.0,
                        help="seconds of repeats after set-up")
    parser.add_argument("--trace", action="store_true",
                        help="run every second repeat under the tracer")
    args = parser.parse_args(argv)

    _import_package()
    os.makedirs(OUT_DIR, exist_ok=True)
    # Each run works in its own scratch directory under relative file names,
    # so outputs that record a path (the experiment report's config) do not
    # depend on where the checkout lives.
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        os.chdir(workdir)
        try:
            result = _run(args)
        finally:
            os.chdir(ROOT)
    print(json.dumps(result))
    return 0


def _run(args) -> dict:
    w = WORKLOADS[args.workload]()
    w.setup(args.seed)
    setup_s = _now() - args.started_at
    if args.setup_only:
        return {"setup_s": setup_s}

    deadline = _now() + args.budget
    cal = Calibration()
    n = w.n_items
    item_runs = [[] for _ in range(n)]   # per item: (seconds, start, end) of each run
    step_runs, walls, cpus, digests = [], [], [], []
    traced = []          # per traced repeat: wall time and per-layer metrics
    first_output, peak_rss_mb, tracer_spans = None, None, None

    def run_item(i):
        if time.perf_counter() - cal.mids[-1] > CALIBRATE_EVERY_S:
            cal.run()
        start = time.perf_counter()
        w.item(i)
        end = time.perf_counter()
        return end - start, start, end

    min_untraced = 1 if args.trace else MIN_REPEATS
    steps_s = 0.0
    while True:
        use_trace = args.trace and len(traced) < len(walls)
        tracer = None
        if use_trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        # Once the minimum repeats are done, a sweep of items stops at the
        # deadline: each item's time is taken over however many times it ran,
        # so a partial sweep still counts.
        may_stop = tracer is None and len(walls) >= min_untraced

        def sweep():
            runs = []
            for i in range(n):
                if may_stop and _now() > deadline:
                    break
                runs.append(run_item(i))
            return runs

        cpu0 = time.process_time()
        t0 = time.perf_counter()
        steps, output = w.steps(cal)
        steps_s = time.perf_counter() - t0
        runs = sweep() if w.items_timed else []
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
        if peak_rss_mb is None:
            # The high-water mark of set-up and one timed section.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not w.items_timed and tracer is None and not walls:
            # Where the items are not the timed section, later repeats re-run
            # the steps and the tail items only, so the steps, which run for
            # seconds, get more repeats.
            runs = sweep()
        complete = len(runs) == n or not w.items_timed
        if complete:
            digests.append(w.digest(output))
        if first_output is None:
            first_output = output
            checks = Checks()
            w.check(output, checks)
        if tracer is not None:
            traced.append({"wall_s": wall_s, "layers": tracer.metrics(wall_s)})
            if tracer_spans is None:
                tracer_spans = tracer.arrays()
        else:
            step_runs.append(steps)
            for i, r in enumerate(runs):
                item_runs[i].append(r)
            if not complete:
                break
            walls.append(wall_s)
            cpus.append(cpu_s)
            for _ in range(TAIL_SWEEPS):
                fastest = [min(r[0] for r in item) for item in item_runs]
                cutoff = sorted(fastest)[int(n * (1.0 - TAIL_SHARE))]
                for i in [i for i in range(n) if fastest[i] >= cutoff]:
                    item_runs[i].append(run_item(i))
        # A traced run needs one untraced and one traced repeat; their two
        # digests still check that repeats agree.
        enough = len(walls) >= min_untraced and len(traced) >= (
            MIN_TRACED_REPEATS if args.trace else 0)
        # Start another repeat only if its steps end before the deadline.
        if enough and _now() + steps_s > deadline:
            break
    cal.run()

    for d in digests[1:]:
        # Repeats of one seed must give identical outputs.
        checks.check(d == digests[0], f"digest {d[:12]} differs from {digests[0][:12]}")
    if tracer_spans is not None:
        import numpy as np

        np.savez(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.npz"),
                 **tracer_spans)
    steps_ref, steps_fastest = _at_reference(cal, [list(s) for s in zip(*step_runs)])
    items_ref, items_fastest = _at_reference(cal, item_runs)
    return {
        "setup_s": setup_s,
        "steps_ref_s": steps_ref,
        "steps_fastest_s": steps_fastest,
        "items_ref_s": items_ref,
        "items_fastest_s": items_fastest,
        "items_timed": w.items_timed,
        "slowdown": cal.slowdown(),
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": peak_rss_mb,
        "traced": traced,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "digest": digests[0],
    }


def _at_reference(cal: Calibration, units):
    """Each unit's median time at reference speed, and its fastest raw time.

    ``units`` holds, per unit, the (seconds, start, end) of each of its runs;
    each run's time is divided by the calibrated slowdown over its interval.
    """
    flat = [r for runs in units for r in runs]
    if not flat:
        return [], []
    seconds, starts, ends = zip(*flat)
    factors = cal.factors(starts, ends)
    at_ref, fastest, k = [], [], 0
    for runs in units:
        at_ref.append(float(statistics.median(
            s / f for s, f in zip(seconds[k:k + len(runs)], factors[k:k + len(runs)]))))
        fastest.append(min(seconds[k:k + len(runs)]))
        k += len(runs)
    return at_ref, fastest


if __name__ == "__main__":
    sys.exit(main())
