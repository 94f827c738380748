"""stochmatch benchmark: one workload per invocation, closed loop, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vim_path3 --seed 13 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1

A run starts a few set-up-only processes, then one measuring process
(``workloads.py``), one after another, all single-threaded.  The measuring
process repeats the workload's timed section and its item sweep until
``--seconds`` have passed, and re-runs the slowest few items between sweeps.
Every repeat does the same work, since the seed is the same.

Timings are reported at reference machine speed.  Between units of work
(steps and items, never inside one) the run times a fixed calibration chunk
that does not call stochmatch (``calibrate.py``).  Each run of a unit is
divided by the slowdown the nearest chunks show, against the chunk's time
on an uncontended reference machine.  On a host whose speed drifts with its
neighbours' load by up to 1.8x, this keeps the figures steady, while a change
to stochmatch still moves them in full.  ``wall_s`` sums each step's median
time at reference speed over the repeats, the item percentiles are taken
over each item's median.  ``setup_s`` is the median over the run's set-ups,
as measured.  The times as measured
(each unit's fastest run) and the median slowdown are printed as well.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones.  With ``--trace 1``, untraced and traced repeats
alternate and the metrics are the per-layer ones.  The lines before it give
the machine, the repeat counts, every metric with its unit, the error rate
and the output digest.  The run exits 1 without a result when a process
fails, and 2 when the checkout has no stochmatch sources.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "workloads.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

DEFAULT_SEEDS = {"vim_path3": 13, "mc_er300": 7, "experiment_er12": 0}
# Set-up-only processes per run; with the measuring process's own set-up
# they give the median set-up time.
SETUP_RUNS = 6
# Seconds kept free at the end of a run for the output checks and exit.
RESERVE_S = 1.5
# A process that runs this much past its budget has hung.
OVERRUN_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("ms_per_call", "ms"), ("us_per_draw", "us"),
                         ("us_per_sample", "us"), ("_ratio", "fraction"),
                         ("_rate", "fraction")):
        if name.endswith(suffix):
            return unit
    return "fraction" if name.startswith("share.") else "count"


class RunFailed(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_record() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {var: "1" for var in THREAD_VARS},
        "loadavg_1m": os.getloadavg()[0],
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, *, setup_only=False, budget=0.0,
              trace=False) -> dict:
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--budget", repr(budget)]
    if trace:
        cmd.append("--trace")
    cmd += ["--started-at", repr(_now())]
    timeout = budget + OVERRUN_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"{workload} process exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile: the value with a share q of values at or below it."""
    rank = max(1, math.ceil(len(sorted_values) * q))
    return sorted_values[rank - 1]


def load_baseline() -> dict:
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-ups, then repeats of the workload until ``seconds`` have passed."""
    deadline = _now() + seconds
    setups = [run_child(workload, seed, setup_only=True)["setup_s"]
              for _ in range(SETUP_RUNS)]
    budget = max(deadline - _now() - RESERVE_S, 1.0)
    run = run_child(workload, seed, budget=budget, trace=trace)
    setups.append(run["setup_s"])

    stored = load_baseline()["workloads"][workload]["digests"].get(str(seed))
    digest_flag = "unknown" if stored is None else (
        "match" if stored == run["digest"] else "mismatch")
    out = {
        "workload": workload,
        "seed": seed,
        "repeats": len(run["wall_s"]),
        "traced_repeats": len(run["traced"]),
        "setup_runs": len(setups),
        "items": len(run["items_ref_s"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "error_rate": run["failed"] / run["attempted"],
        "digest": run["digest"],
        "digest_vs_baseline": digest_flag,
        "repeat_wall_s": run["wall_s"],
        "steps_ref_s": run["steps_ref_s"],
        "steps_fastest_s": run["steps_fastest_s"],
    }
    if trace:
        out["metrics"] = per_layer_metrics(run)
        return out
    items = sorted(run["items_ref_s"])
    wall_s = sum(run["steps_ref_s"])
    raw_wall_s = sum(run["steps_fastest_s"])
    if run["items_timed"]:
        # The items are the timed section: each one is a step too.
        wall_s += sum(items)
        raw_wall_s += sum(run["items_fastest_s"])
    out["raw"] = {
        "slowdown": run["slowdown"],
        "wall_s": raw_wall_s,
        "item_p50_ms": 1e3 * percentile(sorted(run["items_fastest_s"]), 0.50),
        "item_p99_ms": 1e3 * percentile(sorted(run["items_fastest_s"]), 0.99),
    }
    out["metrics"] = {
        # Set-up is not scaled: it runs in processes of their own, mostly
        # importing, and its time did not follow the chunks' slowdown.
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "item_p50_ms": 1e3 * percentile(items, 0.50),
        "item_p99_ms": 1e3 * percentile(items, 0.99),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return out


def per_layer_metrics(run: dict) -> dict:
    traced = run["traced"]
    layers = {}
    for name in traced[0]["layers"]:
        layers[name] = statistics.median(t["layers"][name] for t in traced)
    layers["process.cpu_s"] = statistics.median(run["cpu_s"])
    layers["trace.wall_s"] = statistics.median(t["wall_s"] for t in traced)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(run["wall_s"])
    return layers


def report(result: dict, units) -> None:
    print(f"# {result['workload']}: seed {result['seed']}, {result['repeats']} untraced "
          f"and {result['traced_repeats']} traced repeats, {result['setup_runs']} "
          f"set-ups, {result['items']} items")
    walls = ", ".join(f"{w:.3f}" for w in result["repeat_wall_s"])
    print(f"# {result['workload']}: timed section per untraced repeat {walls} s")
    for name, value in result["metrics"].items():
        print(f"{result['workload']}.{name} = {value:.6g} {units(name)}")
    if "raw" in result:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items())
        print(f"# {result['workload']}: as measured, fastest runs: {raw}")
    print(f"{result['workload']}.error_rate = {result['error_rate']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} checks failed)")
    for failure in result["failures"]:
        print(f"# check failed: {failure}")
    print(f"# digest {result['digest']} ({result['digest_vs_baseline']} "
          f"against perfbench/baseline.json)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(DEFAULT_SEEDS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stochmatch", "__init__.py")):
        sys.stderr.write(f"no stochmatch sources under {ROOT}/src; run from a checkout\n")
        return 2
    units = per_layer_unit if args.trace else END_TO_END_UNITS.get
    workloads = sorted(DEFAULT_SEEDS) if args.workload == "all" else [args.workload]
    machine = machine_record()
    print("# machine " + json.dumps(machine, sort_keys=True))
    results = []
    try:
        for workload in workloads:
            seed = DEFAULT_SEEDS[workload] if args.seed is None else args.seed
            results.append(run_workload(workload, seed, args.seconds, bool(args.trace)))
            report(results[-1], units)
    except RunFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "results": results}, fh, indent=1)

    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units(name)}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
