"""The benchmark tracer's wrap targets still exist in the package, and a
traced pipeline run completes."""

import importlib.util
import os
import sys
from time import perf_counter

import stochmatch.cli  # noqa: F401 - the tracer wraps cli.main
from stochmatch import harness, randomness

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every module global and class attribute of the loaded stochmatch modules."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "stochmatch" and not name.startswith("stochmatch."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_wraps_every_target_and_restores_them():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        # One span name per wrapped function or method, as the metrics expect.
        assert sorted(tracer.names) == sorted(tracing.LAYERS)
        replaced = {k: v for k, v in during.items() if v is not before.get(k)}
        assert all(v.__wrapped__ is before[k] for k, v in replaced.items())
        wrappers = {id(v) for v in replaced.values()}
        assert len(wrappers) == len(tracing.LAYERS)
        randomness.keyed_uniform(0, ("x",))
        assert [tracer.names[i] for i in tracer.name_ids] == ["keyed_uniform"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_pipeline_completes_and_counts_matchings():
    tracing = _load_tracing()
    config = harness.ExperimentConfig(
        graph_family="path", graph_params={"n": 4, "p": 0.5}, epsilon=0.3, seed=3,
        q_samples=500, vim_runs=10, cert_runs=5, gamma_samples=20, ratio_outer=2,
        ratio_inner=3, ratio_denom=20, alpha=2, depth=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = perf_counter()
        report = harness.run_pipeline(config)  # the traced binding
        wall_s = perf_counter() - start
    finally:
        tracer.uninstall()
    assert report.stages["graph"]["m"] <= 10 and "oracle" in report.stages
    metrics = tracer.metrics(wall_s)
    assert metrics["matching.calls"] >= 1
    assert metrics["oracle.masks"] == 2 ** report.stages["graph"]["m"]
