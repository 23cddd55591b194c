"""The benchmark's tracer (perfbench/tracing.py) still wraps starclab cleanly.

The tracer binds functions by name and reads their arguments and results,
so a renamed function or a changed result shape breaks every traced
benchmark run.  These tests load the tracer and the workloads as they are,
install the tracer, and run traced operations through it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import starclab
import starclab.cli  # noqa: F401  (the benchmark imports it, and with it every module the tracer binds)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads", "reference"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracing, workloads, tracer
    finally:
        tracer.uninstall()
        for name in ("tracing", "workloads", "reference"):
            sys.modules.pop(name, None)


def _run(op):
    run, check = op.prepare()
    assert check(run()) == [], op.kind


def test_traced_audit_round_and_sweep_operation(perfbench, tmp_path):
    tracing, workloads, tracer = perfbench
    for op in workloads.WORKLOADS["robustness-audit"](1, tmp_path).round(0):
        _run(op)
    sweep = workloads.WORKLOADS["solver-sweep"](1, tmp_path)
    (op,) = sweep.round(0)
    _run(op)
    # The N=1 kernels the tracer notes: their arguments and results must
    # keep the shapes its notes read.
    mdp = sweep.mdp
    er = starclab.mdp.expected_reward(mdp, starclab.random_reward(0, mdp.n_states, mdp.n_actions))
    starclab._kernels.value_iteration(er, mdp.transition, mdp.discount, 100)
    starclab._kernels.soft_value_iteration(er, mdp.transition, mdp.discount, 1.0, 1e-10, 100)
    tracer.uninstall()

    extra = {"transforms.invariance_basis.cached_mb": 0.0, "trace.overhead_pct": 0.0,
             "cli.cold_call_ms": 0.0, "acceptance.run_all_ms": 0.0}
    metrics = tracing.layer_metrics(tracer, 3, extra)
    assert all(np.isfinite(metric["value"]) for metric in metrics.values())
    assert metrics["kernels.value_iteration.iterations"]["value"] > 0
    assert metrics["kernels.soft_value_iteration.iterations"]["value"] > 0
    assert metrics["models.mce_policy.calls"]["value"] > 0
    assert tracing.call_tree(tracer)
