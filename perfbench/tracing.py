"""Spans around starclab's public functions, installed from outside the package.

A ``Tracer`` replaces each listed function at every module that binds it
(``project_invariant`` is bound in ``transforms``, ``metric`` and
``robustness``, for example) with a wrapper that records a span: name, the
module the call went through, start, end and the enclosing span.  Spans stay
in memory; ``layer_metrics`` turns them into per-layer counts, times, self
times and useful-work ratios.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import gc
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module that defines it, attribute name, owning class or None)
TRACED = [
    ("mdp.construct", "mdp", "__post_init__", "TabularMdp"),
    ("mdp.optimal_values", "mdp", "optimal_values", None),
    ("mdp.policy_evaluation", "mdp", "policy_evaluation", None),
    ("mdp.policy_return", "mdp", "policy_return", None),
    ("mdp.occupancy_measure", "mdp", "occupancy_measure", None),
    ("kernels.value_iteration", "_kernels", "value_iteration", None),
    ("kernels.soft_value_iteration", "_kernels", "soft_value_iteration", None),
    ("transforms.invariance_basis", "transforms", "invariance_basis", None),
    ("transforms.project_invariant", "transforms", "project_invariant", None),
    ("metric.canonicalize", "metric", "canonicalize", None),
    ("metric.starc_distance", "metric", "starc_distance", None),
    ("models.optimal_policy_uniform", "models", "optimal_policy_uniform", None),
    ("models.boltzmann_policy", "models", "boltzmann_policy", None),
    ("models.mce_policy", "models", "mce_policy", None),
    ("oracles.same_order_oracle", "oracles", "same_order_oracle", None),
    ("robustness.check_epsilon_robust", "robustness", "check_epsilon_robust", None),
    ("robustness.min_robust_epsilon", "robustness", "min_robust_epsilon", None),
    ("robustness.two_epsilon_lemma_check", "robustness", "two_epsilon_lemma_check", None),
    ("robustness.discount_counterexample", "robustness", "discount_counterexample", None),
    ("robustness.transition_counterexample", "robustness", "transition_counterexample", None),
    ("robustness.perturbation_counterexample", "robustness", "perturbation_counterexample", None),
    ("robustness.optimality_nonrobustness_witness", "robustness", "optimality_nonrobustness_witness", None),
    ("robustness.gridworld_demo", "robustness", "gridworld_demo", None),
    ("robustness.certificate_verify", "robustness", "verify", "CounterexampleCertificate"),
    ("reports.run_experiment", "reports", "run_experiment", None),
    ("reports.emit_report", "reports", "emit_report", None),
]

MODULES = ["", "mdp", "_kernels", "transforms", "metric", "models", "oracles", "robustness", "reports", "cli"]

# Per-layer metrics in output order.  Counts and times are per traced
# operation, except mdp.construct_ms, which is per TabularMdp construction;
# ratios are over the whole traced part of the run.
PER_LAYER = [
    ("mdp.construct_ms", "ms"),
    ("mdp.optimal_values.calls", "count"),
    ("mdp.policy_evaluation.calls", "count"),
    ("mdp.policy_evaluation.ms", "ms"),
    ("mdp.occupancy_measure.ms", "ms"),
    ("kernels.value_iteration.calls", "count"),
    ("kernels.value_iteration.iterations", "count"),
    ("kernels.value_iteration.ms", "ms"),
    ("kernels.soft_value_iteration.calls", "count"),
    ("kernels.soft_value_iteration.iterations", "count"),
    ("kernels.soft_value_iteration.ms", "ms"),
    ("kernels.computed_mb", "MB"),
    ("transforms.invariance_basis.builds", "count"),
    ("transforms.invariance_basis.build_ms", "ms"),
    ("transforms.invariance_basis.cached_mb", "MB"),
    ("transforms.project_invariant.calls", "count"),
    ("transforms.project_invariant.ms", "ms"),
    ("metric.starc_distance.calls", "count"),
    ("metric.starc_distance.self_ms", "ms"),
    ("metric.canonicalize.useful_ratio", "ratio"),
    ("models.optimal_policy_uniform.calls", "count"),
    ("models.optimal_policy_uniform.ms", "ms"),
    ("models.boltzmann_policy.calls", "count"),
    ("models.boltzmann_policy.ms", "ms"),
    ("models.mce_policy.calls", "count"),
    ("models.mce_policy.ms", "ms"),
    ("models.q_solve_useful_ratio", "ratio"),
    ("oracles.same_order_oracle.calls", "count"),
    ("oracles.same_order_oracle.ms", "ms"),
    ("oracles.policy_return.calls", "count"),
    ("robustness.check_epsilon_robust.self_ms", "ms"),
    ("robustness.min_robust_epsilon.self_ms", "ms"),
    ("robustness.pair_distance_useful_ratio", "ratio"),
    ("robustness.discount_counterexample.ms", "ms"),
    ("robustness.transition_counterexample.ms", "ms"),
    ("robustness.perturbation_counterexample.ms", "ms"),
    ("robustness.optimality_nonrobustness_witness.ms", "ms"),
    ("robustness.gridworld_demo.ms", "ms"),
    ("robustness.certificate_verify.ms", "ms"),
    ("robustness.perturbation.model_solves", "count"),
    ("reports.run_experiment.ms", "ms"),
    ("reports.emit_report.ms", "ms"),
    ("reports.report_kb", "KB"),
    ("trace.overhead_pct", "%"),
    ("cli.cold_call_ms", "ms"),
    ("acceptance.run_all_ms", "ms"),
]


BEFORE = object()


def _digest(array) -> int:
    return hash(np.ascontiguousarray(array).tobytes())


class Tracer:
    """Records spans while installed; safe to install and uninstall repeatedly."""

    def __init__(self):
        self.spans = []  # [name, site, parent index, start, end, cache miss]
        self.notes = defaultdict(float)  # summed numbers taken from arguments and results
        self.keys = defaultdict(set)  # distinct work items, for useful-work ratios
        self.keep_alive = {}  # MDPs used in keys, so their ids are not reused
        self._stack = []
        self._patches = []
        # Modules not imported yet bind nothing to patch.
        loaded = {name: sys.modules.get("starclab." + name if name else "starclab") for name in MODULES}
        self._modules = {name: module for name, module in loaded.items() if module is not None}

    def install(self):
        for name, home, attr, owner in TRACED:
            if owner is not None:
                cls = getattr(self._modules[home], owner)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, home, original))
                continue
            original = getattr(self._modules[home], attr)
            for site, module in self._modules.items():
                if vars(module).get(attr) is original:
                    self._patch(module, attr, original, self._wrap(name, site or "starclab", original))

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr, original, wrapper):
        self._patches.append((target, attr, original))
        setattr(target, attr, wrapper)

    def _wrap(self, name, site, fn):
        note = getattr(self, "_note_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, site, stack[-1] if stack else -1, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            before = note(span, fn, args, BEFORE) if note else None
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if note:
                note(span, fn, args, result, before)
            return result

        return wrapper

    # Notes run before a call (with result BEFORE; what they return is passed
    # back as ``before``) and after it; they read arguments, results and caches.

    def _note_kernels_value_iteration(self, span, fn, args, result, before=None):
        if result is not BEFORE:
            n_s, n_a = args[0].shape  # the (S, A) expected reward
            iterations = result[2]
            self.notes[span[0] + ".iterations"] += iterations
            # Each sweep reads the (S, A, S) float64 transition tensor once.
            self.notes["kernels.computed_bytes"] += iterations * n_s * n_a * n_s * 8

    _note_kernels_soft_value_iteration = _note_kernels_value_iteration

    def _note_transforms_invariance_basis(self, span, fn, args, result, before=None):
        misses = fn.cache_info().misses
        if result is not BEFORE:
            span[5] = misses > before
        return misses

    def _note_metric_canonicalize(self, span, fn, args, result, before=None):
        if result is BEFORE:
            self._remember(span[0], args[0], _digest(args[1]))

    _note_mdp_optimal_values = _note_metric_canonicalize

    def _note_metric_starc_distance(self, span, fn, args, result, before=None):
        if result is BEFORE and span[1] == "robustness":
            self._remember("robustness.starc_distance", args[0], *sorted((_digest(args[1]), _digest(args[2]))))

    def _note_reports_emit_report(self, span, fn, args, result, before=None):
        if result is not BEFORE and args[1] == "json":
            self.notes["reports.report_bytes"] += os.path.getsize(args[2])

    def _remember(self, name, mdp, *key):
        self.keys[name].add((id(mdp),) + key)
        self.notes[name + ".calls"] += 1
        self.keep_alive[id(mdp)] = mdp


def cached_basis_mb() -> float:
    """Array bytes held by the invariance-basis cache, in MB."""
    basis_type = sys.modules["starclab.transforms"].InvarianceBasis
    total = 0
    for obj in gc.get_objects():
        if type(obj) is basis_type:
            total += sum(arr.nbytes for arr in (obj.shaping_dirs, obj.redistribution_dirs, obj.combined_orthonormal))
    return total / 1e6


def _child_time(spans) -> list[float]:
    """For each span, the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def layer_metrics(tracer: Tracer, n_ops: int, extra: dict) -> dict:
    """Per-layer metrics from the recorded spans, per traced operation."""
    spans = tracer.spans
    total = defaultdict(float)
    calls = defaultdict(int)
    child = _child_time(spans)
    self_time = defaultdict(float)
    model_solves_in_perturbation = 0
    perturbation = "robustness.perturbation_counterexample"
    for i, (name, site, parent, start, end, built) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_time[name] += end - start - child[i]
        if name == "mdp.policy_return" and site == "oracles":
            calls["oracles.policy_return"] += 1
        if built:
            total["transforms.invariance_basis.build"] += end - start
            calls["transforms.invariance_basis.build"] += 1
        if name in ("models.boltzmann_policy", "models.mce_policy", "models.optimal_policy_uniform"):
            while parent >= 0 and spans[parent][0] != perturbation:
                parent = spans[parent][2]
            model_solves_in_perturbation += parent >= 0

    ops = max(n_ops, 1)

    def per_op_ms(name):
        return 1e3 * total[name] / ops

    def ratio(key):
        made = tracer.notes[key + ".calls"]
        return len(tracer.keys[key]) / made if made else 0.0

    values = {
        "mdp.construct_ms": 1e3 * total["mdp.construct"] / max(calls["mdp.construct"], 1),
        "mdp.optimal_values.calls": calls["mdp.optimal_values"] / ops,
        "mdp.policy_evaluation.calls": calls["mdp.policy_evaluation"] / ops,
        "mdp.policy_evaluation.ms": per_op_ms("mdp.policy_evaluation"),
        "mdp.occupancy_measure.ms": per_op_ms("mdp.occupancy_measure"),
        "kernels.computed_mb": tracer.notes["kernels.computed_bytes"] / 1e6 / ops,
        "transforms.invariance_basis.builds": calls["transforms.invariance_basis.build"] / ops,
        "transforms.invariance_basis.build_ms": per_op_ms("transforms.invariance_basis.build"),
        "transforms.project_invariant.calls": calls["transforms.project_invariant"] / ops,
        "transforms.project_invariant.ms": per_op_ms("transforms.project_invariant"),
        "metric.starc_distance.calls": calls["metric.starc_distance"] / ops,
        "metric.starc_distance.self_ms": 1e3 * self_time["metric.starc_distance"] / ops,
        "metric.canonicalize.useful_ratio": ratio("metric.canonicalize"),
        "models.q_solve_useful_ratio": ratio("mdp.optimal_values"),
        "oracles.same_order_oracle.calls": calls["oracles.same_order_oracle"] / ops,
        "oracles.same_order_oracle.ms": per_op_ms("oracles.same_order_oracle"),
        "oracles.policy_return.calls": calls["oracles.policy_return"] / ops,
        "robustness.check_epsilon_robust.self_ms": 1e3 * self_time["robustness.check_epsilon_robust"] / ops,
        "robustness.min_robust_epsilon.self_ms": 1e3 * self_time["robustness.min_robust_epsilon"] / ops,
        "robustness.pair_distance_useful_ratio": ratio("robustness.starc_distance"),
        "robustness.perturbation.model_solves": model_solves_in_perturbation / ops,
        "reports.report_kb": tracer.notes["reports.report_bytes"] / 1024 / ops,
    }
    for kernel in ("kernels.value_iteration", "kernels.soft_value_iteration"):
        values[kernel + ".calls"] = calls[kernel] / ops
        values[kernel + ".iterations"] = tracer.notes[kernel + ".iterations"] / ops
        values[kernel + ".ms"] = per_op_ms(kernel)
    for model in ("optimal_policy_uniform", "boltzmann_policy", "mce_policy"):
        values[f"models.{model}.calls"] = calls["models." + model] / ops
        values[f"models.{model}.ms"] = per_op_ms("models." + model)
    for name in ("discount_counterexample", "transition_counterexample", "perturbation_counterexample",
                 "optimality_nonrobustness_witness", "gridworld_demo", "certificate_verify"):
        values[f"robustness.{name}.ms"] = per_op_ms("robustness." + name)
    for name in ("run_experiment", "emit_report"):
        values[f"reports.{name}.ms"] = per_op_ms("reports." + name)
    values.update(extra)
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}


def call_tree(tracer: Tracer) -> list[dict]:
    """Spans folded by (parent name, name): calls, total and self milliseconds."""
    spans = tracer.spans
    child = _child_time(spans)
    folded = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, _, parent, start, end, _) in enumerate(spans):
        entry = folded[(spans[parent][0] if parent >= 0 else "", name)]
        entry[0] += 1
        entry[1] += 1e3 * (end - start)
        entry[2] += 1e3 * (end - start - child[i])
    return [
        {"parent": parent, "name": name, "calls": c, "ms": round(ms, 3), "self_ms": round(self_ms, 3)}
        for (parent, name), (c, ms, self_ms) in sorted(folded.items(), key=lambda kv: -kv[1][1])
    ]
