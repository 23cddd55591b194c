"""Experiment configuration, dispatch, and report emission.

A report embeds its full configuration so that re-running it reproduces the
results bit-identically (timing fields excepted).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .mdp import InvalidInstance, TabularMdp, load_mdp, load_reward, random_mdp, random_reward
from .metric import starc_distance
from .models import BehavioralModelSpec
from .oracles import same_order_oracle
from .robustness import (
    discount_counterexample,
    gridworld_demo,
    optimality_nonrobustness_witness,
    perturbation_counterexample,
    transition_counterexample,
)

SCHEMA_TAG = "starclab-report-v1"

EXPERIMENT_KINDS = {
    "starc-distance",
    "models-eval",
    "same-order",
    "counterexample-gamma",
    "counterexample-tau",
    "counterexample-perturb",
    "counterexample-optimality",
    "gridworld-demo",
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InvalidInstance(
                f"kind: unknown experiment kind {self.kind!r}; expected one of {sorted(EXPERIMENT_KINDS)}"
            )
        for key in ("eta", "tol_dp"):
            if key in self.params and self.params[key] <= 0:
                raise InvalidInstance(f"params.{key}: tolerance must be positive")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if "kind" not in data:
            raise InvalidInstance("kind: missing required field")
        return cls(kind=data["kind"], params=data.get("params", {}))


def _resolve_mdp(params: dict, prefix: str = "mdp") -> TabularMdp:
    if f"{prefix}_file" in params:
        return load_mdp(params[f"{prefix}_file"])
    gen = params.get(prefix, {})
    return random_mdp(
        seed=gen.get("seed", 0),
        n_states=gen.get("n_states", 4),
        n_actions=gen.get("n_actions", 3),
        concentration=gen.get("concentration", 1.0),
        discount=gen.get("discount", 0.9),
    )


def _resolve_reward(params: dict, key: str, mdp: TabularMdp) -> np.ndarray:
    if f"{key}_file" in params:
        return load_reward(params[f"{key}_file"], mdp)
    gen = params.get(key, {})
    return random_reward(
        seed=gen.get("seed", 0),
        n_states=mdp.n_states,
        n_actions=mdp.n_actions,
        scale=gen.get("scale", 1.0),
    )


def run_experiment(config: ExperimentConfig) -> dict:
    start = time.perf_counter()
    params = config.params
    if config.kind == "starc-distance":
        mdp = _resolve_mdp(params)
        r_1 = _resolve_reward(params, "reward_1", mdp)
        r_2 = _resolve_reward(params, "reward_2", mdp)
        results = starc_distance(mdp, r_1, r_2).to_dict()
    elif config.kind == "models-eval":
        mdp = _resolve_mdp(params)
        reward = _resolve_reward(params, "reward", mdp)
        spec = BehavioralModelSpec.from_dict(params.get("model", {"kind": "boltzmann", "beta": 1.0}), mdp)
        results = {"model": spec.to_dict(), "policy": spec(reward).tolist()}
    elif config.kind == "same-order":
        mdp = _resolve_mdp(params)
        r_1 = _resolve_reward(params, "reward_1", mdp)
        r_2 = _resolve_reward(params, "reward_2", mdp)
        same = same_order_oracle(mdp, r_1, r_2, seed=params.get("seed", 0))
        results = {"same_order": bool(same)}
    elif config.kind == "counterexample-gamma":
        mdp = _resolve_mdp(params)
        cert = discount_counterexample(
            mdp,
            gamma_1=params.get("gamma_1", 0.9),
            gamma_2=params.get("gamma_2", 0.95),
            model_kind=params.get("model_kind", "boltzmann"),
            beta=params.get("beta"),
            alpha=params.get("alpha"),
            seed=params.get("seed", 0),
        )
        results = {"certificate": cert.to_dict(), "verified": cert.verify()}
    elif config.kind == "counterexample-tau":
        mdp_1 = _resolve_mdp(params, "mdp_1")
        mdp_2 = _resolve_mdp(params, "mdp_2")
        cert = transition_counterexample(
            mdp_1,
            mdp_2,
            model_kind=params.get("model_kind", "boltzmann"),
            beta=params.get("beta"),
            alpha=params.get("alpha"),
        )
        results = {"certificate": cert.to_dict(), "verified": cert.verify()}
    elif config.kind == "counterexample-perturb":
        mdp = _resolve_mdp(params)
        cert = perturbation_counterexample(
            mdp,
            model_kind=params.get("model_kind", "boltzmann"),
            beta=params.get("beta"),
            alpha=params.get("alpha"),
            c=params.get("c", 1.0),
            delta=params.get("delta", 1e-2),
            seed=params.get("seed", 0),
        )
        results = {"certificate": cert.to_dict(), "verified": cert.verify()}
    elif config.kind == "counterexample-optimality":
        mdp = _resolve_mdp(params)
        r_1, r_2 = optimality_nonrobustness_witness(mdp, seed=params.get("seed", 0))
        results = {
            "reward_1": r_1.tolist(),
            "reward_2": r_2.tolist(),
            "distance": starc_distance(mdp, r_1, r_2).distance,
        }
    else:  # gridworld-demo
        cert = gridworld_demo(
            n=params.get("n", 3),
            gamma=params.get("gamma", 0.9),
            alpha=params.get("alpha", 1.0),
        )
        results = {"certificate": cert.to_dict(), "verified": cert.verify()}
    return {
        "schema": SCHEMA_TAG,
        "config": config.to_dict(),
        "results": results,
        "wall_clock_s": time.perf_counter() - start,
    }


def strip_timings(report: dict) -> dict:
    """Copy of a report without wall-clock fields, for determinism comparison."""
    return {k: v for k, v in report.items() if k != "wall_clock_s"}


def _flatten_scalars(prefix: str, obj, out: dict) -> None:
    """Flatten nested dicts into ``out`` under dotted names; a list raises InvalidInstance."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten_scalars(f"{prefix}.{k}" if prefix else k, v, out)
    elif isinstance(obj, (list, tuple)):
        raise InvalidInstance(
            f"report field {prefix} is a list, which one CSV row cannot hold; use JSON"
        )
    else:
        out[prefix] = obj


def _non_finite_field(prefix: str, obj) -> str | None:
    """Dotted path of the first NaN or infinite float in a report, if any."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        found = _non_finite_field(f"{prefix}.{key}" if prefix else str(key), value)
        if found is not None:
            return found
    return None


def report_json(report: dict) -> str:
    """The report as strict JSON text; NaN and infinities raise InvalidInstance."""
    try:
        return json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:
        where = _non_finite_field("", report)
        if where is None:
            raise
        raise InvalidInstance(f"report field {where} is not finite; JSON cannot represent it") from exc


def emit_report(report: dict, fmt: str, path) -> None:
    if fmt == "json":
        text = report_json(report)  # before opening, so a bad report leaves no file
        with open(path, "w") as fh:
            fh.write(text)
    elif fmt == "csv":
        flat: dict = {}
        _flatten_scalars("", report, flat)  # before opening, so a list field leaves no file
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(flat.keys())
            writer.writerow(flat.values())
    else:
        raise InvalidInstance(f"unknown report format {fmt!r}")
