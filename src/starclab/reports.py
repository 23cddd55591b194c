"""Experiment configuration, dispatch, and report emission.

A report embeds its full configuration so that re-running it reproduces the
results bit-identically (timing fields excepted).
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .mdp import InvalidInstance, TabularMdp, is_finite_real, load_mdp, load_reward, random_mdp, random_reward
from .metric import starc_distance
from .models import BehavioralModelSpec, check_model_document, check_weight, model_kind
from .oracles import same_order_oracle
from .robustness import (
    CounterexampleCertificate,
    discount_counterexample,
    gridworld_demo,
    optimality_nonrobustness_witness,
    perturbation_counterexample,
    transition_counterexample,
)

SCHEMA_TAG = "starclab-report-v1"


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InvalidInstance(
                f"kind: unknown experiment kind {self.kind!r}; expected one of {sorted(EXPERIMENT_KINDS)}"
            )
        kind = EXPERIMENT_KINDS[self.kind]
        _check_keys("params", self.params, kind.accepted(), repr(self.kind))
        specs = [(name, _MDP_SPEC, "random_mdp") for name in kind.mdps]
        specs += [(name, _REWARD_SPEC, "random_reward") for name in kind.rewards]
        for name, keys, generator in specs:
            if name in self.params:
                _check_keys(f"params.{name}", self.params[name], keys, f"a {generator} spec")
                for key, value in self.params[name].items():
                    what, valid = _SPEC_VALUES[key]
                    if not valid(value):
                        raise InvalidInstance(f"params.{name}.{key}: must be {what}, got {value!r}")
        for key, check in _MODEL_OPTIONS.items():
            if key in self.params:
                check(self.params[key], f"params.{key}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if "kind" not in data:
            raise InvalidInstance("kind: missing required field")
        return cls(kind=data["kind"], params=data.get("params", {}))


# The keys of a generator spec: random_mdp's parameters, and those of
# random_reward's that the MDP does not fix.
_MDP_SPEC = set(inspect.signature(random_mdp).parameters)
_REWARD_SPEC = set(inspect.signature(random_reward).parameters) - {"n_states", "n_actions"}


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# What each generator-spec value must be.  A seed must be given as an
# integer: ``None`` would draw an unseeded, unreproducible instance.
_SPEC_VALUES = {
    "seed": ("an integer", _is_int),
    "n_states": ("a positive integer", lambda value: _is_int(value) and value > 0),
    "n_actions": ("a positive integer", lambda value: _is_int(value) and value > 0),
    "concentration": ("a finite number", is_finite_real),
    "discount": ("a finite number", is_finite_real),
    "scale": ("a finite number", is_finite_real),
}


# How each model option is checked: by the rules of ``models``, before any solve.
_MODEL_OPTIONS = {
    "model": check_model_document,
    "model_kind": model_kind,
    "beta": check_weight,
    "alpha": check_weight,
}


def _check_keys(path: str, mapping, accepted: set, owner: str) -> None:
    """Refuse a ``mapping`` that is not an object, or has a key not in ``accepted``, by its path."""
    if not isinstance(mapping, dict):
        raise InvalidInstance(f"{path}: must be an object mapping parameter names to values")
    for key in mapping:
        if key not in accepted:
            raise InvalidInstance(
                f"{path}.{key}: not a parameter of {owner}; expected one of {sorted(accepted)}"
            )


def _resolve_mdp(params: dict, prefix: str = "mdp") -> TabularMdp:
    if f"{prefix}_file" in params:
        return load_mdp(params[f"{prefix}_file"])
    return random_mdp(**{"seed": 0, "n_states": 4, "n_actions": 3, **params.get(prefix, {})})


def _resolve_reward(params: dict, key: str, mdp: TabularMdp) -> np.ndarray:
    if f"{key}_file" in params:
        return load_reward(params[f"{key}_file"], mdp)
    return random_reward(n_states=mdp.n_states, n_actions=mdp.n_actions, **{"seed": 0, **params.get(key, {})})


def _models_eval(mdp: TabularMdp, reward: np.ndarray, model: dict | None = None) -> dict:
    spec = BehavioralModelSpec.from_dict({"kind": "boltzmann", "beta": 1.0} if model is None else model, mdp)
    return {"model": spec.to_dict(), "policy": spec(reward).tolist()}


def _optimality_witness(mdp: TabularMdp, **options) -> dict:
    r_1, r_2 = optimality_nonrobustness_witness(mdp, **options)
    distance = starc_distance(mdp, r_1, r_2).distance
    return {"reward_1": r_1.tolist(), "reward_2": r_2.tolist(), "distance": distance}


class _Kind(NamedTuple):
    """How one experiment kind runs, and the params it accepts.

    ``run`` takes the MDPs, then the rewards (on the first MDP), then the
    options present in the params; an absent option keeps the library's
    default.  Each MDP or reward comes from a generator spec under its name
    or from a file under its name plus ``_file``.  ``run`` returns the
    results, or a certificate.
    """

    run: Callable
    mdps: tuple[str, ...] = ("mdp",)
    rewards: tuple[str, ...] = ()
    options: tuple[str, ...] = ()

    def accepted(self) -> set[str]:
        inputs = self.mdps + self.rewards
        return {*inputs, *(f"{name}_file" for name in inputs), *self.options}


_MODEL = ("model_kind", "beta", "alpha")

# The lambdas look the library functions up when called, so a function
# replaced on this module (a test double, a wrapper) is the one that runs.
EXPERIMENT_KINDS = {
    "starc-distance": _Kind(lambda *a: starc_distance(*a).to_dict(), rewards=("reward_1", "reward_2")),
    "models-eval": _Kind(_models_eval, rewards=("reward",), options=("model",)),
    "same-order": _Kind(
        lambda *a, **o: {"same_order": bool(same_order_oracle(*a, **o))},
        rewards=("reward_1", "reward_2"),
        options=("seed",),
    ),
    "counterexample-gamma": _Kind(
        lambda *a, **o: discount_counterexample(*a, **o), options=("gamma_1", "gamma_2", *_MODEL, "seed")
    ),
    "counterexample-tau": _Kind(
        lambda *a, **o: transition_counterexample(*a, **o), mdps=("mdp_1", "mdp_2"), options=_MODEL
    ),
    "counterexample-perturb": _Kind(
        lambda *a, **o: perturbation_counterexample(*a, **o), options=(*_MODEL, "c", "delta", "seed")
    ),
    "counterexample-optimality": _Kind(_optimality_witness, options=("seed",)),
    "gridworld-demo": _Kind(lambda **o: gridworld_demo(**o), mdps=(), options=("n", "gamma", "alpha")),
}


def run_experiment(config: ExperimentConfig) -> dict:
    start = time.perf_counter()
    kind, params = EXPERIMENT_KINDS[config.kind], config.params
    mdps = [_resolve_mdp(params, name) for name in kind.mdps]
    rewards = [_resolve_reward(params, name, mdps[0]) for name in kind.rewards]
    results = kind.run(*mdps, *rewards, **{key: params[key] for key in kind.options if key in params})
    if isinstance(results, CounterexampleCertificate):
        results = {"certificate": results.to_dict(), "verified": results.verify()}
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


def report_text(report: dict, fmt: str) -> str:
    """The report as strict JSON, or as a CSV header row and value row.

    NaN and infinities raise InvalidInstance under JSON, and so does a
    list-valued field under CSV; both name the field.
    """
    if fmt == "json":
        try:
            return json.dumps(report, indent=2, allow_nan=False)
        except ValueError as exc:
            where = _non_finite_field("", report)
            if where is None:
                raise
            raise InvalidInstance(f"report field {where} is not finite; JSON cannot represent it") from exc
    if fmt == "csv":
        flat: dict = {}
        _flatten_scalars("", report, flat)
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
        return out.getvalue()
    raise InvalidInstance(f"unknown report format {fmt!r}")


def emit_report(report: dict, fmt: str, path) -> None:
    text = report_text(report, fmt)  # before opening, so a report the format cannot hold leaves no file
    with open(path, "w", newline="") as fh:
        fh.write(text)
