"""Behavioural models: total maps from reward functions to policies.

``MODEL_KINDS`` is the one table of kinds: uniform-over-optimal-actions, Boltzmann-rational
(per-state softmax of the optimal Q-values at inverse temperature ``beta``), and
maximal-causal-entropy (the entropy-regularised Bellman fixed point with weight ``alpha``,
solved by soft policy iteration).  Each kind has one implementation, from an (N, S, A, S)
reward stack to (N, S, A) policies with one stacked solve, and reads at most one weight,
a finite positive real number.  ``BehavioralModelSpec`` reads the table to check, solve
and serialize a model, and the single-reward functions are its N=1 case.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _kernels
from .mdp import (
    DEFAULT_DP_TOL,
    DEFAULT_MAX_ITERS,
    POSITIVE,
    ConvergenceError,
    InvalidInstance,
    TabularMdp,
    check_number,
    check_reward,
    expected_reward,
    labelled_stack,
    optimal_values_stack,
    reward_stack,
)
from .metric import pairwise_norms


def _max_abs(stack: np.ndarray) -> np.ndarray:
    return np.abs(stack).reshape(len(stack), -1).max(axis=1)


def _uniform_policies(mdp: TabularMdp, rewards: np.ndarray) -> np.ndarray:
    """Uniform-over-optimal policies (N, S, A) of a checked (N, S, A, S) reward stack.

    Each reward's tie tolerance is ``1e-8 * max|Q*|``, floored at the roundoff of
    ``max|R| / (1 - gamma)`` (a reward the transitions never see has a Q* of pure
    roundoff, and every action ties): both are relative, so multiples tie alike.
    """
    _, q = optimal_values_stack(mdp, rewards)
    kappa = _kernels.tolerance(1e-8 * _max_abs(q), _max_abs(rewards) / (1 - mdp.discount))
    support = q >= q.max(axis=2, keepdims=True) - np.reshape(kappa, (-1, 1, 1))
    return support / support.sum(axis=2, keepdims=True)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Per-state softmax over the actions of (N, S, A) logits, max-subtracted so no exp overflows."""
    logits = logits - logits.max(axis=2, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=2, keepdims=True)


def _boltzmann_policies(mdp: TabularMdp, rewards: np.ndarray, beta: float) -> np.ndarray:
    """Boltzmann policies (N, S, A) of a checked (N, S, A, S) reward stack."""
    _, q = optimal_values_stack(mdp, rewards)
    return _softmax(beta * q)


def _mce_policies(mdp: TabularMdp, rewards: np.ndarray, alpha: float) -> np.ndarray:
    """Maximal-causal-entropy policies (N, S, A) of a checked (N, S, A, S) reward stack."""
    er = expected_reward(mdp, rewards)
    q = _kernels.soft_policy_iteration(er, mdp.transition, mdp.discount, alpha, DEFAULT_DP_TOL, DEFAULT_MAX_ITERS)[1]
    return _softmax(q / alpha)


class _ModelKind(NamedTuple):
    """A kind's stacked ``policies(mdp, rewards[, weight])`` and the name of the weight it reads."""

    policies: Callable
    weight: str | None = None


MODEL_KINDS = {
    "optimal_uniform": _ModelKind(_uniform_policies),
    "boltzmann": _ModelKind(_boltzmann_policies, "beta"),
    "mce": _ModelKind(_mce_policies, "alpha"),
}


def model_kind(kind, path: str = "model.kind") -> _ModelKind:
    if not (isinstance(kind, str) and kind in MODEL_KINDS):
        raise InvalidInstance(f"{path}: unknown model kind {kind!r}; expected one of {sorted(MODEL_KINDS)}")
    return MODEL_KINDS[kind]


def check_model_document(data, path: str = "model") -> None:
    """Refuse a model document that is not an object holding a known kind and only the weight it reads."""
    if not isinstance(data, dict):
        raise InvalidInstance(f"{path}: must be an object with a model 'kind' and the weight it reads")
    weight = model_kind(data.get("kind"), f"{path}.kind").weight
    extra = [key for key in data if key not in ("kind", weight)]
    if extra:
        raise InvalidInstance(f"{path}.{extra[0]}: not read by the {data['kind']!r} model")
    if weight:
        check_number(data.get(weight), POSITIVE, f"{path}.{weight}")


@dataclass(frozen=True)
class BehavioralModelSpec:
    """A model of a ``MODEL_KINDS`` kind bound to an environment; only the kind's weight is read."""

    kind: str
    environment: TabularMdp
    beta: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        check_model_document(self.to_dict())

    @property
    def _weights(self) -> dict:
        weight = model_kind(self.kind).weight
        return {weight: getattr(self, weight)} if weight else {}

    def policies(self, rewards: np.ndarray) -> np.ndarray:
        """The model's policies, (N, S, A), of a checked (N, S, A, S) reward stack.

        One stacked solve; policy i depends on reward i alone, bit for bit.
        """
        return MODEL_KINDS[self.kind].policies(self.environment, rewards, **self._weights)

    def __call__(self, reward: np.ndarray) -> np.ndarray:
        return self.policies(check_reward(self.environment, reward)[None])[0]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self._weights}

    @classmethod
    def from_dict(cls, data: dict, environment: TabularMdp) -> "BehavioralModelSpec":
        check_model_document(data)
        return cls(environment=environment, **data)


def optimal_policy_uniform(mdp: TabularMdp, reward: np.ndarray) -> np.ndarray:
    """Uniform distribution over the near-argmax actions of the optimal Q-values, ties relative to scale."""
    return BehavioralModelSpec("optimal_uniform", mdp)(reward)


def boltzmann_policy(mdp: TabularMdp, reward: np.ndarray, beta: float) -> np.ndarray:
    """Per-state softmax of ``beta * Q*``, computed with max-subtraction."""
    return BehavioralModelSpec("boltzmann", mdp, beta=beta)(reward)


def mce_policy(mdp: TabularMdp, reward: np.ndarray, alpha: float) -> np.ndarray:
    """Maximal-causal-entropy policy: softmax(Q / alpha) at the soft fixed point."""
    return BehavioralModelSpec("mce", mdp, alpha=alpha)(reward)


@dataclass(frozen=True, eq=False)
class ModelTable:
    """A behavioural model materialized over a finite list of rewards: finite (S, A) policies of one shape.

    Its ``ids`` are unique, ``policies`` is a locked (n, S, A) copy of the
    entries, which are its rows, and the tables derived from it are snapshots.
    """

    entries: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        ids, policies = labelled_stack(self.entries, 2, "policy {!r}", "policy")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "policies", policies)
        object.__setattr__(self, "entries", tuple(zip(ids, policies)))

    def policy(self, reward_id: str) -> np.ndarray:
        return dict(zip(self.ids, self.policies))[reward_id]

    @property
    def flat(self) -> np.ndarray:
        return self.policies.reshape(len(self.policies), -1)

    @cached_property
    def self_gaps(self) -> np.ndarray:
        """The (n, n) sup-norm distances between the table's own policies, read-only."""
        gaps = pairwise_norms(self.flat, self.flat, ord=np.inf)
        gaps.setflags(write=False)
        return gaps


def materialize_model(
    spec: BehavioralModelSpec, hypotheses: list[tuple[str, np.ndarray]]
) -> ModelTable:
    """Apply the model to every (id, reward) hypothesis with one stacked solve.

    The first hypothesis in order that fails, by an invalid reward or a
    solve that misses its tolerance, raises its own exception type, naming
    its id.
    """
    if not hypotheses:
        raise InvalidInstance("hypothesis list must be nonempty")
    ids = [rid for rid, _ in hypotheses]
    rewards = [reward for _, reward in hypotheses]
    try:
        stack, invalid = reward_stack(spec.environment, rewards), None
    except Exception as exc:
        # The rewards before the first invalid one are solved first: they come first in order.
        invalid, valid = exc, []
        for reward in rewards:
            try:
                valid.append(check_reward(spec.environment, reward))
            except Exception:
                break
        stack = np.stack(valid) if valid else None
    try:
        policies = spec.policies(stack) if stack is not None else None
    except ConvergenceError as exc:
        raise ConvergenceError(f"model failed on reward {ids[exc.item]!r}: {exc}", exc.residual, exc.item) from exc
    if invalid is not None:
        raise type(invalid)(f"model failed on reward {ids[len(valid)]!r}: {invalid}") from invalid
    return ModelTable(tuple(zip(ids, policies)))
