"""Behavioural models: total maps from reward functions to policies.

Three models are provided — uniform-over-optimal-actions, Boltzmann-rational
(per-state softmax of the optimal Q-values at inverse temperature beta), and
maximal-causal-entropy (the entropy-regularised Bellman fixed point with
weight alpha, solved by soft policy iteration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .mdp import (
    DEFAULT_DP_TOL,
    DEFAULT_MAX_ITERS,
    ConvergenceError,
    InvalidInstance,
    TabularMdp,
    check_reward,
    expected_reward,
    optimal_values,
)


def optimal_policy_uniform(mdp: TabularMdp, reward: np.ndarray, kappa: float | None = None) -> np.ndarray:
    """Uniform distribution over the near-argmax actions of the optimal Q-values.

    The tie tolerance ``kappa`` defaults to ``1e-8 * (1 + max|Q*|)`` so that
    floating-point near-ties are treated as exact ties.
    """
    _, q = optimal_values(mdp, reward)
    if kappa is None:
        kappa = 1e-8 * (1.0 + np.abs(q).max())
    if kappa < 0:
        raise InvalidInstance("kappa must be nonnegative")
    best = q.max(axis=1, keepdims=True)
    support = q >= best - kappa
    return support / support.sum(axis=1, keepdims=True)


def boltzmann_policy(mdp: TabularMdp, reward: np.ndarray, beta: float) -> np.ndarray:
    """Per-state softmax of ``beta * Q*``, computed with max-subtraction."""
    if beta <= 0:
        raise InvalidInstance("beta must be positive")
    _, q = optimal_values(mdp, reward)
    logits = beta * q
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=1, keepdims=True)


def mce_policy(
    mdp: TabularMdp,
    reward: np.ndarray,
    alpha: float,
    tol: float = DEFAULT_DP_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> np.ndarray:
    """Maximal-causal-entropy policy: exp((Q - V)/alpha) at the soft fixed point."""
    if alpha <= 0:
        raise InvalidInstance("alpha must be positive")
    reward = check_reward(mdp, reward)
    er = expected_reward(mdp, reward)
    v, q, rounds, resid = _kernels.soft_value_iteration(
        er, mdp.transition, mdp.discount, alpha, tol, max_iters
    )
    tol = _kernels.tolerance(tol, q)
    if resid > tol:
        raise ConvergenceError(
            f"soft policy iteration did not converge in {rounds} rounds "
            f"(soft Bellman residual {resid:g} > {tol:g})",
            residual=resid,
        )
    policy = np.exp((q - v[:, None]) / alpha)
    return policy / policy.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class BehavioralModelSpec:
    """A named behavioural model bound to an environment.

    ``kind`` is one of ``optimal_uniform``, ``boltzmann`` (with ``beta``), or
    ``mce`` (with ``alpha``).
    """

    kind: str
    environment: TabularMdp
    beta: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind == "optimal_uniform":
            pass
        elif self.kind == "boltzmann":
            if self.beta is None or self.beta <= 0:
                raise InvalidInstance("boltzmann model requires beta > 0")
        elif self.kind == "mce":
            if self.alpha is None or self.alpha <= 0:
                raise InvalidInstance("mce model requires alpha > 0")
        else:
            raise InvalidInstance(f"unknown model kind {self.kind!r}")

    def __call__(self, reward: np.ndarray) -> np.ndarray:
        if self.kind == "optimal_uniform":
            return optimal_policy_uniform(self.environment, reward)
        if self.kind == "boltzmann":
            return boltzmann_policy(self.environment, reward, self.beta)
        return mce_policy(self.environment, reward, self.alpha)

    def to_dict(self) -> dict:
        if self.kind == "boltzmann":
            return {"kind": "boltzmann", "beta": self.beta}
        if self.kind == "mce":
            return {"kind": "mce", "alpha": self.alpha}
        return {"kind": "optimal_uniform"}

    @classmethod
    def from_dict(cls, data: dict, environment: TabularMdp) -> "BehavioralModelSpec":
        kind = data.get("kind")
        return cls(
            kind=kind,
            environment=environment,
            beta=data.get("beta"),
            alpha=data.get("alpha"),
        )


@dataclass(frozen=True)
class ModelTable:
    """A behavioural model materialized over a finite list of rewards."""

    entries: tuple[tuple[str, np.ndarray], ...]

    def policy(self, reward_id: str) -> np.ndarray:
        for rid, pol in self.entries:
            if rid == reward_id:
                return pol
        raise KeyError(reward_id)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(rid for rid, _ in self.entries)


def materialize_model(
    spec: BehavioralModelSpec, hypotheses: list[tuple[str, np.ndarray]]
) -> ModelTable:
    """Apply the model to each (id, reward) hypothesis in order."""
    if not hypotheses:
        raise InvalidInstance("hypothesis list must be nonempty")
    entries = []
    for rid, reward in hypotheses:
        try:
            entries.append((rid, spec(reward)))
        except Exception as exc:
            raise type(exc)(f"model failed on reward {rid!r}: {exc}") from exc
    return ModelTable(tuple(entries))
