"""Behavioural models: total maps from reward functions to policies.

Three models are provided — uniform-over-optimal-actions, Boltzmann-rational
(per-state softmax of the optimal Q-values at inverse temperature beta), and
maximal-causal-entropy (the entropy-regularised Bellman fixed point with
weight alpha, solved by soft policy iteration).

Each model has one implementation, from an (N, S, A, S) reward stack to
(N, S, A) policies, with one stacked solve for the whole stack;
``BehavioralModelSpec.policies`` and ``materialize_model`` use it directly,
and the single-reward functions are its N=1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    optimal_values_stack,
)


def _max_abs(stack: np.ndarray) -> np.ndarray:
    return np.abs(stack).reshape(len(stack), -1).max(axis=1)


def _uniform_policies(mdp: TabularMdp, rewards: np.ndarray, kappa: float | None = None) -> np.ndarray:
    """Uniform-over-optimal policies (N, S, A) of a checked (N, S, A, S) reward stack."""
    if kappa is not None and kappa < 0:
        raise InvalidInstance("kappa must be nonnegative")
    _, q = optimal_values_stack(mdp, rewards)
    if kappa is None:
        kappa = _kernels.tolerance(1e-8 * _max_abs(q), _max_abs(rewards) / (1 - mdp.discount))
    best = q.max(axis=2, keepdims=True)
    support = q >= best - np.reshape(kappa, (-1, 1, 1))
    return support / support.sum(axis=2, keepdims=True)


def _boltzmann_policies(mdp: TabularMdp, rewards: np.ndarray, beta: float) -> np.ndarray:
    """Boltzmann policies (N, S, A) of a checked (N, S, A, S) reward stack."""
    _, q = optimal_values_stack(mdp, rewards)
    logits = beta * q
    logits -= logits.max(axis=2, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=2, keepdims=True)


def _mce_policies(
    mdp: TabularMdp,
    rewards: np.ndarray,
    alpha: float,
    tol: float = DEFAULT_DP_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> np.ndarray:
    """Maximal-causal-entropy policies (N, S, A) of a checked (N, S, A, S) reward stack."""
    v, q, rounds, resid = _kernels.soft_policy_iteration(
        expected_reward(mdp, rewards), mdp.transition, mdp.discount, alpha, tol, max_iters
    )
    _kernels.check_residual(resid, tol, q, lambda i: f"soft policy iteration did not converge in {rounds[i]} rounds")
    policy = np.exp((q - v[..., None]) / alpha)
    return policy / policy.sum(axis=2, keepdims=True)


def optimal_policy_uniform(mdp: TabularMdp, reward: np.ndarray, kappa: float | None = None) -> np.ndarray:
    """Uniform distribution over the near-argmax actions of the optimal Q-values.

    The tie tolerance ``kappa`` defaults to ``1e-8 * max|Q*|``, so that
    floating-point near-ties are treated as exact ties, floored at the
    roundoff of ``max|R| / (1 - gamma)``, the largest |Q*| the reward allows:
    a reward the transitions never see has a Q* of pure roundoff, and every
    action ties.  Both terms are relative, so a reward and its positive
    multiples get the same policy.  In a stack each reward gets its own.
    """
    return _uniform_policies(mdp, check_reward(mdp, reward)[None], kappa)[0]


def boltzmann_policy(mdp: TabularMdp, reward: np.ndarray, beta: float) -> np.ndarray:
    """Per-state softmax of ``beta * Q*``, computed with max-subtraction."""
    if beta <= 0:
        raise InvalidInstance("beta must be positive")
    return _boltzmann_policies(mdp, check_reward(mdp, reward)[None], beta)[0]


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
    return _mce_policies(mdp, check_reward(mdp, reward)[None], alpha, tol, max_iters)[0]


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

    def policies(self, rewards: np.ndarray) -> np.ndarray:
        """The model's policies, (N, S, A), of a checked (N, S, A, S) reward stack.

        One stacked solve; policy i depends on reward i alone, bit for bit.
        """
        if self.kind == "optimal_uniform":
            return _uniform_policies(self.environment, rewards)
        if self.kind == "boltzmann":
            return _boltzmann_policies(self.environment, rewards, self.beta)
        return _mce_policies(self.environment, rewards, self.alpha)

    def __call__(self, reward: np.ndarray) -> np.ndarray:
        return self.policies(check_reward(self.environment, reward)[None])[0]

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

    @cached_property
    def flat(self) -> np.ndarray:
        """The policies as one (n, S*A) array, in entry order."""
        return np.stack([policy.ravel() for _, policy in self.entries])


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
    rewards, invalid = [], None
    for _, reward in hypotheses:
        try:
            rewards.append(check_reward(spec.environment, reward))
        except Exception as exc:
            invalid = exc
            break
    # The rewards before an invalid one are solved first: they come first in order.
    try:
        policies = spec.policies(np.stack(rewards)) if rewards else None
    except ConvergenceError as exc:
        raise ConvergenceError(f"model failed on reward {ids[exc.item]!r}: {exc}", residual=exc.residual) from exc
    if invalid is not None:
        raise type(invalid)(f"model failed on reward {ids[len(rewards)]!r}: {invalid}") from invalid
    return ModelTable(tuple(zip(ids, policies)))
