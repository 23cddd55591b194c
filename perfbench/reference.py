"""Independent computations the benchmark checks starclab's outputs against.

Nothing here imports starclab.  Every function takes plain numpy arrays:
``transition`` of shape (S, A, S), ``discount`` in (0, 1), rewards of shape
(S, A, S) and policies of shape (S, A).
"""

from __future__ import annotations

import json

import numpy as np

# A canonical reward whose norm is below this share of the reward's own norm
# counts as trivial.  Relative, so the check holds at every reward magnitude.
TRIVIAL_SHARE = 1e-9


def canonical(transition: np.ndarray, discount: float, reward: np.ndarray) -> np.ndarray:
    """Minimum-norm member of the reward's shaping-plus-redistribution class.

    The complement of the redistribution subspace is spanned by the rows
    tau(s, a, .), so the canonical reward is ``c(s, a) * tau(s, a, .) /
    |tau(s, a)|^2`` with ``c = m - (gamma * tau @ phi - phi)``, where ``m`` is
    the conditional-mean reward and phi solves the least-squares problem with
    weights ``1 / |tau(s, a)|^2``.
    """
    n_s, n_a, _ = transition.shape
    mean = np.einsum("sat,sat->sa", transition, reward).ravel()
    row_sq = np.einsum("sat,sat->sa", transition, transition).ravel()
    shaping = discount * transition.reshape(n_s * n_a, n_s)
    shaping[np.arange(n_s * n_a), np.repeat(np.arange(n_s), n_a)] -= 1.0
    weight = 1.0 / np.sqrt(row_sq)
    phi, *_ = np.linalg.lstsq(shaping * weight[:, None], mean * weight, rcond=None)
    coeff = (mean - shaping @ phi) / row_sq
    return coeff.reshape(n_s, n_a, 1) * transition


def distance(transition: np.ndarray, discount: float, reward_1: np.ndarray, reward_2: np.ndarray) -> float:
    """Half the Euclidean distance between the unit canonical rewards."""
    units = []
    for reward in (reward_1, reward_2):
        canon = canonical(transition, discount, reward)
        norm = np.linalg.norm(canon)
        trivial = norm <= TRIVIAL_SHARE * np.linalg.norm(reward)
        units.append(np.zeros_like(canon) if trivial else canon / norm)
    return 0.5 * float(np.linalg.norm(units[0] - units[1]))


def policy_values(transition, discount, reward, policy, extra=None) -> np.ndarray:
    """State values of a fixed policy by a direct linear solve.

    ``extra`` is an optional (S, A) per-action bonus added to the expected
    reward, such as the entropy term of a regularised evaluation.
    """
    n_s = transition.shape[0]
    per_action = np.einsum("sat,sat->sa", transition, reward)
    if extra is not None:
        per_action = per_action + extra
    r_pi = (policy * per_action).sum(axis=1)
    p_pi = np.einsum("sa,sat->st", policy, transition)
    return np.linalg.solve(np.eye(n_s) - discount * p_pi, r_pi)


def q_values(transition, discount, reward, values) -> np.ndarray:
    return np.einsum("sat,sat->sa", transition, reward) + discount * transition @ values


def policy_return(transition, initial, discount, reward, policy) -> float:
    return float(initial @ policy_values(transition, discount, reward, policy))


def optimal_q(transition, discount, reward, max_rounds=1000) -> np.ndarray:
    """Exact Q* by policy iteration: evaluate, act greedily, stop when stable."""
    n_s, n_a, _ = transition.shape
    actions = np.zeros(n_s, dtype=int)
    for _ in range(max_rounds):
        policy = np.eye(n_a)[actions]
        q = q_values(transition, discount, reward, policy_values(transition, discount, reward, policy))
        improved = q.argmax(axis=1)
        # Switch only on a strict gain, so ties cannot make it cycle.
        keep = q[np.arange(n_s), actions] >= q[np.arange(n_s), improved] - 1e-12 * (1 + np.abs(q).max())
        improved[keep] = actions[keep]
        if (improved == actions).all():
            return q
        actions = improved
    raise RuntimeError("policy iteration did not stabilise")


def greedy_support(q: np.ndarray) -> np.ndarray:
    """Boolean (S, A) mask of near-argmax actions, ties within 1e-8 * (1 + max|Q|)."""
    return q >= q.max(axis=1, keepdims=True) - 1e-8 * (1.0 + np.abs(q).max())


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def soft_greedy_gap(transition, discount, reward, policy, alpha) -> float:
    """Sup-norm gap between a policy and the soft-greedy policy of its own values.

    The values come from the entropy-regularised policy evaluation, a linear
    solve; the maximum-causal-entropy policy is its own soft-greedy policy.
    """
    with np.errstate(divide="ignore"):
        entropy_bonus = -alpha * np.where(policy > 0, np.log(policy), 0.0)
    values = policy_values(transition, discount, reward, policy, extra=entropy_bonus)
    q = q_values(transition, discount, reward, values)
    return float(np.abs(softmax(q / alpha) - policy).max())


def bellman_residual(transition, discount, reward, policy) -> tuple[float, float]:
    """Optimality residual of a policy's own values, and the values' sup norm."""
    values = policy_values(transition, discount, reward, policy)
    q = q_values(transition, discount, reward, values)
    return float(np.abs(q.max(axis=1) - values).max()), float(np.abs(values).max())


def _reject_constant(token: str):
    raise ValueError(f"invalid JSON constant {token}")


def strict_json_load(path):
    """Parse a JSON file, rejecting the NaN and Infinity tokens."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)
