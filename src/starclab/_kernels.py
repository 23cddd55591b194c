"""The Bellman layer: exact policy evaluation, the fixed-point solvers, and
the one rule that accepts a residual.

``evaluate`` is the one stacked solve of ``(I - gamma P_pi) v = r_pi``,
behind ``mdp.policy_evaluation``, the oracles and soft policy iteration.
Each round of either fixed-point solver is one dense linear solve, so the
rounds do not grow with 1/(1 - gamma); ``max_iters`` bounds them.  Every
threshold is relative: ``check_residual`` accepts a residual within
``tolerance(tol, values)``, and policy iteration switches an action only
where it gains more than the roundoff of the Q-values, so a reward and its
positive multiples get the same optimal policy.  Both solvers return
``(v, q, rounds, residual)`` and keep their value-iteration names, which
the benchmark's tracer wraps.
"""

from __future__ import annotations

import numpy as np

# Recorded by the benchmark's host report; no solver here is jit-compiled.
USING_NUMBA = False

# A float64 Bellman residual cannot be resolved below a few ulps of the
# Q-values, so every tolerance is floored at 64 ulps of max|q|.
_ROUNDOFF = 64 * np.finfo(float).eps


class ConvergenceError(RuntimeError):
    """A fixed-point solver failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _roundoff(q):
    return _ROUNDOFF * np.abs(q).max()


def tolerance(tol, q):
    """``tol``, or the roundoff of Q-values as large as ``q`` if that is larger.

    At the default ``tol`` of 1e-10 the floor only binds for Q-values above
    about 7e3.  The solvers stop, and their callers accept a residual, at
    this tolerance.
    """
    return max(tol, _roundoff(q))


def check_residual(residual, tol, values, failure):
    """Raise ConvergenceError, its message opened by ``failure``, unless
    ``residual`` is within ``tolerance(tol, values)``."""
    tol = tolerance(tol, values)
    if residual > tol:
        raise ConvergenceError(
            f"{failure}: residual {residual:g} exceeds tolerance {tol:g}", residual=residual
        )


def evaluate(transition, discount, policies, expected, tol=None):
    """Values, (N, S, k), of N policies (N, S, A) under k expected rewards (k, S, A).

    One stacked solve of ``(I - gamma P_pi) v = r_pi``.  With ``tol``, a
    sup-norm Bellman residual that ``check_residual`` rejects raises
    ConvergenceError; without it the residual is not computed.
    """
    p_pi = np.einsum("nsa,sat->nst", policies, transition)
    r_pi = np.einsum("nsa,ksa->nsk", policies, expected)
    system = np.eye(transition.shape[0]) - discount * p_pi
    v = np.linalg.solve(system, r_pi)
    if tol is not None:
        check_residual(np.abs(system @ v - r_pi).max(), tol, v, "policy evaluation")
    return v


def value_iteration(expected_reward, transition, discount, max_iters):
    """Optimal (greedy) Bellman fixed point by Howard policy iteration.

    Starts from the actions that are greedy on the expected reward,
    evaluates the current deterministic policy exactly, and switches every
    action whose greedy gain exceeds the roundoff of ``q``, so exact ties
    cannot make it cycle.  Stops when the policy is stable.  Returns
    ``(v, q, rounds, residual)``.
    """
    n_states = expected_reward.shape[0]
    states = np.arange(n_states)
    eye = np.eye(n_states)
    actions = expected_reward.argmax(axis=1)
    rounds = 0
    while True:
        rounds += 1
        # The gathered rows of a deterministic policy; cheaper than ``evaluate``.
        v = np.linalg.solve(
            eye - discount * transition[states, actions], expected_reward[states, actions]
        )
        q = expected_reward + discount * (transition @ v)
        best = q.max(axis=1)
        switch = best - q[states, actions] > _roundoff(q)
        if not switch.any() or rounds >= max_iters:
            return v, q, rounds, np.abs(best - v).max()
        actions = np.where(switch, q.argmax(axis=1), actions)


def soft_value_iteration(expected_reward, transition, discount, weight, tol, max_iters):
    """Entropy-regularised Bellman fixed point by soft policy iteration.

    Starts from the uniform policy, evaluates its entropy-regularised value
    ``(I - gamma P_pi) v = sum_a pi (r - weight log pi)`` exactly, and moves
    to ``pi = softmax(q / weight)``.  Stops when the soft Bellman residual is
    below ``tol``, or below ``tolerance(tol, q)`` and no longer shrinking.
    Returns ``(v, q, rounds, residual)``.
    """
    n_states, n_actions = expected_reward.shape
    log_policy = np.full((n_states, n_actions), -np.log(n_actions))
    policy = np.full((n_states, n_actions), 1.0 / n_actions)
    rounds = 0
    last_resid = np.inf
    while True:
        rounds += 1
        soft_reward = expected_reward - weight * log_policy
        v = evaluate(transition, discount, policy[None], soft_reward[None])[0, :, 0]
        q = expected_reward + discount * (transition @ v)
        m = q.max(axis=1)
        v_soft = m + weight * np.log(np.exp((q - m[:, None]) / weight).sum(axis=1))
        resid = np.abs(v_soft - v).max()
        # Below the roundoff floor, stop once a round no longer helps.
        stalled = resid >= last_resid and resid < tolerance(tol, q)
        if resid < tol or stalled or rounds >= max_iters:
            return v, q, rounds, resid
        last_resid = resid
        log_policy = (q - v_soft[:, None]) / weight
        policy = np.exp(log_policy)
        # Rows off 1 by roundoff bias the next evaluation by that error
        # times 1/(1 - gamma), which can hold the residual above tol.
        row_sums = policy.sum(axis=1, keepdims=True)
        policy /= row_sums
        log_policy -= np.log(row_sums)
