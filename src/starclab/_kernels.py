"""Exact Bellman fixed-point solvers.

Each fixed point has one solver, and each round of either solver is one
dense linear solve of the current policy's Bellman equation, so the number
of rounds does not grow with 1/(1 - gamma) the way value-iteration sweeps
do.  ``max_iters`` bounds the number of rounds.

Both entry points return ``(v, q, rounds, residual)``: ``q`` is recomputed
from the final ``v`` and ``residual`` is the sup-norm Bellman residual of
``v``.  The entry points keep their value-iteration names because the
benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import numpy as np

# Recorded by the benchmark's host report; no solver here is jit-compiled.
USING_NUMBA = False

# An action is switched only where it gains more than this fraction of the
# tolerance, so exact ties cannot make policy iteration cycle.
SWITCH_FRACTION = 1e-2

# A float64 Bellman residual cannot be resolved below a few ulps of the
# Q-values, so every tolerance is floored at this many ulps of max|q|.
ROUNDOFF_ULPS = 64


def _roundoff(q):
    return ROUNDOFF_ULPS * np.finfo(float).eps * np.abs(q).max()


def tolerance(tol, q):
    """``tol``, or the roundoff of Q-values as large as ``q`` if that is larger.

    At the default ``tol`` of 1e-10 the floor only binds for Q-values above
    about 7e3.  The solvers stop, and their callers accept a residual, at
    this tolerance.
    """
    return max(tol, _roundoff(q))


def value_iteration(expected_reward, transition, discount, tol, max_iters):
    """Optimal (greedy) Bellman fixed point by Howard policy iteration.

    Starts from the actions that are greedy on the expected reward,
    evaluates the current deterministic policy exactly, and switches every
    action whose greedy gain exceeds ``SWITCH_FRACTION * tol`` (or the
    roundoff of ``q``).  Stops when the policy is stable.  Returns
    ``(v, q, rounds, residual)``.
    """
    n_states = expected_reward.shape[0]
    states = np.arange(n_states)
    eye = np.eye(n_states)
    actions = expected_reward.argmax(axis=1)
    rounds = 0
    while True:
        rounds += 1
        v = np.linalg.solve(
            eye - discount * transition[states, actions], expected_reward[states, actions]
        )
        q = expected_reward + discount * (transition @ v)
        best = q.max(axis=1)
        switch = best - q[states, actions] > max(SWITCH_FRACTION * tol, _roundoff(q))
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
    eye = np.eye(n_states)
    log_policy = np.full((n_states, n_actions), -np.log(n_actions))
    policy = np.full((n_states, n_actions), 1.0 / n_actions)
    rounds = 0
    last_resid = np.inf
    while True:
        rounds += 1
        p_pi = np.einsum("sa,sat->st", policy, transition)
        r_pi = (policy * (expected_reward - weight * log_policy)).sum(axis=1)
        v = np.linalg.solve(eye - discount * p_pi, r_pi)
        q = expected_reward + discount * (transition @ v)
        m = q.max(axis=1)
        v_soft = m + weight * np.log(np.exp((q - m[:, None]) / weight).sum(axis=1))
        resid = np.abs(v_soft - v).max()
        # Below the roundoff floor, stop once a round no longer helps.
        stalled = resid < tolerance(tol, q) and resid >= last_resid
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
