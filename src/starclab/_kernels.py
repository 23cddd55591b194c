"""The Bellman layer: exact policy evaluation, the fixed-point solvers, and
the one rule that accepts a residual.

Everything here works on stacks.  ``evaluate`` is the one stacked solve of
``(I - gamma P_pi) v = r_pi``, and ``evaluate_deterministic`` its form for
deterministic policies, behind ``mdp.policy_evaluation``, policy iteration
and the oracles.  ``policy_iteration`` and ``soft_policy_iteration`` solve the
optimal and the entropy-regularised fixed points of an (N, S, A) stack of
expected rewards at once: each round is one batched linear solve over the
items still running, and each item keeps its own switch rule, roundoff
floor, stop test, round count and residual.  Every per-item step (the
gathers, the batched solve, Q formed by one matrix-vector product per item)
gives an item the same bits whatever the stack's size or order, so a single
reward is simply the N=1 case.  Each round is a dense solve, so the rounds
do not grow with 1/(1 - gamma); ``max_iters`` bounds them.

Every threshold is relative: ``check_residual`` accepts an item's residual
within ``tolerance(tol, its values)``, and policy iteration switches an
action only where it gains more than the roundoff of the item's Q-values,
so a reward and its positive multiples get the same optimal policy.
``value_iteration``, ``soft_value_iteration`` and ``USING_NUMBA`` stay only
for the benchmark's tracer, which binds them by name; they go once it traces
the stacked kernels.
"""

from __future__ import annotations

import itertools

import numpy as np

DEFAULT_DP_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000

# Kept only for the benchmark's host report; no solver here is jit-compiled.
USING_NUMBA = False

# A float64 Bellman residual cannot be resolved below a few ulps of the
# Q-values, so every tolerance is floored at 64 ulps of max|q|.
_ROUNDOFF = 64 * np.finfo(float).eps


class ConvergenceError(RuntimeError):
    """A fixed-point solver failed to reach its tolerance.

    ``item`` is the index, in its stack, of the reward that failed.
    """

    def __init__(self, message, residual=None, item=None):
        super().__init__(message)
        self.residual = residual
        self.item = item


def _roundoff(values):
    """Per item of a stack (N, ...): 64 ulps of its largest |value|, (N,)."""
    return _ROUNDOFF * np.abs(values).reshape(len(values), -1).max(axis=1)


def tolerance(tol, values):
    """Per item of a stack (N, ...): ``tol``, or the roundoff of the item's
    values if that is larger.

    At the default ``tol`` of 1e-10 the floor only binds for values above
    about 7e3.  The solvers stop, and their callers accept a residual, at
    this tolerance.
    """
    return np.maximum(tol, _roundoff(values))


def check_residual(residual, tol, values, failure):
    """Raise ConvergenceError for the first item of a stack whose residual,
    (N,), exceeds ``tolerance(tol, values)``; ``failure(i)`` opens its message."""
    if not (residual > tol).any():
        return  # the floor only raises tol, so no item needs it
    tols = tolerance(tol, values)
    bad = np.flatnonzero(residual > tols)
    if bad.size:
        i = int(bad[0])
        raise ConvergenceError(
            f"{failure(i)}: residual {residual[i]:g} exceeds tolerance {tols[i]:g}",
            residual=float(residual[i]),
            item=i,
        )


def _solve(transition, discount, policies, r_pi):
    """The systems ``I - gamma P_pi`` of N policies (N, S, A), and their solutions for (N, S, k)."""
    p_pi = np.einsum("nsa,sat->nst", policies, transition)
    system = np.eye(transition.shape[0]) - discount * p_pi
    return system, np.linalg.solve(system, r_pi)


def _q_values(expected, transition, discount, v):
    """Q-values (N, S, A) of values v (N, S).

    A stacked matmul makes one matrix-vector product per item, so an item's
    bits do not depend on the others; one (N, S) by (S, S*A) product would
    change its summation order with N.
    """
    n_states, n_actions, _ = transition.shape
    tv = transition.reshape(n_states * n_actions, n_states) @ v[..., None]
    return expected + discount * tv.reshape(expected.shape)


def evaluate(transition, discount, policies, expected):
    """Values, (N, S, k), of N policies (N, S, A) under k expected rewards (k, S, A).

    One stacked solve of ``(I - gamma P_pi) v = r_pi``.  A sup-norm Bellman
    residual over the whole stack that ``check_residual`` rejects at
    ``DEFAULT_DP_TOL`` raises ConvergenceError.
    """
    r_pi = np.einsum("nsa,ksa->nsk", policies, expected)
    system, v = _solve(transition, discount, policies, r_pi)
    residual = np.abs(system @ v - r_pi).max()
    check_residual(np.array([residual]), DEFAULT_DP_TOL, v[None], lambda _: "policy evaluation")
    return v


def evaluate_deterministic(transition, discount, actions, r_pi):
    """Values, (N, S, k), of N deterministic policies, given by their actions (N, S), for rewards r_pi (N, S, k).

    ``evaluate``'s bits, with ``P_pi``'s rows gathered: its sum over one-hot policies only adds exact zeros.
    """
    states = np.arange(transition.shape[0])
    return np.linalg.solve(np.eye(len(states)) - discount * transition[states, actions], r_pi)


def _record(done, live, out, *values):
    """Store the values of the items that are ``done`` at their places in ``out``; return the rest of ``live``.

    A stack whose items all finish in the same round skips this and returns its values as they are.
    """
    finished = live[done]
    for target, value in zip(out, values):
        target[finished] = value[done]
    return live[~done]


def policy_iteration(expected, transition, discount, max_iters):
    """Optimal (greedy) Bellman fixed points of an (N, S, A) expected-reward stack, by Howard policy iteration.

    Each item starts from the actions that are greedy on its expected
    reward, evaluates its current deterministic policy exactly, and switches
    every action whose greedy gain exceeds the roundoff of its own ``q``, so
    exact ties cannot make it cycle.  An item stops when its policy is
    stable or it has run ``max_iters`` rounds.  Returns ``(v (N, S),
    q (N, S, A), rounds (N,), residual (N,))``.
    """
    n, n_states, _ = expected.shape
    states = np.arange(n_states)
    out = v, q, rounds, residual = np.empty((n, n_states)), np.empty_like(expected), np.empty(n, int), np.empty(n)
    # The running items, their expected rewards and their current actions.
    live, er, act = np.arange(n), expected, expected.argmax(axis=2)
    items = live[:, None]
    for round_ in itertools.count(1):
        v_live = evaluate_deterministic(transition, discount, act, er[items, states, act, None])[..., 0]
        q_live = _q_values(er, transition, discount, v_live)
        best = q_live.max(axis=2)
        switch = best - q_live[items, states, act] > _roundoff(q_live)[:, None]
        done = ~switch.any(axis=1)
        if round_ >= max_iters:
            done[:] = True
        if done.any():
            finished = v_live, q_live, np.full(live.size, round_), np.abs(best - v_live).max(axis=1)
            if live.size == n and done.all():
                return finished
            live = _record(done, live, out, *finished)
            if not live.size:
                break
            keep = ~done
            er, act, switch, q_live, items = er[keep], act[keep], switch[keep], q_live[keep], items[: live.size]
        act = np.where(switch, q_live.argmax(axis=2), act)
    return v, q, rounds, residual


def soft_policy_iteration(expected, transition, discount, weight, tol, max_iters):
    """Entropy-regularised Bellman fixed points of an (N, S, A) expected-reward stack, by soft policy iteration.

    Each item starts from the uniform policy, evaluates its entropy-
    regularised value ``(I - gamma P_pi) v = sum_a pi (r - weight log pi)``
    exactly, and moves to ``pi = softmax(q / weight)``.  An item stops when
    its soft Bellman residual is below ``tol``, or below ``tolerance(tol, q)``
    and no longer shrinking, or after ``max_iters`` rounds.  Returns
    ``(v (N, S), q (N, S, A), rounds (N,), residual (N,))``.
    """
    n, n_states, n_actions = expected.shape
    out = v, q, rounds, residual = np.empty((n, n_states)), np.empty_like(expected), np.empty(n, int), np.empty(n)
    # The running items, their expected rewards, policies, log-policies and last residuals.
    live, er = np.arange(n), expected
    policy = np.full(expected.shape, 1.0 / n_actions)
    log_policy = np.full(expected.shape, -np.log(n_actions))
    last_resid = np.full(n, np.inf)
    for round_ in itertools.count(1):
        soft_reward = np.einsum("nsa,nsa->ns", policy, er - weight * log_policy)
        v_live = _solve(transition, discount, policy, soft_reward[..., None])[1][..., 0]
        q_live = _q_values(er, transition, discount, v_live)
        m = q_live.max(axis=2)
        v_soft = m + weight * np.log(np.exp((q_live - m[..., None]) / weight).sum(axis=2))
        resid = np.abs(v_soft - v_live).max(axis=1)
        # Below the roundoff floor, stop once a round no longer helps.
        stalled = resid >= last_resid
        if stalled.any():
            stalled &= resid < tolerance(tol, q_live)
        done = (resid < tol) | stalled
        if round_ >= max_iters:
            done[:] = True
        if done.any():
            finished = v_live, q_live, np.full(live.size, round_), resid
            if live.size == n and done.all():
                return finished
            live = _record(done, live, out, *finished)
            if not live.size:
                break
            keep = ~done
            er, q_live, v_soft, resid = er[keep], q_live[keep], v_soft[keep], resid[keep]
        last_resid = resid
        log_policy = (q_live - v_soft[..., None]) / weight
        policy = np.exp(log_policy)
        # Rows off 1 by roundoff bias the next evaluation by that error
        # times 1/(1 - gamma), which can hold the residual above tol.
        row_sums = policy.sum(axis=2, keepdims=True)
        policy /= row_sums
        log_policy -= np.log(row_sums)
    return v, q, rounds, residual


def _single(v, q, rounds, residual):
    return v[0], q[0], int(rounds[0]), residual[0]


def value_iteration(expected_reward, transition, discount, max_iters):
    """``policy_iteration`` of one (S, A) expected reward: ``(v, q, rounds, residual)``; kept only for the tracer."""
    return _single(*policy_iteration(expected_reward[None], transition, discount, max_iters))


def soft_value_iteration(expected_reward, transition, discount, weight, tol, max_iters):
    """``soft_policy_iteration`` of one (S, A) expected reward: ``(v, q, rounds, residual)``; kept only for the tracer."""
    return _single(*soft_policy_iteration(expected_reward[None], transition, discount, weight, tol, max_iters))
