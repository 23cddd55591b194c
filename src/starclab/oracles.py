"""Brute-force and sampling oracles for validating the analytic modules.

Everything here is deliberately independent of the canonicalization and
model code: policy enumeration, return comparison over all enumerable
policies, plain value iteration, Monte Carlo return estimation, and
exhaustive regret-witness search.  The oracles are only feasible on small
instances and exist to cross-check the fast paths.
"""

from __future__ import annotations

import numpy as np

from .mdp import ConvergenceError, InvalidInstance, TabularMdp, check_reward, policy_return

DEFAULT_CAP = 4096
SIGN_BAND = 1e-10
N_STOCHASTIC_PAIRS = 200


class EnumerationCapExceeded(InvalidInstance):
    """The deterministic policy space is too large for exhaustive search."""


def _policy_space_size(mdp: TabularMdp, cap: int) -> int:
    size = mdp.n_actions ** mdp.n_states
    if size > cap:
        raise EnumerationCapExceeded(
            f"|A|^|S| = {size} exceeds the enumeration cap {cap}; "
            "use a sampled search instead"
        )
    return size


def deterministic_policy(mdp: TabularMdp, index: int) -> np.ndarray:
    """Decode a base-|A| index into a deterministic policy table."""
    policy = np.zeros((mdp.n_states, mdp.n_actions))
    for s in range(mdp.n_states):
        policy[s, index % mdp.n_actions] = 1.0
        index //= mdp.n_actions
    return policy


def enumerate_deterministic_policies(mdp: TabularMdp, cap: int = DEFAULT_CAP) -> list[np.ndarray]:
    size = _policy_space_size(mdp, cap)
    return [deterministic_policy(mdp, i) for i in range(size)]


def _deterministic_returns(mdp: TabularMdp, reward: np.ndarray, cap: int) -> np.ndarray:
    size = _policy_space_size(mdp, cap)
    er = np.einsum("sat,sat->sa", mdp.transition, reward)
    eye = np.eye(mdp.n_states)
    returns = np.empty(size)
    for i in range(size):
        actions = np.empty(mdp.n_states, dtype=int)
        idx = i
        for s in range(mdp.n_states):
            actions[s] = idx % mdp.n_actions
            idx //= mdp.n_actions
        p_pi = mdp.transition[np.arange(mdp.n_states), actions]
        r_pi = er[np.arange(mdp.n_states), actions]
        v = np.linalg.solve(eye - mdp.discount * p_pi, r_pi)
        returns[i] = mdp.initial_dist @ v
    return returns


def _signs(diffs: np.ndarray, band: float = SIGN_BAND) -> np.ndarray:
    signs = np.sign(diffs)
    signs[np.abs(diffs) < band] = 0.0
    return signs


def same_order_oracle(
    mdp: TabularMdp,
    reward_1: np.ndarray,
    reward_2: np.ndarray,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> bool:
    """True iff the two rewards rank every tested policy pair the same way.

    Checks all enumerated deterministic policy pairs plus 200 seeded random
    stochastic pairs; return differences within a 1e-10 band count as ties.
    """
    reward_1 = check_reward(mdp, reward_1)
    reward_2 = check_reward(mdp, reward_2)
    j1 = _deterministic_returns(mdp, reward_1, cap)
    j2 = _deterministic_returns(mdp, reward_2, cap)
    chunk = 256
    for start in range(0, len(j1), chunk):
        d1 = j1[start : start + chunk, None] - j1[None, :]
        d2 = j2[start : start + chunk, None] - j2[None, :]
        if (_signs(d1) != _signs(d2)).any():
            return False
    rng = np.random.default_rng(seed)
    for _ in range(N_STOCHASTIC_PAIRS):
        pol_a = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
        pol_b = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
        d1 = policy_return(mdp, reward_1, pol_a) - policy_return(mdp, reward_1, pol_b)
        d2 = policy_return(mdp, reward_2, pol_a) - policy_return(mdp, reward_2, pol_b)
        if _signs(np.array([d1]))[0] != _signs(np.array([d2]))[0]:
            return False
    return True


def value_iteration_oracle(
    mdp: TabularMdp,
    reward: np.ndarray,
    weight: float | None = None,
    tol: float = 1e-12,
    max_sweeps: int = 1_000_000,
) -> np.ndarray:
    """Plain value iteration: optimal values, or soft values at ``weight``.

    Sweeps the (soft) Bellman operator from zero until successive iterates
    differ by less than ``tol``; the values are then within
    ``tol * gamma / (1 - gamma)`` of the fixed point.
    """
    er = np.einsum("sat,sat->sa", mdp.transition, check_reward(mdp, reward))
    v = np.zeros(mdp.n_states)
    for _ in range(max_sweeps):
        q = er + mdp.discount * (mdp.transition @ v)
        v_new = q.max(axis=1)
        if weight is not None:
            v_new = v_new + weight * np.log(np.exp((q - v_new[:, None]) / weight).sum(axis=1))
        if np.abs(v_new - v).max() < tol:
            return v_new
        v = v_new
    raise ConvergenceError(f"value iteration did not settle in {max_sweeps} sweeps")


def monte_carlo_return(
    mdp: TabularMdp,
    reward: np.ndarray,
    policy: np.ndarray,
    horizon: int,
    n_rollouts: int,
    seed: int,
) -> tuple[float, float]:
    """Truncated-rollout estimate of the policy return, with its standard error."""
    reward = check_reward(mdp, reward)
    rng = np.random.default_rng(seed)
    policy_cum = np.cumsum(policy, axis=1)
    trans_cum = np.cumsum(mdp.transition, axis=2)
    init_cum = np.cumsum(mdp.initial_dist)

    states = np.searchsorted(init_cum, rng.random(n_rollouts), side="right")
    states = np.minimum(states, mdp.n_states - 1)
    totals = np.zeros(n_rollouts)
    discount_pow = 1.0
    for _ in range(horizon):
        u = rng.random(n_rollouts)
        actions = (policy_cum[states] < u[:, None]).sum(axis=1)
        actions = np.minimum(actions, mdp.n_actions - 1)
        u = rng.random(n_rollouts)
        nexts = (trans_cum[states, actions] < u[:, None]).sum(axis=1)
        nexts = np.minimum(nexts, mdp.n_states - 1)
        totals += discount_pow * reward[states, actions, nexts]
        discount_pow *= mdp.discount
        states = nexts
    estimate = float(totals.mean())
    stderr = float(totals.std(ddof=1) / np.sqrt(n_rollouts)) if n_rollouts > 1 else 0.0
    return estimate, stderr


def regret_witness_search(
    mdp: TabularMdp,
    reward_1: np.ndarray,
    reward_2: np.ndarray,
    cap: int = DEFAULT_CAP,
) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """Maximize normalized reward-1 regret over pairs reward 2 weakly endorses.

    Finds deterministic policies (pi_1, pi_2) with J2(pi_2) >= J2(pi_1)
    maximizing (J1(pi_1) - J1(pi_2)) / (max J1 - min J1).  Returns (0, None)
    when reward 1's deterministic return range is below 1e-12.
    """
    j1 = _deterministic_returns(mdp, check_reward(mdp, reward_1), cap)
    j2 = _deterministic_returns(mdp, check_reward(mdp, reward_2), cap)
    j1_range = j1.max() - j1.min()
    if j1_range < 1e-12:
        return 0.0, None
    # Sort by J2 ascending; for each pi_1, the eligible pi_2 form a suffix.
    order = np.argsort(j2, kind="stable")
    j2_sorted = j2[order]
    j1_sorted = j1[order]
    suffix_min = np.minimum.accumulate(j1_sorted[::-1])[::-1]
    suffix_argmin = np.empty(len(j1), dtype=int)
    best_idx = len(j1) - 1
    best_val = j1_sorted[-1]
    for i in range(len(j1) - 1, -1, -1):
        if j1_sorted[i] <= best_val:
            best_val = j1_sorted[i]
            best_idx = i
        suffix_argmin[i] = best_idx
    best_regret = 0.0
    best_pair = None
    for i in range(len(j1)):
        lo = np.searchsorted(j2_sorted, j2[i], side="left")
        gap = j1[i] - suffix_min[lo]
        if gap > best_regret:
            best_regret = gap
            best_pair = (int(i), int(order[suffix_argmin[lo]]))
    if best_pair is None:
        # pi_2 = pi_1 is always eligible, so zero regret is attainable.
        top = int(np.argmax(j1))
        best_pair = (top, top)
    pi_1 = deterministic_policy(mdp, best_pair[0])
    pi_2 = deterministic_policy(mdp, best_pair[1])
    return float(best_regret / j1_range), (pi_1, pi_2)
