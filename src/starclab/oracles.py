"""Brute-force and sampling oracles for validating the analytic modules.

Everything here is deliberately independent of the canonicalization and
model code: policy enumeration, return comparison over all enumerable
policies, plain value iteration, Monte Carlo return estimation, and
exhaustive regret-witness search.  The oracles are only feasible on small
instances and exist to cross-check the fast paths.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .mdp import (
    DEFAULT_DP_TOL,
    ConvergenceError,
    InvalidInstance,
    TabularMdp,
    check_reward,
    expected_reward,
    reward_stack,
)
from .transforms import invariance_basis

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


def _deterministic_policies(mdp: TabularMdp, size: int) -> np.ndarray:
    """The first ``size`` deterministic policies, (size, S, A), in ``deterministic_policy`` order."""
    digits = mdp.n_actions ** np.arange(mdp.n_states)
    actions = (np.arange(size)[:, None] // digits) % mdp.n_actions
    return np.eye(mdp.n_actions)[actions]


def enumerate_deterministic_policies(mdp: TabularMdp, cap: int = DEFAULT_CAP) -> list[np.ndarray]:
    return list(_deterministic_policies(mdp, _policy_space_size(mdp, cap)))


def _stacked_returns(
    mdp: TabularMdp, policies: np.ndarray, expected: np.ndarray, tol: float | None = None
) -> np.ndarray:
    """Returns of N policies under k rewards, from one solve over the stack.

    ``policies`` is (N, S, A) and ``expected`` holds the k rewards' expected
    rewards, (k, S, A); the result is (k, N).  With ``tol``, a Bellman
    residual that ``_kernels.check_residual`` rejects raises ConvergenceError.
    """
    v = _kernels.evaluate(mdp.transition, mdp.discount, policies, expected, tol)
    return np.einsum("s,nsk->kn", mdp.initial_dist, v)


def _deterministic_returns(mdp: TabularMdp, expected: np.ndarray, cap: int) -> np.ndarray:
    """(k, A^S) returns of every deterministic policy under k expected rewards."""
    policies = _deterministic_policies(mdp, _policy_space_size(mdp, cap))
    return _stacked_returns(mdp, policies, expected)


def _expected_rewards(mdp: TabularMdp, *rewards: np.ndarray) -> np.ndarray:
    return expected_reward(mdp, reward_stack(mdp, rewards))


def _signs(diffs: np.ndarray, band: float) -> np.ndarray:
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
    stochastic pairs.  Under each reward, return differences within
    ``SIGN_BAND`` times its largest deterministic |return| count as ties, so
    the verdict does not depend on the rewards' scale.  Each policy set is
    evaluated under both rewards in one stacked solve.
    """
    expected = _expected_rewards(mdp, reward_1, reward_2)
    j1, j2 = _deterministic_returns(mdp, expected, cap)
    band_1, band_2 = SIGN_BAND * np.abs(j1).max(), SIGN_BAND * np.abs(j2).max()
    chunk = 256
    for start in range(0, len(j1), chunk):
        d1 = j1[start : start + chunk, None] - j1[None, :]
        d2 = j2[start : start + chunk, None] - j2[None, :]
        if (_signs(d1, band_1) != _signs(d2, band_2)).any():
            return False
    # Pair i is (policies[2i], policies[2i + 1]): the draws of a per-pair loop.
    rng = np.random.default_rng(seed)
    policies = rng.dirichlet(np.ones(mdp.n_actions), size=(2 * N_STOCHASTIC_PAIRS, mdp.n_states))
    returns = _stacked_returns(mdp, policies, expected, tol=DEFAULT_DP_TOL)
    d1, d2 = returns[:, 0::2] - returns[:, 1::2]
    return bool((_signs(d1, band_1) == _signs(d2, band_2)).all())


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


def dense_invariant_projection(mdp: TabularMdp, tensor: np.ndarray) -> np.ndarray:
    """Projection onto the invariance subspace through its explicit orthonormal basis.

    Builds (or reuses) the O((S^2 A)^3) SVD basis of ``invariance_basis``, so
    it is only feasible for small environments; it is the dense ground truth
    for the closed-form ``transforms.project_invariant``.
    """
    basis = invariance_basis(mdp).combined_orthonormal
    flat_basis = basis.reshape(basis.shape[0], -1)
    tensor = np.asarray(tensor, dtype=float)
    return ((flat_basis @ tensor.ravel()) @ flat_basis).reshape(tensor.shape)


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


def _regret_witness(j1: np.ndarray, j2: np.ndarray) -> tuple[float, tuple[int, int] | None]:
    """Largest J1(i) - J1(k) over index pairs with J2(k) >= J2(i), and its pair.

    Returns (0, None) when no pair has a positive gap.  Ties go to the
    smallest i, and then to the k that comes first in stable J2 order.
    """
    # Sort by J2 ascending; for each i, the eligible k form a suffix.
    order = np.argsort(j2, kind="stable")
    j2_sorted = j2[order]
    j1_sorted = j1[order]
    suffix_min = np.minimum.accumulate(j1_sorted[::-1])[::-1]
    # The leftmost arg-min of a suffix is the first position at or after its
    # start whose value is the minimum of its own suffix.
    n = len(j1)
    records = np.where(j1_sorted == suffix_min, np.arange(n), n)
    suffix_argmin = np.minimum.accumulate(records[::-1])[::-1]
    lo = np.searchsorted(j2_sorted, j2, side="left")
    gaps = j1 - suffix_min[lo]
    i = int(np.argmax(gaps))
    if not gaps[i] > 0.0:
        return 0.0, None
    return float(gaps[i]), (i, int(order[suffix_argmin[lo[i]]]))


def regret_witness_search(
    mdp: TabularMdp,
    reward_1: np.ndarray,
    reward_2: np.ndarray,
    cap: int = DEFAULT_CAP,
) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """Maximize normalized reward-1 regret over pairs reward 2 weakly endorses.

    Finds deterministic policies (pi_1, pi_2) with J2(pi_2) >= J2(pi_1)
    maximizing (J1(pi_1) - J1(pi_2)) / (max J1 - min J1).  Returns (0, None)
    when reward 1's deterministic return range is within ``SIGN_BAND`` times
    its largest |return|, the oracles' tie band: such a range is roundoff.
    """
    j1, j2 = _deterministic_returns(mdp, _expected_rewards(mdp, reward_1, reward_2), cap)
    j1_range = j1.max() - j1.min()
    if j1_range <= SIGN_BAND * np.abs(j1).max():
        return 0.0, None
    best_regret, best_pair = _regret_witness(j1, j2)
    if best_pair is None:
        # pi_2 = pi_1 is always eligible, so zero regret is attainable.
        top = int(np.argmax(j1))
        best_pair = (top, top)
    pi_1 = deterministic_policy(mdp, best_pair[0])
    pi_2 = deterministic_policy(mdp, best_pair[1])
    return float(best_regret / j1_range), (pi_1, pi_2)
