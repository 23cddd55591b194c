"""Brute-force and sampling oracles for validating the analytic modules.

Everything here is deliberately independent of the canonicalization and
model code, and reads only ``mdp`` and the Bellman layer ``_kernels``:
policy enumeration, return comparison over all enumerable policies, Monte
Carlo return estimation, and exhaustive regret-witness search.  The oracles
are only feasible on small instances and exist to cross-check the fast paths.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .mdp import InvalidInstance, TabularMdp, check_reward, expected_reward, reward_stack

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


def _deterministic_actions(mdp: TabularMdp, indices) -> np.ndarray:
    """The actions, (..., S), of the deterministic policies with base-|A| ``indices``: state s reads digit s.

    The indices only shrink, so unlike the powers |A|^s they never wrap an int64.
    """
    actions = np.empty(np.shape(indices) + (mdp.n_states,), dtype=int)
    for s in range(mdp.n_states):
        indices, actions[..., s] = divmod(indices, mdp.n_actions)
    return actions


def deterministic_policy(mdp: TabularMdp, index) -> np.ndarray:
    """Decode a base-|A| index into a deterministic policy table, or an index array into a stack of them.

    An index outside [0, |A|^|S|) raises InvalidInstance.
    """
    size = mdp.n_actions**mdp.n_states  # a Python int: exact beyond 2^63
    low, high = np.min(index, initial=0), np.max(index, initial=0)
    if low < 0 or high >= size:
        raise InvalidInstance(f"policy index {low if low < 0 else high} is outside [0, |A|^|S| = {size})")
    return np.eye(mdp.n_actions)[_deterministic_actions(mdp, index)]


def _deterministic_policies(mdp: TabularMdp, size: int) -> np.ndarray:
    """The first ``size`` deterministic policies, (size, S, A), in ``deterministic_policy`` order."""
    return deterministic_policy(mdp, np.arange(size))


def enumerate_deterministic_policies(mdp: TabularMdp, cap: int = DEFAULT_CAP) -> list[np.ndarray]:
    return list(_deterministic_policies(mdp, _policy_space_size(mdp, cap)))


def _stacked_returns(mdp: TabularMdp, policies: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Returns of N policies under k rewards, from one solve over the stack.

    ``policies`` is (N, S, A) and ``expected`` holds the k rewards' expected
    rewards, (k, S, A); the result is (k, N).  A Bellman residual that
    ``_kernels.evaluate`` rejects raises ConvergenceError.
    """
    v = _kernels.evaluate(mdp.transition, mdp.discount, policies, expected)
    return np.einsum("s,nsk->kn", mdp.initial_dist, v)


def _deterministic_returns(mdp: TabularMdp, expected: np.ndarray, cap: int) -> np.ndarray:
    """(k, A^S) returns of every deterministic policy under k expected rewards.

    The same bits as ``_stacked_returns`` of the one-hot policies, by
    ``_kernels.evaluate_deterministic``.
    """
    actions = _deterministic_actions(mdp, np.arange(_policy_space_size(mdp, cap)))
    r_pi = np.moveaxis(expected[:, np.arange(mdp.n_states), actions], 0, -1)
    v = _kernels.evaluate_deterministic(mdp.transition, mdp.discount, actions, r_pi)
    return np.einsum("s,nsk->kn", mdp.initial_dist, v)


def _expected_rewards(mdp: TabularMdp, *rewards: np.ndarray) -> np.ndarray:
    return expected_reward(mdp, reward_stack(mdp, rewards))


def _signs(diffs: np.ndarray, band: float) -> np.ndarray:
    signs = np.sign(diffs)
    signs[np.abs(diffs) < band] = 0.0
    return signs


def _ties(diffs: np.ndarray, band: float) -> np.ndarray:
    """Where ``_signs`` gives 0: |d| < band, or d = 0 (the only tie when band is 0)."""
    return (np.abs(diffs) < band) | (diffs == 0)


def _range_extremes(values: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of each nonempty ``values[starts[i]:stops[i]]``, from a sparse table."""
    n = len(values)
    # Level j holds the extremes of the blocks of width 2^j; two blocks cover a range.
    low, high = np.empty((n.bit_length(), n)), np.empty((n.bit_length(), n))
    low[0] = high[0] = values
    for j in range(1, n.bit_length()):
        width = 1 << (j - 1)
        low[j], high[j] = low[j - 1], high[j - 1]
        np.minimum(low[j - 1, :-width], low[j - 1, width:], out=low[j, :-width])
        np.maximum(high[j - 1, :-width], high[j - 1, width:], out=high[j, :-width])
    level = np.frexp(stops - starts)[1] - 1
    ends = stops - (1 << level)
    return np.minimum(low[level, starts], low[level, ends]), np.maximum(high[level, starts], high[level, ends])


def _same_signs(j1: np.ndarray, j2: np.ndarray, band_1: float, band_2: float) -> bool:
    """True iff ``_signs`` of all pairwise differences of j1 (band_1) and j2 (band_2) agree.

    The same verdict as the n x n tables, in O(n log n) by sorting on j1.
    Rounding is monotone, so for fixed i the difference fl(x - x_i) never
    decreases in x; and fl(a - b) = -fl(b - a), so the pairs i < k in j1
    order settle every pair.  For each i, the later k whose J1 difference
    ties (|d| < band_1, or d = 0) form a window right after i, and the rest
    a suffix where J1 strictly rises.  The window must tie under J2, which
    its J2 minimum and maximum decide, since the ties are an interval of d;
    the suffix must strictly rise under J2, which its J2 minimum decides.
    So the tie band needs no transitivity.
    """
    if not (np.isfinite(j1).all() and np.isfinite(j2).all()):
        return False  # inf - inf, on the diagonal at least, is NaN: no sign matches it
    order = np.argsort(j1, kind="stable")
    a, b = j1[order], j2[order]
    n = len(a)
    # stop[i]: the first k > i where J1 strictly rises over a[i], or n; a
    # binary search per i, exact because the rise is monotone in k.
    start = np.arange(1, n + 1)
    lo, hi = start, np.full(n, n)
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        rises = ~_ties(a[np.minimum(mid, n - 1)] - a, band_1)  # the difference is >= 0
        hi = np.where(open_ & rises, mid, hi)
        lo = np.where(open_ & ~rises, mid + 1, lo)
    stop = lo
    tail = stop < n
    d = np.minimum.accumulate(b[::-1])[::-1][stop[tail]] - b[tail]
    if not ((d > 0) & ~_ties(d, band_2)).all():
        return False
    window = start < stop
    low, high = _range_extremes(b, start[window], stop[window])
    return bool((_ties(low - b[window], band_2) & _ties(high - b[window], band_2)).all())


def same_order_oracle(
    mdp: TabularMdp,
    reward_1: np.ndarray,
    reward_2: np.ndarray,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> bool:
    """True iff the two rewards rank every tested policy pair the same way.

    Checks all enumerated deterministic policy pairs, by the sort-and-sweep
    ``_same_signs``, plus 200 seeded random stochastic pairs.  Under each
    reward, return differences within ``SIGN_BAND`` times its largest
    deterministic |return| count as ties, so the verdict does not depend on
    the rewards' scale.  Each policy set is evaluated under both rewards in
    one stacked solve.
    """
    expected = _expected_rewards(mdp, reward_1, reward_2)
    j1, j2 = _deterministic_returns(mdp, expected, cap)
    band_1, band_2 = SIGN_BAND * np.abs(j1).max(), SIGN_BAND * np.abs(j2).max()
    if not _same_signs(j1, j2, band_1, band_2):
        return False
    # Pair i is (policies[2i], policies[2i + 1]): the draws of a per-pair loop.
    rng = np.random.default_rng(seed)
    policies = rng.dirichlet(np.ones(mdp.n_actions), size=(2 * N_STOCHASTIC_PAIRS, mdp.n_states))
    returns = _stacked_returns(mdp, policies, expected)
    d1, d2 = returns[:, 0::2] - returns[:, 1::2]
    return bool((_signs(d1, band_1) == _signs(d2, band_2)).all())


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
