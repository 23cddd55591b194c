"""The exact Bellman solvers against plain value iteration and their own residuals."""

import itertools

import numpy as np
import pytest

from starclab import (
    ConvergenceError,
    mce_policy,
    optimal_policy_uniform,
    optimal_values,
    random_mdp,
    random_reward,
    three_state_chain,
)
from starclab import _kernels
from starclab._kernels import soft_value_iteration, value_iteration
from starclab.mdp import expected_reward

from _reference import value_iteration_oracle

TOL = 1e-10
ORACLE_TOL = 1e-12
DISCOUNTS = (0.5, 0.9, 0.99, 0.999)
WEIGHTS = (1e-3, 1.0, 100.0)


def _instance(seed, discount=0.9, n_states=5, n_actions=3):
    mdp = random_mdp(seed, n_states, n_actions, discount=discount)
    reward = random_reward(seed + 1, n_states, n_actions)
    return mdp, reward, expected_reward(mdp, reward)


def _soft_backup(q, weight):
    m = q.max(axis=1)
    return m + weight * np.log(np.exp((q - m[:, None]) / weight).sum(axis=1))


def test_policy_iteration_matches_value_iteration_oracle():
    for discount, seed in itertools.product(DISCOUNTS, range(2)):
        mdp, reward, er = _instance(seed, discount)
        v, q, rounds, resid = value_iteration(er, mdp.transition, discount, 100_000)
        assert resid <= TOL
        assert rounds <= 10
        assert np.abs(q.max(axis=1) - v).max() <= TOL
        oracle = value_iteration_oracle(mdp, reward, tol=ORACLE_TOL)
        assert np.abs(v - oracle).max() <= (TOL + ORACLE_TOL) / (1 - discount)


def test_soft_policy_iteration_matches_value_iteration_oracle():
    for discount, weight, seed in itertools.product(DISCOUNTS, WEIGHTS, range(2)):
        mdp, reward, er = _instance(seed, discount)
        v, q, rounds, resid = soft_value_iteration(er, mdp.transition, discount, weight, TOL, 100_000)
        assert resid <= TOL
        assert rounds <= 10
        assert np.abs(_soft_backup(q, weight) - v).max() <= TOL
        oracle = value_iteration_oracle(mdp, reward, weight, tol=ORACLE_TOL)
        assert np.abs(v - oracle).max() <= (TOL + ORACLE_TOL) / (1 - discount)


def test_wrappers_return_consistent_q_and_residual():
    mdp, _, er = _instance(9)
    v, q, iters, resid = value_iteration(er, mdp.transition, mdp.discount, 100_000)
    assert resid < 1e-10
    assert iters > 0
    assert np.abs(q - (er + mdp.discount * (mdp.transition @ v))).max() < 1e-12

    v, q, _, resid = soft_value_iteration(er, mdp.transition, mdp.discount, 0.7, 1e-10, 100_000)
    assert resid < 1e-10
    assert np.abs(_soft_backup(q, 0.7) - v).max() < 1e-10


def test_near_one_discount_converges_in_few_rounds():
    mdp, _, er = _instance(3, 0.999, n_states=100, n_actions=5)
    for solve in (
        lambda: value_iteration(er, mdp.transition, mdp.discount, 100_000),
        lambda: soft_value_iteration(er, mdp.transition, mdp.discount, 1.0, TOL, 100_000),
    ):
        _, _, rounds, resid = solve()
        assert rounds <= 10
        assert resid <= TOL


def test_exact_ties_terminate_with_uniform_support():
    chain = three_state_chain(0.9)
    reward = np.zeros((3, 2, 3))
    reward[:, :, 2] = 1.0  # both actions of s1 and of s2 tie exactly
    er = expected_reward(chain, reward)
    _, q, rounds, resid = value_iteration(er, chain.transition, chain.discount, 100_000)
    assert rounds <= 2
    assert resid <= TOL
    assert q[1, 0] == q[1, 1] and q[2, 0] == q[2, 1]
    policy = optimal_policy_uniform(chain, reward)
    np.testing.assert_array_equal(policy, [[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])

    flat = np.zeros((3, 2, 3))
    assert value_iteration(expected_reward(chain, flat), chain.transition, 0.9, 100_000)[2] == 1
    np.testing.assert_array_equal(optimal_policy_uniform(chain, flat), np.full((3, 2), 0.5))
    np.testing.assert_allclose(mce_policy(chain, flat, 1.0), np.full((3, 2), 0.5), atol=1e-12)


def test_round_budget_exhaustion_raises(monkeypatch):
    mdp, reward, er = _instance(7, 0.99)
    assert value_iteration(er, mdp.transition, mdp.discount, 100_000)[2] > 1
    assert soft_value_iteration(er, mdp.transition, mdp.discount, 1.0, TOL, 100_000)[2] > 1
    policy_iteration, soft_policy_iteration = _kernels.policy_iteration, _kernels.soft_policy_iteration
    monkeypatch.setattr(_kernels, "policy_iteration", lambda er, t, d, _: policy_iteration(er, t, d, 1))
    monkeypatch.setattr(
        _kernels, "soft_policy_iteration", lambda er, t, d, w, tol, _: soft_policy_iteration(er, t, d, w, tol, 1)
    )
    with pytest.raises(ConvergenceError, match="policy iteration did not converge in 1 rounds"):
        optimal_values(mdp, reward)
    with pytest.raises(ConvergenceError, match="soft policy iteration did not converge in 1 rounds"):
        mce_policy(mdp, reward, 1.0)


def test_evaluation_always_checks_its_residual(monkeypatch):
    mdp, _, er = _instance(11)
    policies = np.full((2, mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)
    _kernels.evaluate(mdp.transition, mdp.discount, policies, er[None])  # the exact solve passes
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    with pytest.raises(ConvergenceError, match="policy evaluation") as info:
        _kernels.evaluate(mdp.transition, mdp.discount, policies, er[None])
    assert info.value.residual > _kernels.DEFAULT_DP_TOL


@pytest.mark.parametrize("scale", (1e6, 1e9))
def test_reward_scale_reaches_roundoff_floor(scale):
    mdp, reward, _ = _instance(4, 0.99)
    v, q = optimal_values(mdp, scale * reward)
    v_unit, _ = optimal_values(mdp, reward)
    np.testing.assert_allclose(v, scale * v_unit, rtol=1e-9, atol=1e-9 * scale)
    policy = mce_policy(mdp, scale * reward, scale)
    np.testing.assert_allclose(policy, mce_policy(mdp, reward, 1.0), atol=1e-9)
