"""The stacked Bellman layer: a stack gives every item the bits of its own
N=1 solve, and the pair tables match their per-row definitions."""

import itertools

import numpy as np
import pytest

from starclab import (
    BehavioralModelSpec,
    ConvergenceError,
    InvalidInstance,
    ModelTable,
    apply_potential_shaping,
    materialize_model,
    optimal_values,
    random_mdp,
    random_reward,
    three_state_chain,
)
from starclab import _kernels, metric
from starclab.mdp import expected_reward, optimal_values_stack, reward_stack
from starclab.metric import distance_table
from starclab.robustness import _policy_gaps
from starclab.transforms import canonical_operator

KINDS = (
    {"kind": "optimal_uniform"},
    {"kind": "boltzmann", "beta": 1.3},
    {"kind": "mce", "alpha": 0.7},
)


def _specs(mdp):
    return [BehavioralModelSpec(environment=mdp, **kind) for kind in KINDS]


def _stack_with_duplicates(rng, n_states, n_actions):
    rewards = [rng.standard_normal((n_states, n_actions, n_states)) for _ in range(int(rng.integers(1, 6)))]
    rewards += [rewards[int(rng.integers(len(rewards)))].copy()]
    rewards.append(np.zeros((n_states, n_actions, n_states)))
    return np.stack(rewards)[rng.permutation(len(rewards))]


def test_stacked_models_match_single_solves_bit_for_bit():
    rng = np.random.default_rng(0)
    for case in range(36):
        n_states, n_actions = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        discount = float(rng.choice([0.5, 0.9, 0.99, 0.999]))
        mdp = random_mdp(case, n_states, n_actions, discount=discount)
        stack = _stack_with_duplicates(rng, n_states, n_actions)
        order = rng.permutation(len(stack))
        for spec in _specs(mdp):
            policies = spec.policies(stack)
            shuffled = spec.policies(stack[order])
            for i, reward in enumerate(stack):
                assert np.array_equal(policies[i], spec(reward)), (case, spec.kind, i)
            assert np.array_equal(shuffled, policies[order]), (case, spec.kind)


def test_stacked_kernels_match_single_solves_bit_for_bit():
    rng = np.random.default_rng(1)
    for case in range(24):
        n_states, n_actions = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        mdp = random_mdp(100 + case, n_states, n_actions, discount=float(rng.choice([0.9, 0.999])))
        er = expected_reward(mdp, _stack_with_duplicates(rng, n_states, n_actions))
        stacked = [
            _kernels.policy_iteration(er, mdp.transition, mdp.discount, 100_000),
            _kernels.soft_policy_iteration(er, mdp.transition, mdp.discount, 0.5, 1e-10, 100_000),
        ]
        for i in range(len(er)):
            single = [
                _kernels.value_iteration(er[i], mdp.transition, mdp.discount, 100_000),
                _kernels.soft_value_iteration(er[i], mdp.transition, mdp.discount, 0.5, 1e-10, 100_000),
            ]
            for (v, q, rounds, resid), (v_1, q_1, rounds_1, resid_1) in zip(stacked, single):
                assert np.array_equal(v[i], v_1) and np.array_equal(q[i], q_1)
                assert rounds[i] == rounds_1 and resid[i] == resid_1
                assert isinstance(rounds_1, int)


def test_mixed_reward_scales_keep_per_item_floors():
    # A floor or kappa shared across the stack would take the largest item's
    # scale and turn the small items' policies into ties.
    mdp = random_mdp(7, 5, 3, discount=0.99)
    rng = np.random.default_rng(7)
    scales = 10.0 ** np.arange(-12, 13, 2)
    base = [rng.standard_normal((5, 3, 5)) for _ in scales]
    stack = np.stack([c * r for c, r in zip(scales, base)])
    for spec in _specs(mdp):
        policies = spec.policies(stack)
        for i, reward in enumerate(stack):
            assert np.array_equal(policies[i], spec(reward)), (spec.kind, scales[i])
    uniform = _specs(mdp)[0].policies(stack)
    for policy, reward in zip(uniform, base):
        assert np.array_equal(policy, _specs(mdp)[0](reward))


def test_exact_ties_inside_a_stack():
    chain = three_state_chain(0.9)
    tie = np.zeros((3, 2, 3))
    tie[:, :, 2] = 1.0  # both actions of s1 and of s2 tie exactly
    flat = np.zeros((3, 2, 3))
    stack = np.stack([random_reward(3, 3, 2), tie, flat, 1e6 * tie, tie])
    _, q = optimal_values_stack(chain, stack)
    for i in (1, 3, 4):
        assert q[i, 1, 0] == q[i, 1, 1] and q[i, 2, 0] == q[i, 2, 1]
    uniform = BehavioralModelSpec("optimal_uniform", chain).policies(stack)
    for i in (1, 3, 4):
        np.testing.assert_array_equal(uniform[i], [[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_array_equal(uniform[2], np.full((3, 2), 0.5))
    rounds = _kernels.policy_iteration(expected_reward(chain, stack), chain.transition, 0.9, 100_000)[2]
    assert rounds[2] == 1 and rounds.max() <= 2


def _slow_reward(mdp):
    """A reward whose policy iteration needs more than one round on ``mdp``."""
    for seed in itertools.count():
        reward = random_reward(seed, mdp.n_states, mdp.n_actions)
        if _kernels.value_iteration(expected_reward(mdp, reward), mdp.transition, mdp.discount, 100_000)[2] > 1:
            return reward


def test_convergence_failure_on_one_item_of_a_stack(monkeypatch):
    mdp = random_mdp(7, 5, 3, discount=0.99)
    slow = _slow_reward(mdp)
    flat = np.zeros_like(slow)
    policy_iteration = _kernels.policy_iteration
    monkeypatch.setattr(_kernels, "policy_iteration", lambda er, t, d, _: policy_iteration(er, t, d, 1))
    with pytest.raises(ConvergenceError) as single:
        optimal_values(mdp, slow)
    with pytest.raises(ConvergenceError, match="policy iteration did not converge in 1 rounds") as stacked:
        optimal_values_stack(mdp, np.stack([flat, flat, slow, slow]))
    assert stacked.value.item == 2
    assert stacked.value.residual == single.value.residual
    v, _ = optimal_values_stack(mdp, np.stack([flat, flat]))
    assert not v.any()


def test_materialize_names_the_first_failing_hypothesis(monkeypatch):
    mdp = random_mdp(7, 5, 3, discount=0.99)
    slow, flat, bad = _slow_reward(mdp), np.zeros((5, 3, 5)), np.full((5, 3, 5), np.nan)
    spec = BehavioralModelSpec("boltzmann", mdp, beta=1.0)
    with pytest.raises(InvalidInstance, match="model failed on reward 'nan'.*non-finite"):
        materialize_model(spec, [("flat", flat), ("nan", bad), ("slow", slow)])
    with pytest.raises(InvalidInstance, match="model failed on reward 'short'.*shape"):
        materialize_model(spec, [("flat", flat), ("short", flat[:4, :, :4])])

    policy_iteration = _kernels.policy_iteration
    monkeypatch.setattr(_kernels, "policy_iteration", lambda er, t, d, _: policy_iteration(er, t, d, 1))
    with pytest.raises(ConvergenceError) as single:
        optimal_values(mdp, slow)
    with pytest.raises(ConvergenceError, match="model failed on reward 'slow': policy iteration did not converge") as err:
        materialize_model(spec, [("flat", flat), ("slow", slow), ("nan", bad)])
    assert err.value.residual == single.value.residual
    assert err.value.item == 1
    with pytest.raises(InvalidInstance, match="model failed on reward 'nan'"):
        materialize_model(spec, [("flat", flat), ("nan", bad), ("slow", slow)])


def _gaps_by_rows(table_1, table_2):
    stack_1 = np.stack([policy.ravel() for _, policy in table_1.entries])
    stack_2 = np.stack([policy.ravel() for _, policy in table_2.entries])
    return np.stack([np.abs(stack_2 - policy).max(axis=1) for policy in stack_1])


def _distances_by_rows(mdp, rewards):
    _, _, units = metric._standardized(canonical_operator(mdp), reward_stack(mdp, rewards))
    return np.stack([0.5 * np.linalg.norm(units - unit, axis=1) for unit in units])


# 13 rows of 12 entries: one block, blocks of 3 rows with a short last one, single rows.
@pytest.mark.parametrize("block_elements", (metric.BLOCK_ELEMENTS, 500, 1))
def test_pair_tables_match_per_row_loops(monkeypatch, block_elements):
    monkeypatch.setattr(metric, "BLOCK_ELEMENTS", block_elements)
    mdp = random_mdp(11, 4, 3)
    rng = np.random.default_rng(11)
    rewards = [rng.standard_normal((4, 3, 4)) for _ in range(9)]
    rewards += [
        np.zeros((4, 3, 4)),
        apply_potential_shaping(mdp, np.zeros((4, 3, 4)), rng.standard_normal(4)),
        3.0 * rewards[0],
        -rewards[1],
    ]
    table = distance_table(mdp, rewards)
    assert np.abs(table - _distances_by_rows(mdp, rewards)).max() <= 1e-15
    assert np.abs(table[9:11, :9] - 0.5).max() <= 1e-15  # trivial rewards

    policies = BehavioralModelSpec("boltzmann", mdp, beta=1.0).policies(np.stack(rewards))
    f = ModelTable(tuple((f"r{i}", p) for i, p in enumerate(policies)))
    g = ModelTable(tuple((f"r{i}", p) for i, p in enumerate(policies[::-1])))
    for a, b in ((f, g), (f, f), (g, f)):
        assert np.array_equal(_policy_gaps(a, b), _gaps_by_rows(a, b))
