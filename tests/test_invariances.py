"""Relabelling states and actions changes nothing the package computes.

The STARC distance, the behavioural models and the policy-ordering oracle
are defined without reference to how states and actions are numbered, so
renumbering both must leave distances and verdicts as they are and permute
policies the same way.  Each case is a random S=5, A=3 MDP with a random
permutation of its states and one of its actions, over random, zero,
rounded (tied) and scaled rewards.
"""

import numpy as np

from starclab import (
    BehavioralModelSpec,
    TabularMdp,
    apply_potential_shaping,
    distance_table,
    random_mdp,
    random_reward,
    same_order_oracle,
)

N_CASES = 40
N_STATES, N_ACTIONS = 5, 3
MODELS = (("optimal_uniform", {}), ("boltzmann", {"beta": 2.0}), ("mce", {"alpha": 1.0}))


def _cases():
    for seed in range(N_CASES):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(700 + seed, N_STATES, N_ACTIONS, discount=(0.5, 0.9, 0.99)[seed % 3])
        reward = random_reward(800 + seed, N_STATES, N_ACTIONS)
        rewards = np.stack([reward, np.zeros_like(reward), np.round(reward), 1e-6 * reward, 1e6 * reward])
        states, actions = rng.permutation(N_STATES), rng.permutation(N_ACTIONS)
        relabelled = TabularMdp(
            mdp.transition[np.ix_(states, actions, states)], mdp.initial_dist[states], mdp.discount
        )
        yield mdp, rewards, relabelled, (states, actions)


def _relabel(rewards, states, actions):
    """Rewards (..., S, A, S) with states and actions renumbered."""
    return rewards[..., states, :, :][..., actions, :][..., states]


def test_distance_table_is_unchanged():
    for mdp, rewards, relabelled, perm in _cases():
        table = distance_table(mdp, list(rewards))
        assert np.abs(distance_table(relabelled, list(_relabel(rewards, *perm))) - table).max() <= 1e-12


def test_model_policies_are_permuted():
    for mdp, rewards, relabelled, (states, actions) in _cases():
        for kind, weight in MODELS:
            policies = BehavioralModelSpec(kind, mdp, **weight).policies(rewards)
            moved = BehavioralModelSpec(kind, relabelled, **weight).policies(_relabel(rewards, states, actions))
            assert np.abs(moved - policies[:, states][:, :, actions]).max() <= 1e-12, kind


def test_same_order_verdicts_are_unchanged():
    verdicts = []
    for i, (mdp, rewards, relabelled, perm) in enumerate(_cases()):
        reward = rewards[0]
        phi = np.random.default_rng(i).standard_normal(N_STATES)
        pairs = {
            "shaped": (reward, 3.0 * apply_potential_shaping(mdp, reward, phi)),
            "negated": (reward, -reward),
            "random": (reward, random_reward(900 + i, N_STATES, N_ACTIONS)),
        }
        for name, pair in pairs.items():
            verdict = same_order_oracle(mdp, *pair)
            assert same_order_oracle(relabelled, *_relabel(np.stack(pair), *perm)) == verdict, name
            verdicts.append((name, verdict))
    assert all(verdict for name, verdict in verdicts if name == "shaped")
    assert not any(verdict for name, verdict in verdicts if name == "negated")
