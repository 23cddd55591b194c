"""Relabelling states and actions, and rescaling rewards, change nothing the package computes.

The STARC distance, the behavioural models and the policy-ordering oracle
are defined without reference to how states and actions are numbered, so
renumbering both must leave distances and verdicts as they are and permute
policies the same way.  Each case is a random S=5, A=3 MDP with a random
permutation of its states and one of its actions, over random, zero,
rounded (tied) and scaled rewards.  The distance, and so the robustness
checker, must also read a reward the same at any positive scale a float
holds, and after potential shaping and redistribution; so must
``differ_by`` classify a pair.  And every certificate the discount,
transition and perturbation constructors return must be a pair at distance
1 that verifies, over discount gaps, policy gaps, reward scales and action
counts: where the metric cannot tell the pair apart, the constructor
refuses it with ``InvalidInstance``.
"""

from collections import Counter
from functools import partial

import numpy as np

from starclab import (
    BehavioralModelSpec,
    HypothesisSet,
    InvalidInstance,
    ModelTable,
    TabularMdp,
    apply_potential_shaping,
    apply_redistribution_noise,
    check_epsilon_robust,
    differ_by,
    discount_counterexample,
    distance_table,
    materialize_model,
    min_robust_epsilon,
    perturbation_counterexample,
    random_mdp,
    random_reward,
    same_order_oracle,
    transition_counterexample,
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


def test_distance_table_is_unchanged_at_any_scale():
    for mdp, rewards, _, _ in _cases():
        table = distance_table(mdp, list(rewards))
        for c in 10.0 ** np.arange(-300, 301, 50):
            assert np.abs(distance_table(mdp, list(c * rewards)) - table).max() <= 1e-12, c


def test_differ_by_verdicts_are_unchanged_at_any_scale():
    for i, (mdp, rewards, _, _) in enumerate(_cases()):
        reward = rewards[0]
        phi = np.random.default_rng(i).standard_normal(N_STATES)
        others = (random_reward(900 + i, N_STATES, N_ACTIONS), 2.0 * reward,
                  apply_potential_shaping(mdp, reward, phi), reward)
        verdicts = [differ_by(mdp, reward, other) for other in others]
        assert verdicts == ["neither", "also_positive_scaling", "shaping_and_redistribution", "identical"]
        for c in 10.0 ** np.arange(-300, 301, 50):
            assert [differ_by(mdp, c * reward, c * other) for other in others] == verdicts, c


def test_checker_verdicts_are_unchanged_by_scale_shaping_and_redistribution():
    for case, (mdp, _, _, _) in enumerate(_cases()):
        rewards = [random_reward(1000 + 10 * case + k, N_STATES, N_ACTIONS) for k in range(6)]
        ids = [f"r{k}" for k in range(6)]
        f = materialize_model(BehavioralModelSpec("boltzmann", mdp, beta=2.0), list(zip(ids, rewards)))
        g = ModelTable(tuple(zip(ids, f.policies[[1, 0, 3, 2, 5, 4]])))  # every g-policy is an f-policy
        hypotheses = HypothesisSet(tuple(zip(ids, rewards)))
        epsilon = min_robust_epsilon(f, g, hypotheses, mdp)
        assert 0.0 < epsilon < 1.0
        assert check_epsilon_robust(f, g, hypotheses, mdp, epsilon + 1e-6).robust
        assert not check_epsilon_robust(f, g, hypotheses, mdp, epsilon - 1e-6).robust
        rng = np.random.default_rng(case)
        for c in (1e-6, 1e6):
            moved = [
                apply_redistribution_noise(
                    mdp, c * apply_potential_shaping(mdp, r, rng.standard_normal(N_STATES)), seed=k, magnitude=c
                )
                for k, r in enumerate(rewards)
            ]
            other = HypothesisSet(tuple(zip(ids, moved)))
            assert abs(min_robust_epsilon(f, g, other, mdp) - epsilon) <= 1e-12, c
            assert check_epsilon_robust(f, g, other, mdp, epsilon + 1e-6).robust, c
            assert not check_epsilon_robust(f, g, other, mdp, epsilon - 1e-6).robust, c


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


def _constructor_cases():
    """(scenario, constructor call) over the grid of certificate inputs."""
    for n_actions in (1, 2, 3):
        mdp, other = random_mdp(40 + n_actions, 4, n_actions), random_mdp(50 + n_actions, 4, n_actions)
        for kind in ("boltzmann", "mce"):
            for gap in (5e-2, 1e-4, 1e-7, 1e-8, 1e-9):
                yield "discount", partial(discount_counterexample, mdp, 0.9, 0.9 + gap, model_kind=kind)
            yield "transition", partial(transition_counterexample, mdp, other, model_kind=kind)
            for delta in (1e-1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-200):
                for c in (1e-6, 1.0, 1e9):
                    yield "perturbation", partial(perturbation_counterexample, mdp, kind, c=c, delta=delta)


def test_every_certificate_is_at_distance_one_or_refused():
    built = Counter()
    for scenario, construct in _constructor_cases():
        try:
            cert = construct()
        except InvalidInstance:
            continue
        assert abs(cert.distance - 1.0) <= 1e-6 and cert.verify(), (scenario, construct)
        built[scenario] += 1
    # Two actions or more, both models: discount gaps down to 1e-8, and
    # perturbations with delta down to 1e-6 at c of 1e-6 and 1, build.
    assert built["discount"] >= 2 * 2 * 4 and built["transition"] == 2 * 2 and built["perturbation"] >= 2 * 2 * 3 * 2
