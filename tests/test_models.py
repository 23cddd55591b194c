import itertools
import math
import pickle
import re

import numpy as np
import pytest

from starclab import (
    BehavioralModelSpec,
    InvalidInstance,
    apply_potential_shaping,
    apply_redistribution_noise,
    boltzmann_policy,
    materialize_model,
    mce_policy,
    optimal_policy_uniform,
    policy_return,
    random_mdp,
    random_reward,
)
from starclab import models
from starclab.models import MODEL_KINDS, ModelTable
from starclab.oracles import enumerate_deterministic_policies


class TestOptimalUniform:
    def test_zero_reward_uniform(self, mdp_4x3):
        policy = optimal_policy_uniform(mdp_4x3, np.zeros((4, 3, 4)))
        assert np.abs(policy - 1.0 / 3.0).max() < 1e-12

    def test_single_state_deterministic(self, one_state_mdp):
        mdp = one_state_mdp(2)
        reward = np.zeros((1, 2, 1))
        reward[0, 0, 0] = 1.0
        assert np.array_equal(optimal_policy_uniform(mdp, reward), [[1.0, 0.0]])

    def test_achieves_enumerated_maximum(self):
        mdp = random_mdp(30, 3, 3)
        reward = random_reward(31, 3, 3)
        policy = optimal_policy_uniform(mdp, reward)
        best = max(
            policy_return(mdp, reward, p) for p in enumerate_deterministic_policies(mdp)
        )
        assert policy_return(mdp, reward, policy) >= best - 1e-8

    def test_scaling_preserves_support(self, mdp_4x3, reward_4x3):
        base = optimal_policy_uniform(mdp_4x3, reward_4x3) > 0
        for c in (0.1, 10.0):
            assert np.array_equal(optimal_policy_uniform(mdp_4x3, c * reward_4x3) > 0, base)

    def test_policy_is_scale_free(self):
        # c * R has R's optimal policy at every magnitude, ties included.
        for seed, discount in itertools.product(range(20), (0.5, 0.9, 0.99)):
            mdp = random_mdp(seed, 4, 3, discount=discount)
            reward = random_reward(1000 + seed, 4, 3)
            base = optimal_policy_uniform(mdp, reward)
            for c in 10.0 ** np.arange(-12, 13, 3):
                np.testing.assert_array_equal(optimal_policy_uniform(mdp, c * reward), base)


class TestBoltzmann:
    def test_zero_reward_uniform(self, mdp_4x3):
        assert np.abs(boltzmann_policy(mdp_4x3, np.zeros((4, 3, 4)), 1.0) - 1 / 3).max() < 1e-12

    def test_single_state_analytic(self, one_state_mdp):
        mdp = one_state_mdp(2, discount=0.9)
        reward = np.zeros((1, 2, 1))
        reward[0, 0, 0] = 1.0
        policy = boltzmann_policy(mdp, reward, 1.0)
        e = math.e
        assert policy[0] == pytest.approx([e / (1 + e), 1 / (1 + e)], abs=1e-8)

    def test_rescaling_identity(self, mdp_4x3, reward_4x3):
        c = 3.0
        gap = np.abs(
            boltzmann_policy(mdp_4x3, reward_4x3, 1.0)
            - boltzmann_policy(mdp_4x3, c * reward_4x3, 1.0 / c)
        ).max()
        assert gap < 1e-8

    def test_large_beta_concentrates_on_argmax(self):
        mdp = random_mdp(33, 3, 2)
        reward = 5.0 * random_reward(34, 3, 2)
        from starclab.mdp import optimal_values

        _, q = optimal_values(mdp, reward)
        gaps = np.sort(q, axis=1)[:, -1] - np.sort(q, axis=1)[:, -2]
        assert gaps.min() >= 0.1  # instance chosen to have clear argmax gaps
        policy = boltzmann_policy(mdp, reward, 1e4)
        argmax_mass = policy[np.arange(3), q.argmax(axis=1)]
        assert argmax_mass.min() > 1 - 1e-3

    def test_lipschitz_probe(self, mdp_4x3, reward_4x3):
        beta = 2.0
        bump = 1e-6 * np.ones((4, 3, 4)) / np.linalg.norm(np.ones((4, 3, 4)))
        diff = np.linalg.norm(
            boltzmann_policy(mdp_4x3, reward_4x3, beta)
            - boltzmann_policy(mdp_4x3, reward_4x3 + bump, beta)
        )
        assert diff <= 10 * beta * 1e-6


class TestMce:
    def test_zero_reward_uniform(self, mdp_4x3):
        assert np.abs(mce_policy(mdp_4x3, np.zeros((4, 3, 4)), 1.0) - 1 / 3).max() < 1e-12

    def test_rescaling_identity(self, mdp_4x3, reward_4x3):
        c = 3.0
        gap = np.abs(
            mce_policy(mdp_4x3, reward_4x3, 1.0) - mce_policy(mdp_4x3, c * reward_4x3, c)
        ).max()
        assert gap < 1e-8

    def test_shaping_redistribution_invariance(self, mdp_4x3, reward_4x3):
        moved = apply_potential_shaping(mdp_4x3, reward_4x3, np.arange(4.0))
        moved = apply_redistribution_noise(mdp_4x3, moved, seed=4, magnitude=1.0)
        gap = np.abs(mce_policy(mdp_4x3, reward_4x3, 1.0) - mce_policy(mdp_4x3, moved, 1.0)).max()
        assert gap < 1e-6

    def test_invalid_weight(self, mdp_4x3, reward_4x3):
        with pytest.raises(InvalidInstance):
            mce_policy(mdp_4x3, reward_4x3, 0.0)

    def test_reward_far_above_the_weight(self):
        # q / alpha near 1e21: exp((q - v) / alpha) with the evaluated v overflows.
        for seed in range(5):
            mdp, reward = random_mdp(seed, 4, 3), random_reward(seed, 4, 3)
            for r, alpha in ((reward, 1e-21), (1e12 * reward, 1e-9)):
                policy = mce_policy(mdp, r, alpha)
                assert np.isfinite(policy).all() and np.abs(policy.sum(axis=1) - 1.0).max() <= 1e-12
            for c in (1e-6, 1e6):
                assert np.abs(mce_policy(mdp, c * reward, c * 1e-21) - mce_policy(mdp, reward, 1e-21)).max() <= 1e-9


class TestSpecAndMaterialize:
    def test_spec_json_round_trip(self, mdp_4x3):
        spec = BehavioralModelSpec("boltzmann", mdp_4x3, beta=2.5)
        again = BehavioralModelSpec.from_dict(spec.to_dict(), mdp_4x3)
        assert again.kind == "boltzmann" and again.beta == 2.5

    def test_invalid_parameters(self, mdp_4x3):
        with pytest.raises(InvalidInstance):
            BehavioralModelSpec("boltzmann", mdp_4x3, beta=-1.0)
        with pytest.raises(InvalidInstance):
            BehavioralModelSpec("mystery", mdp_4x3)

    def test_materialize_consistent_with_direct_calls(self, mdp_4x3, reward_4x3):
        spec = BehavioralModelSpec("mce", mdp_4x3, alpha=1.0)
        table = materialize_model(spec, [("a", reward_4x3), ("b", reward_4x3.copy())])
        assert np.array_equal(table.policy("a"), table.policy("b"))
        assert np.array_equal(table.policy("a"), mce_policy(mdp_4x3, reward_4x3, 1.0))

    def test_materialize_rejects_empty(self, mdp_4x3):
        spec = BehavioralModelSpec("optimal_uniform", mdp_4x3)
        with pytest.raises(InvalidInstance):
            materialize_model(spec, [])

    def test_materialize_reports_offending_id(self, mdp_4x3):
        spec = BehavioralModelSpec("optimal_uniform", mdp_4x3)
        bad = np.full((4, 3, 4), np.nan)
        with pytest.raises(InvalidInstance, match="bad-reward"):
            materialize_model(spec, [("bad-reward", bad)])


class TestModelKinds:
    WEIGHTS = {"optimal_uniform": {}, "boltzmann": {"beta": 2.5}, "mce": {"alpha": 0.7}}

    def test_every_kind_round_trips_and_solves_as_its_function(self, mdp_4x3, reward_4x3):
        singles = {
            "optimal_uniform": lambda: optimal_policy_uniform(mdp_4x3, reward_4x3),
            "boltzmann": lambda: boltzmann_policy(mdp_4x3, reward_4x3, 2.5),
            "mce": lambda: mce_policy(mdp_4x3, reward_4x3, 0.7),
        }
        assert set(MODEL_KINDS) == set(self.WEIGHTS) == set(singles)
        for kind, weights in self.WEIGHTS.items():
            spec = BehavioralModelSpec(kind, mdp_4x3, **weights)
            assert spec.to_dict() == {"kind": kind, **weights}
            assert BehavioralModelSpec.from_dict(spec.to_dict(), mdp_4x3) == spec
            assert np.array_equal(spec(reward_4x3), singles[kind]())

    def test_weight_rule(self, mdp_4x3, reward_4x3):
        # A weight is a finite positive real number: not a bool, a string, NaN,
        # an infinity, zero, a negative number or an int beyond the float range.
        for bad in (True, False, "2", None, math.nan, math.inf, 0, 0.0, -4, 10**400, np.float64(-1.0)):
            with pytest.raises(InvalidInstance, match="model.beta: must be a finite positive number"):
                BehavioralModelSpec("boltzmann", mdp_4x3, beta=bad)
            with pytest.raises(InvalidInstance, match="model.alpha: must be a finite positive number"):
                BehavioralModelSpec("mce", mdp_4x3, alpha=bad)
            with pytest.raises(InvalidInstance, match="beta"):
                boltzmann_policy(mdp_4x3, reward_4x3, bad)
            with pytest.raises(InvalidInstance, match="alpha"):
                mce_policy(mdp_4x3, reward_4x3, bad)
        for good in (1, 2.5, np.int64(3), np.float32(0.5), 1e-300):
            BehavioralModelSpec("boltzmann", mdp_4x3, beta=good)
        # A weight the kind does not read is neither checked nor serialized.
        spec = BehavioralModelSpec("mce", mdp_4x3, beta=-4, alpha=1.0)
        assert spec.to_dict() == {"kind": "mce", "alpha": 1.0}

    def test_single_reward_functions_go_through_the_spec(self, mdp_4x3, reward_4x3, monkeypatch):
        for call, path in (
            (lambda bad: boltzmann_policy(mdp_4x3, reward_4x3, bad), "model.beta"),
            (lambda bad: mce_policy(mdp_4x3, reward_4x3, bad), "model.alpha"),
        ):
            for bad in (0.0, -1.0, math.nan, True, "1"):
                with pytest.raises(InvalidInstance, match=rf"^{re.escape(path)}: must be a finite positive number"):
                    call(bad)
        documents, check = [], models.check_model_document

        def spy(data, path="model"):
            documents.append(data)
            return check(data, path)

        monkeypatch.setattr(models, "check_model_document", spy)
        optimal_policy_uniform(mdp_4x3, reward_4x3)
        boltzmann_policy(mdp_4x3, reward_4x3, 2.5)
        mce_policy(mdp_4x3, reward_4x3, 0.7)
        assert documents == [{"kind": "optimal_uniform"}, {"kind": "boltzmann", "beta": 2.5}, {"kind": "mce", "alpha": 0.7}]

    def test_from_dict_refuses_malformed_documents(self, mdp_4x3):
        for data, path in (
            ("boltzmann", "model:"),
            (None, "model:"),
            ({"beta": 1.0}, "model.kind: unknown model kind None"),
            ({"kind": "mystery"}, "model.kind: unknown model kind 'mystery'"),
            ({"kind": ["boltzmann"]}, "model.kind: unknown model kind"),
            ({"kind": "boltzmann", "beta": 1.0, "temperature": 2.0}, "model.temperature: not read"),
            ({"kind": "mce", "alpha": 1.0, "beta": 1.0}, "model.beta: not read"),
            ({"kind": "optimal_uniform", "alpha": 1.0}, "model.alpha: not read"),
            ({"kind": "boltzmann"}, "model.beta: must be"),
            ({"kind": "mce", "alpha": "1"}, "model.alpha: must be"),
        ):
            with pytest.raises(InvalidInstance, match=re.escape(path)):
                BehavioralModelSpec.from_dict(data, mdp_4x3)


class TestModelTable:
    def test_refuses_non_finite_policies_naming_the_id(self, mdp_4x3, reward_4x3):
        policy = boltzmann_policy(mdp_4x3, reward_4x3, 1.0)
        for bad in (np.nan, np.inf):
            broken = policy.copy()
            broken[2, 1] = bad
            with pytest.raises(InvalidInstance, match="policy 'c' must be finite"):
                ModelTable((("a", policy), ("b", policy), ("c", broken)))

    def test_refuses_policies_not_2d_or_of_mixed_shapes(self, mdp_4x3, reward_4x3):
        policy = boltzmann_policy(mdp_4x3, reward_4x3, 1.0)
        for bad in (policy.ravel(), policy[None], policy.T, policy[:3]):
            with pytest.raises(InvalidInstance, match="policy 'b'"):
                ModelTable((("a", policy), ("b", bad)))
        with pytest.raises(InvalidInstance, match="policy 'a'"):
            ModelTable((("a", policy.ravel()), ("b", policy.ravel())))
        with pytest.raises(InvalidInstance, match="at least one policy"):
            ModelTable(())
        table = ModelTable((("a", policy), ("b", 2 * policy)))
        assert table.policies.shape == (2, 4, 3) and table.flat.shape == (2, 12)

    def test_refuses_ragged_or_non_numeric_policies_naming_the_id(self, mdp_4x3, reward_4x3):
        policy = boltzmann_policy(mdp_4x3, reward_4x3, 1.0)
        ragged = policy.tolist()
        ragged[1] = ragged[1][:2]
        words = policy.tolist()
        words[0][0] = "x"
        for bad in (ragged, words):
            with pytest.raises(InvalidInstance, match="policy 'b' is ragged or not numeric"):
                ModelTable((("a", policy), ("b", bad)))

    def test_refuses_repeated_ids(self, mdp_4x3, reward_4x3):
        policy = boltzmann_policy(mdp_4x3, reward_4x3, 1.0)
        with pytest.raises(InvalidInstance, match="ids must be unique"):
            ModelTable((("a", policy), ("b", policy), ("a", policy)))

    def test_pickle_round_trip(self, mdp_4x3):
        policies = [boltzmann_policy(mdp_4x3, random_reward(80 + k, 4, 3), 1.0) for k in range(3)]
        table = ModelTable(tuple(zip("abc", policies)))
        copy = pickle.loads(pickle.dumps(table))
        assert copy.ids == table.ids == ("a", "b", "c")
        assert np.array_equal(copy.policies, table.policies) and np.array_equal(copy.policy("b"), policies[1])
        assert np.array_equal(copy.self_gaps, table.self_gaps)

    def test_self_gaps_are_a_read_only_snapshot(self, mdp_4x3):
        policies = [boltzmann_policy(mdp_4x3, random_reward(80 + k, 4, 3), 1.0) for k in range(3)]
        table = ModelTable(tuple(zip("abc", policies)))
        gaps = table.self_gaps
        want = [[float(np.abs(p - q).max()) for q in policies] for p in policies]
        assert gaps.tolist() == want
        assert table.self_gaps is gaps and not gaps.flags.writeable
        policies[0][...] = policies[1]  # the caller's array, after the table was made
        assert ModelTable(tuple(zip("abc", policies))).self_gaps[0, 1] == 0.0
        assert table.self_gaps[0, 1] == want[0][1] > 0.0
