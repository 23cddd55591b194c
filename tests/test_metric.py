import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starclab import (
    apply_potential_shaping,
    apply_redistribution_noise,
    canonicalize,
    random_mdp,
    random_reward,
    regret_gap,
    standardize,
    starc_distance,
)
from starclab.metric import distance_table, is_trivial
from starclab.transforms import project_invariant


class TestCanonicalize:
    def test_constant_reward_canonical_zero(self, mdp_4x3):
        canon = canonicalize(mdp_4x3, np.full((4, 3, 4), 4.2))
        assert canon.norm < 1e-9

    def test_invariant_to_shaping_and_redistribution(self, mdp_4x3, reward_4x3):
        moved = apply_potential_shaping(mdp_4x3, reward_4x3, np.arange(4.0))
        moved = apply_redistribution_noise(mdp_4x3, moved, seed=3, magnitude=1.5)
        a = canonicalize(mdp_4x3, reward_4x3).canonical
        b = canonicalize(mdp_4x3, moved).canonical
        assert np.linalg.norm(a - b) < 1e-8

    def test_idempotent(self, mdp_4x3, reward_4x3):
        once = canonicalize(mdp_4x3, reward_4x3).canonical
        twice = canonicalize(mdp_4x3, once).canonical
        assert np.linalg.norm(once - twice) < 1e-8

    def test_canonical_orthogonal_to_invariance_subspace(self, mdp_4x3, reward_4x3):
        canon = canonicalize(mdp_4x3, reward_4x3).canonical
        assert np.linalg.norm(project_invariant(mdp_4x3, canon)) < 1e-8


class TestStandardize:
    def test_trivial_reward_maps_to_zero(self, mdp_4x3):
        assert not standardize(mdp_4x3, np.full((4, 3, 4), -1.3)).any()
        assert is_trivial(mdp_4x3, np.zeros((4, 3, 4)))

    def test_unit_norm(self, mdp_4x3, reward_4x3):
        assert np.linalg.norm(standardize(mdp_4x3, reward_4x3)) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self, mdp_4x3, reward_4x3):
        a = standardize(mdp_4x3, reward_4x3)
        b = standardize(mdp_4x3, 7.0 * reward_4x3)
        assert np.abs(a - b).max() < 1e-12


class TestDistance:
    def test_positive_scaling_distance_zero(self, mdp_4x3, reward_4x3):
        assert starc_distance(mdp_4x3, reward_4x3, 3.0 * reward_4x3).distance < 1e-8

    def test_negation_distance_one(self, mdp_4x3, reward_4x3):
        unit = standardize(mdp_4x3, reward_4x3)
        assert starc_distance(mdp_4x3, unit, -unit).distance == pytest.approx(1.0, abs=1e-8)

    def test_trivial_distance_half(self, mdp_4x3, reward_4x3):
        report = starc_distance(mdp_4x3, reward_4x3, np.full((4, 3, 4), 1.0))
        assert report.distance == pytest.approx(0.5, abs=1e-8)
        assert report.canonical_norm_2 < 1e-9
        assert report.cosine == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-12.0, 12.0))
    @example(-12.0)
    @example(12.0)
    def test_scale_invariance_at_every_magnitude(self, exponent):
        mdp = random_mdp(6, 4, 3)
        reward = random_reward(7, 4, 3)
        c = 10.0**exponent
        assert starc_distance(mdp, reward, c * reward).distance == pytest.approx(0.0, abs=1e-12)
        assert starc_distance(mdp, c * reward, -c * reward).distance == pytest.approx(1.0, abs=1e-12)
        assert not is_trivial(mdp, c * reward)
        assert is_trivial(mdp, np.full((4, 3, 4), 2.5 * c))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_pseudometric_axioms(self, seed):
        mdp = random_mdp(17, 4, 2)
        rng = np.random.default_rng(seed)
        r = [rng.standard_normal((4, 2, 4)) for _ in range(3)]
        d01 = starc_distance(mdp, r[0], r[1]).distance
        d10 = starc_distance(mdp, r[1], r[0]).distance
        d02 = starc_distance(mdp, r[0], r[2]).distance
        d12 = starc_distance(mdp, r[1], r[2]).distance
        assert d01 == d10
        assert starc_distance(mdp, r[0], r[0]).distance < 1e-12
        assert d02 <= d01 + d12 + 1e-9
        assert -1e-12 <= d01 <= 1 + 1e-12


class TestDistanceTable:
    def test_matches_pairwise_distances(self):
        mdp = random_mdp(30, 5, 3)
        rng = np.random.default_rng(31)
        base = [rng.standard_normal((5, 3, 5)) for _ in range(4)]
        rewards = base + [
            2.0 * apply_potential_shaping(mdp, base[0], rng.standard_normal(5)),
            -base[1],
            1e-9 * base[2],
            np.zeros((5, 3, 5)),
            np.full((5, 3, 5), 3.0),
            apply_potential_shaping(mdp, np.zeros((5, 3, 5)), rng.standard_normal(5)),
        ]
        table = distance_table(mdp, rewards)
        pairwise = np.array([[starc_distance(mdp, a, b).distance for b in rewards] for a in rewards])
        assert table.shape == (10, 10)
        assert np.abs(table - pairwise).max() <= 1e-12
        assert np.array_equal(table, table.T)
        assert not np.diag(table).any()
        # The last three rewards are trivial: 0.5 from the rest, 0 among themselves.
        assert np.allclose(table[:7, 7:], 0.5, atol=1e-12)
        assert np.abs(table[7:, 7:]).max() <= 1e-12
        assert table[0, 4] < 1e-12

    def test_single_reward(self, mdp_4x3, reward_4x3):
        assert distance_table(mdp_4x3, [reward_4x3]).tolist() == [[0.0]]


class TestRegretGap:
    def test_equal_rewards_zero_regret(self):
        mdp = random_mdp(20, 3, 2)
        reward = random_reward(21, 3, 2)
        regret, witness = regret_gap(mdp, reward, reward)
        assert regret < 1e-12
        assert witness is not None

    def test_negation_full_regret(self):
        mdp = random_mdp(22, 3, 2)
        reward = random_reward(23, 3, 2)
        regret, _ = regret_gap(mdp, reward, -reward)
        assert regret == pytest.approx(1.0, abs=1e-8)

    def test_trivial_first_reward_guard(self):
        mdp = random_mdp(24, 3, 2)
        regret, witness = regret_gap(mdp, np.zeros((3, 2, 3)), random_reward(25, 3, 2))
        assert regret == 0.0
        assert witness is None

    def test_triviality_guard_is_relative(self):
        # Negation has full regret, and pure shaping is trivial, at every scale.
        mdp = random_mdp(24, 3, 2)
        reward = random_reward(25, 3, 2)
        shaping = apply_potential_shaping(mdp, np.zeros((3, 2, 3)), np.array([1.0, -2.0, 0.5]))
        for scale in (1e-14, 1e-13, 1e-9, 1.0, 1e3, 1e6, 1e9, 1e12):
            regret, witness = regret_gap(mdp, scale * reward, -scale * reward)
            assert regret == pytest.approx(1.0, abs=1e-8) and witness is not None, scale
            assert regret_gap(mdp, scale * shaping, reward) == (0.0, None), scale

    def test_zero_distance_forbids_regret(self):
        mdp = random_mdp(26, 3, 2)
        reward = random_reward(27, 3, 2)
        other = 2.0 * apply_potential_shaping(mdp, reward, np.arange(3.0))
        assert starc_distance(mdp, reward, other).distance < 1e-8
        regret, _ = regret_gap(mdp, reward, other)
        assert regret < 1e-8
