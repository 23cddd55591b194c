import gc
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starclab
from starclab import (
    InvalidInstance,
    TabularMdp,
    apply_potential_shaping,
    apply_redistribution_noise,
    boltzmann_policy,
    differ_by,
    invisible_reward_discount,
    canonical_operator,
    invisible_reward_transition,
    mce_policy,
    policy_return,
    project_invariant,
    random_mdp,
    random_reward,
    same_order_oracle,
    starc_distance,
    three_state_chain,
)
from starclab.mdp import expected_reward
from starclab.transforms import (
    Nudge,
    Redistribution,
    Scale,
    Shaping,
    TransformChain,
    apply_chain,
    invariance_basis,
    shaping_tensor,
)

from _reference import dense_invariant_projection


class TestPotentialShaping:
    def test_zero_potential_identity(self, mdp_4x3, reward_4x3):
        out = apply_potential_shaping(mdp_4x3, reward_4x3, np.zeros(4))
        assert np.array_equal(out, reward_4x3)

    def test_constant_reward_from_zero(self, mdp_4x3):
        k = 3.7
        phi = np.full(4, -k / (1.0 - mdp_4x3.discount))
        out = apply_potential_shaping(mdp_4x3, np.zeros((4, 3, 4)), phi)
        assert np.abs(out - k).max() < 1e-9

    def test_return_shifts_by_initial_potential(self, mdp_4x3, reward_4x3):
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(4)
        shaped = apply_potential_shaping(mdp_4x3, reward_4x3, phi)
        for _ in range(5):
            policy = rng.dirichlet(np.ones(3), size=4)
            shift = policy_return(mdp_4x3, shaped, policy) - policy_return(
                mdp_4x3, reward_4x3, policy
            )
            assert shift == pytest.approx(-(mdp_4x3.initial_dist @ phi), abs=1e-8)


class TestRedistribution:
    def test_zero_magnitude_identity(self, mdp_4x3, reward_4x3):
        out = apply_redistribution_noise(mdp_4x3, reward_4x3, seed=0, magnitude=0.0)
        assert np.array_equal(out, reward_4x3)

    def test_conditional_means_preserved(self, mdp_4x3, reward_4x3):
        out = apply_redistribution_noise(mdp_4x3, reward_4x3, seed=1, magnitude=2.0)
        gap = np.abs(expected_reward(mdp_4x3, out - reward_4x3)).max()
        assert gap < 1e-9
        assert np.linalg.norm(out - reward_4x3) == pytest.approx(2.0, abs=1e-9)

    def test_boltzmann_invariant(self, mdp_4x3, reward_4x3):
        out = apply_redistribution_noise(mdp_4x3, reward_4x3, seed=2, magnitude=1.0)
        gap = np.abs(
            boltzmann_policy(mdp_4x3, reward_4x3, 1.0) - boltzmann_policy(mdp_4x3, out, 1.0)
        ).max()
        assert gap < 1e-6


class TestInvarianceBasis:
    def test_single_state_single_action(self, one_state_mdp):
        mdp = one_state_mdp(1)
        basis = invariance_basis(mdp)
        assert basis.shaping_dirs.shape == (1, 1, 1, 1)
        assert basis.shaping_dirs[0, 0, 0, 0] == pytest.approx(mdp.discount - 1.0)
        assert basis.redistribution_dirs.shape[0] == 0

    def test_redistribution_dimension_formula(self):
        mdp = random_mdp(0, 3, 2)
        basis = invariance_basis(mdp)
        assert basis.redistribution_dirs.shape[0] == 3 * 2 * 2

    def test_basis_vectors_satisfy_constraints(self, mdp_4x3):
        basis = invariance_basis(mdp_4x3)
        for i, direction in enumerate(basis.shaping_dirs):
            phi = np.zeros(4)
            phi[i] = 1.0
            assert np.abs(direction - shaping_tensor(mdp_4x3, phi)).max() < 1e-9
        for direction in basis.redistribution_dirs:
            assert np.abs(expected_reward(mdp_4x3, direction)).max() < 1e-9

    def test_redistribution_closure_under_addition(self, mdp_4x3):
        basis = invariance_basis(mdp_4x3).redistribution_dirs
        combo = basis[0] + basis[1] + 0.5 * basis[-1]
        assert np.abs(expected_reward(mdp_4x3, combo)).max() < 1e-9

    def test_combined_orthonormal(self, mdp_4x3):
        combined = invariance_basis(mdp_4x3).combined_orthonormal
        flat = combined.reshape(combined.shape[0], -1)
        gram = flat @ flat.T
        assert np.abs(gram - np.eye(len(flat))).max() < 1e-9

    def test_keeps_no_reference_to_the_mdp(self):
        mdp = random_mdp(13, 3, 2)
        basis = invariance_basis(mdp)
        freed = weakref.ref(mdp)
        del mdp
        gc.collect()
        assert freed() is None
        assert basis.combined_orthonormal.shape[0] > 0

    def test_not_exported_from_the_package(self):
        assert not {"invariance_basis", "InvarianceBasis"} & set(vars(starclab))


class TestCanonicalOperator:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 3),
        st.sampled_from([0.1, 1.0]),
        st.sampled_from([0.5, 0.9, 0.99]),
        st.floats(-12.0, 12.0),
        st.integers(0, 10_000),
    )
    @example(1, 1, 1.0, 0.9, 0.0, 0)
    @example(1, 3, 1.0, 0.99, -12.0, 1)
    @example(12, 3, 0.1, 0.99, 12.0, 2)
    def test_closed_form_matches_dense_projection(self, n_s, n_a, conc, gamma, exponent, seed):
        mdp = random_mdp(seed, n_s, n_a, concentration=conc, discount=gamma)
        tensor = 10.0**exponent * random_reward(seed + 1, n_s, n_a)
        dense = dense_invariant_projection(mdp, tensor)
        closed = project_invariant(mdp, tensor)
        assert np.linalg.norm(closed - dense) <= 1e-12 * np.linalg.norm(tensor)

    def test_cached_per_mdp_and_freed_with_it(self):
        mdp = random_mdp(8, 5, 2)
        operator = canonical_operator(mdp)
        assert canonical_operator(mdp) is operator
        assert canonical_operator(mdp.with_discount(0.5)) is not operator
        freed = weakref.ref(operator)
        del mdp, operator
        gc.collect()
        assert freed() is None

    def test_large_mdp_invariances(self):
        mdp = random_mdp(9, 300, 4)
        reward = random_reward(10, 300, 4)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            canonical = reward - project_invariant(mdp, reward)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The operator build plus one projection; the dense basis would need
        # terabytes here.
        assert time.perf_counter() - start < 10.0
        assert peak < 200e6
        assert np.linalg.norm(project_invariant(mdp, canonical)) <= 1e-10 * np.linalg.norm(canonical)
        moved = apply_potential_shaping(mdp, reward, np.random.default_rng(11).standard_normal(300))
        moved = 2.0 * apply_redistribution_noise(mdp, moved, seed=12, magnitude=5.0)
        assert starc_distance(mdp, reward, moved).distance < 1e-8
        assert starc_distance(mdp, reward, 3.0 * reward).distance == pytest.approx(0.0, abs=1e-12)
        assert starc_distance(mdp, reward, -reward).distance == pytest.approx(1.0, abs=1e-12)

    def test_redistribution_noise_single_state_is_identity(self, one_state_mdp):
        mdp = one_state_mdp(3)
        reward = np.array([[[1.0], [2.0], [3.0]]])
        assert np.array_equal(apply_redistribution_noise(mdp, reward, seed=0, magnitude=1.0), reward)


class TestDifferBy:
    def test_shaping_pair(self, mdp_4x3, reward_4x3):
        shaped = apply_potential_shaping(mdp_4x3, reward_4x3, np.arange(4.0))
        assert differ_by(mdp_4x3, reward_4x3, shaped) == "shaping_and_redistribution"

    def test_identical(self, mdp_4x3, reward_4x3):
        assert differ_by(mdp_4x3, reward_4x3, reward_4x3.copy()) == "identical"

    def test_positive_scaling(self, mdp_4x3, reward_4x3):
        assert differ_by(mdp_4x3, reward_4x3, 2.0 * reward_4x3) == "also_positive_scaling"

    def test_negation_is_neither(self, mdp_4x3, reward_4x3):
        assert differ_by(mdp_4x3, reward_4x3, -reward_4x3) == "neither"
        assert not same_order_oracle(mdp_4x3, reward_4x3, -reward_4x3)

    def test_verdicts_are_scale_free(self):
        for seed in range(10):
            mdp = random_mdp(seed, 4, 3)
            reward = random_reward(100 + seed, 4, 3)
            shaped = apply_potential_shaping(mdp, reward, np.random.default_rng(seed).standard_normal(4))
            pairs = (
                (shaped, "shaping_and_redistribution"),
                (3.0 * shaped, "also_positive_scaling"),
                (-reward, "neither"),
                (random_reward(200 + seed, 4, 3), "neither"),
            )
            for c in 10.0 ** np.arange(-12, 13, 3):
                for other, verdict in pairs:
                    assert differ_by(mdp, c * reward, c * other) == verdict, (seed, c)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-5, 5), st.floats(-5, 5))
    def test_shaping_always_order_preserving(self, seed, phi_a, phi_b):
        mdp = random_mdp(3, 3, 2)
        reward = random_reward(seed, 3, 2)
        phi = np.array([phi_a, phi_b, 0.0])
        shaped = apply_potential_shaping(mdp, reward, phi)
        assert differ_by(mdp, reward, shaped) in {"identical", "shaping_and_redistribution"}


class TestInvisibleRewardDiscount:
    def test_chain_construction_matches_closed_form(self):
        mdp = three_state_chain(discount=0.9)
        r = invisible_reward_discount(mdp, 0.9, 0.95)
        # The chosen potential is the indicator of the middle state: rewards
        # on realized transitions are gamma_1 entering it and -1 leaving it.
        assert r[0, 0, 1] == pytest.approx(0.9)
        assert r[1, 0, 2] == pytest.approx(-1.0)
        assert r[0, 1, 2] == pytest.approx(0.0)

    def test_boltzmann_blind_to_both_signs(self):
        mdp = three_state_chain(discount=0.9)
        r = invisible_reward_discount(mdp, 0.9, 0.95)
        uniform = np.full((3, 2), 0.5)
        assert np.abs(boltzmann_policy(mdp, r, 1.0) - uniform).max() < 1e-6
        assert np.abs(boltzmann_policy(mdp, -r, 1.0) - uniform).max() < 1e-6

    def test_opposite_ordering_under_other_discount(self):
        mdp = three_state_chain(discount=0.9)
        r = invisible_reward_discount(mdp, 0.9, 0.95)
        d = starc_distance(mdp.with_discount(0.95), r, -r).distance
        assert d == pytest.approx(1.0, abs=1e-6)

    def test_equal_discounts_rejected(self, mdp_4x3):
        with pytest.raises(InvalidInstance):
            invisible_reward_discount(mdp_4x3, 0.9, 0.9)

    def test_trivial_kernel_rejected(self, one_state_mdp):
        mdp = one_state_mdp(2)
        with pytest.raises(InvalidInstance, match="precondition"):
            invisible_reward_discount(mdp, 0.9, 0.95)


def _kernel_pair():
    t_1 = np.zeros((3, 2, 3))
    t_1[0, 0] = [0.5, 0.5, 0.0]
    t_1[0, 1] = [0.0, 1.0, 0.0]
    t_1[1, :] = [0.0, 0.0, 1.0]
    t_1[2, :] = [0.0, 0.0, 1.0]
    t_2 = t_1.copy()
    t_2[0, 0] = [0.0, 0.5, 0.5]
    mu = np.array([1.0, 0.0, 0.0])
    return (
        TabularMdp(transition=t_1, initial_dist=mu, discount=0.9),
        TabularMdp(transition=t_2, initial_dist=mu, discount=0.9),
    )


class TestInvisibleRewardTransition:
    def test_mean_constraints_hold(self):
        mdp_1, mdp_2 = _kernel_pair()
        r = invisible_reward_transition(mdp_1, mdp_2)
        assert np.abs(expected_reward(mdp_1, r)).max() < 1e-9
        means_2 = expected_reward(mdp_2, r)
        assert means_2[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_minimum_norm_row(self):
        mdp_1, mdp_2 = _kernel_pair()
        r = invisible_reward_transition(mdp_1, mdp_2)
        # Any solution of (0.5, 0.5, 0) . x = 0 and (0, 0.5, 0.5) . x = 1
        # works, e.g. (1, -1, 3); the minimum-norm one is (-2/3, 2/3, 4/3).
        assert np.allclose(r[0, 0], [-2 / 3, 2 / 3, 4 / 3], atol=1e-9)
        assert np.linalg.norm(r[0, 0]) < np.linalg.norm([1.0, -1.0, 3.0])

    def test_mce_blind_under_first_kernel(self):
        mdp_1, mdp_2 = _kernel_pair()
        r_dagger = invisible_reward_transition(mdp_1, mdp_2)
        base = random_reward(3, 3, 2)
        gap = np.abs(
            mce_policy(mdp_1, base, 1.0) - mce_policy(mdp_1, base + 5.0 * r_dagger, 1.0)
        ).max()
        assert gap < 1e-6

    def test_identical_kernels_rejected(self, mdp_4x3):
        with pytest.raises(InvalidInstance, match="identical"):
            invisible_reward_transition(mdp_4x3, mdp_4x3)


class TestTransformChain:
    def test_json_round_trip(self, mdp_4x3, reward_4x3):
        chain = TransformChain(
            (
                Shaping(np.arange(4.0)),
                Scale(2.0),
                Nudge(0.1 * random_reward(9, 4, 3)),
            )
        )
        loaded = TransformChain.from_json(chain.to_json())
        out_a = apply_chain(mdp_4x3, reward_4x3, chain)
        out_b = apply_chain(mdp_4x3, reward_4x3, loaded)
        assert np.abs(out_a - out_b).max() < 1e-12

    def test_redistribution_step_validated(self, mdp_4x3, reward_4x3):
        bad = TransformChain((Redistribution(np.ones((4, 3, 4))),))
        with pytest.raises(InvalidInstance, match="conditional mean"):
            apply_chain(mdp_4x3, reward_4x3, bad)

    @pytest.mark.parametrize("scale", [1e6, 1e9, 1e12])
    def test_decomposition_at_large_reward_scales(self, scale):
        from starclab.robustness import decompose_transformation

        for mdp in (random_mdp(1, 4, 3), random_mdp(2, 1, 3), random_mdp(3, 1, 1)):
            reward = scale * random_reward(2, mdp.n_states, mdp.n_actions)
            for target in (1.7 * reward, -reward, scale * random_reward(5, mdp.n_states, mdp.n_actions)):
                chain = decompose_transformation(mdp, reward, target)
                out = apply_chain(mdp, reward, chain)
                assert np.linalg.norm(out - target) <= 1e-8 * np.linalg.norm(target)

    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_redistribution_with_real_mean_rejected_at_any_scale(self, mdp_4x3, reward_4x3, scale):
        clean = apply_redistribution_noise(mdp_4x3, np.zeros((4, 3, 4)), seed=3, magnitude=scale)
        apply_chain(mdp_4x3, scale * reward_4x3, TransformChain((Redistribution(clean),)))
        biased = clean + 1e-6 * np.abs(clean).max()  # conditional mean 1e-6 of the step
        with pytest.raises(InvalidInstance, match="conditional mean"):
            apply_chain(mdp_4x3, scale * reward_4x3, TransformChain((Redistribution(biased),)))

    def test_scale_must_be_positive(self, mdp_4x3, reward_4x3):
        with pytest.raises(InvalidInstance, match="positive"):
            apply_chain(mdp_4x3, reward_4x3, TransformChain((Scale(-1.0),)))
