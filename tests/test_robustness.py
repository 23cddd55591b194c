import math

import numpy as np
import pytest

from starclab import (
    BehavioralModelSpec,
    canonicalize,
    CounterexampleCertificate,
    HypothesisSet,
    InvalidInstance,
    PolicyMetricSpec,
    check_epsilon_robust,
    decompose_transformation,
    discount_counterexample,
    gridworld_demo,
    materialize_model,
    min_robust_epsilon,
    optimality_nonrobustness_witness,
    optimal_policy_uniform,
    perturbation_counterexample,
    random_mdp,
    random_reward,
    separation_witness_search,
    standardize,
    starc_distance,
    torus_gridworld,
    three_state_chain,
    transition_counterexample,
    two_epsilon_lemma_check,
    verify_transformation_bound,
)
from starclab.mdp import expected_reward, occupancy_measure
from starclab.models import ModelTable
from starclab.robustness import nudge_bound
from starclab.transforms import (
    Nudge,
    Scale,
    Shaping,
    TransformChain,
    apply_potential_shaping,
)
from starclab import robustness as robustness_module


def _swap_tables(mdp, seed=50):
    """f over {X, 2(X+shaping)}, and g permuting f's outputs: robust at eps 0."""
    x = random_reward(seed, mdp.n_states, mdp.n_actions)
    x_2 = 2.0 * apply_potential_shaping(mdp, x, np.arange(float(mdp.n_states)))
    hyp = HypothesisSet((("x", x), ("x2", x_2)))
    spec = BehavioralModelSpec("boltzmann", mdp, beta=1.0)
    f = materialize_model(spec, list(hyp.rewards))
    g = ModelTable((("x", f.policy("x2")), ("x2", f.policy("x"))))
    return hyp, f, g


class TestChecker:
    def test_f_equals_g_fails_condition_4_only(self, mdp_4x3):
        hyp, f, _ = _swap_tables(mdp_4x3)
        verdict = check_epsilon_robust(f, f, hyp, mdp_4x3, epsilon=1.0)
        assert not verdict.robust
        assert [v["condition"] for v in verdict.violations] == [4]

    def test_order_preserving_relabeling_robust_at_zero(self, mdp_4x3):
        hyp, f, g = _swap_tables(mdp_4x3)
        verdict = check_epsilon_robust(f, g, hyp, mdp_4x3, epsilon=0.0)
        assert verdict.robust

    def test_distant_collision_flagged_condition_2(self, mdp_4x3):
        r_1 = random_reward(60, 4, 3)
        r_2 = -r_1
        hyp = HypothesisSet((("a", r_1), ("b", r_2)))
        same = np.full((4, 3), 1 / 3)
        other = np.zeros((4, 3))
        other[:, 0] = 1.0
        f = ModelTable((("a", same), ("b", same)))
        g = ModelTable((("a", other), ("b", other)))
        verdict = check_epsilon_robust(f, g, hyp, mdp_4x3, epsilon=0.5)
        assert any(v["condition"] == 2 for v in verdict.violations)

    def test_mismatched_ids_rejected(self, mdp_4x3):
        hyp, f, g = _swap_tables(mdp_4x3)
        other_hyp = HypothesisSet((("p", hyp.reward("x")), ("q", hyp.reward("x2"))))
        with pytest.raises(InvalidInstance, match="same reward ids"):
            check_epsilon_robust(f, g, other_hyp, mdp_4x3, epsilon=0.1)

    def test_non_finite_policy_refused_before_the_checker(self, mdp_4x3):
        # A NaN policy compares false with everything, so the checker would
        # report no condition-3 violation for it and a finite epsilon.
        hyp = HypothesisSet(tuple((rid, random_reward(70 + i, 4, 3)) for i, rid in enumerate("abc")))
        f = materialize_model(BehavioralModelSpec("boltzmann", mdp_4x3, beta=1.0), list(hyp.rewards))
        with pytest.raises(InvalidInstance, match="policy 'c' must be finite"):
            ModelTable((("a", f.policy("a")), ("b", f.policy("b")), ("c", np.full((4, 3), np.nan))))

    def test_policies_not_shaped_like_mdp_eval_refused(self, mdp_4x3):
        # (A, S) tables on an S=4, A=3 MDP; the ids and distances are all fine.
        hyp, f, g = _swap_tables(mdp_4x3)
        f_t = ModelTable(tuple((rid, policy.T) for rid, policy in f.entries))
        g_t = ModelTable(tuple((rid, policy.T) for rid, policy in g.entries))
        for f_in, g_in, which in ((f_t, g_t, "f"), (f, g_t, "g"), (f_t, g, "f")):
            with pytest.raises(InvalidInstance, match=rf"{which} policies have shape \(3, 4\), not mdp_eval's \(4, 3\)"):
                check_epsilon_robust(f_in, g_in, hyp, mdp_4x3, epsilon=0.0)
            with pytest.raises(InvalidInstance, match="not mdp_eval's"):
                min_robust_epsilon(f_in, g_in, hyp, mdp_4x3)
            with pytest.raises(InvalidInstance, match="not mdp_eval's"):
                two_epsilon_lemma_check(f_in, g_in, hyp, mdp_4x3, epsilon=0.0)

    def test_verdict_serializes(self, mdp_4x3):
        hyp, f, g = _swap_tables(mdp_4x3)
        verdict = check_epsilon_robust(f, g, hyp, mdp_4x3, epsilon=0.0)
        data = verdict.to_dict()
        assert data["robust"] is True and data["violations"] == []


def _loop_reference(f, g, hyp, mdp, epsilon, eta=1e-6):
    """The four conditions, the tightest epsilon and the lemma, as plain loops
    over pairwise starc_distance calls: the reference for the vectorized checker."""
    ids = hyp.ids
    dist = {(a, b): starc_distance(mdp, hyp.reward(a), hyp.reward(b)).distance for a in ids for b in ids}

    def gap(p, q):
        return float(np.abs(p - q).max())

    violations = []
    for a in ids:
        for b in ids:
            if gap(f.policy(a), g.policy(b)) <= eta and dist[a, b] > epsilon + 1e-8:
                violations.append({"condition": 1, "ids": [a, b], "distance": dist[a, b]})
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if gap(f.policy(a), f.policy(b)) <= eta and dist[a, b] > epsilon + 1e-8:
                violations.append({"condition": 2, "ids": [a, b], "distance": dist[a, b]})
    for b in ids:
        best = min(gap(g.policy(b), f.policy(a)) for a in ids)
        if best > eta:
            violations.append({"condition": 3, "ids": [b], "policy_gap": best})
    max_fg_gap = max(gap(f.policy(a), g.policy(a)) for a in ids)
    if max_fg_gap <= eta:
        violations.append({"condition": 4, "ids": [], "policy_gap": max_fg_gap})

    if any(v["condition"] in (3, 4) for v in violations):
        eps_star = math.inf
    else:
        eps_star = max(
            dist[a, b]
            for a in ids
            for b in ids
            if gap(f.policy(a), g.policy(b)) <= eta or gap(f.policy(a), f.policy(b)) <= eta
        )
    lemma = None
    if not violations:
        lemma = all(
            dist[a, b] <= 2.0 * epsilon + 1e-8
            for i, a in enumerate(ids)
            for b in ids[i + 1 :]
            if gap(g.policy(a), g.policy(b)) <= eta
        )
    return violations, eps_star, lemma


def _random_tables(seed):
    """Hypotheses and f/g tables drawn from a small policy pool, so collisions are common."""
    rng = np.random.default_rng(seed)
    mdp = random_mdp(seed, 3, 2)
    n = int(rng.integers(2, 7))
    ids = [f"r{k}" for k in range(n)]
    rewards = [rng.standard_normal((3, 2, 3)) for _ in ids]
    rewards[-1] = rewards[0] * 2.0  # an order-equivalent pair, distance 0
    pool = [rng.dirichlet(np.ones(2), size=3) for _ in range(4)]
    f_pick = rng.integers(0, 3, size=n)
    f = ModelTable(tuple((rid, pool[k] + 1e-9 * rng.random()) for rid, k in zip(ids, f_pick)))
    if rng.random() < 0.2:
        g = f  # condition 4
    else:  # pool[3] is never an f-policy: condition 3 when g uses it
        g = ModelTable(tuple((rid, pool[k]) for rid, k in zip(ids, rng.integers(0, 4, size=n))))
    epsilon = float(rng.choice([0.0, 0.2, 0.5, 1.0]))
    return HypothesisSet(tuple(zip(ids, rewards))), f, g, mdp, epsilon


class TestVectorizedChecker:
    def test_matches_loop_reference(self):
        seen = set()
        for seed in range(150):
            hyp, f, g, mdp, epsilon = _random_tables(seed)
            violations, eps_star, lemma = _loop_reference(f, g, hyp, mdp, epsilon)
            verdict = check_epsilon_robust(f, g, hyp, mdp, epsilon)
            assert [(v["condition"], v["ids"]) for v in verdict.violations] == [
                (v["condition"], v["ids"]) for v in violations
            ]
            for got, want in zip(verdict.violations, violations):
                for key in ("distance", "policy_gap"):
                    if key in want:
                        assert got[key] == pytest.approx(want[key], abs=1e-12)
            assert verdict.robust == (not violations)
            assert min_robust_epsilon(f, g, hyp, mdp) == pytest.approx(eps_star, abs=1e-12)
            if lemma is None:
                with pytest.raises(InvalidInstance, match="precondition"):
                    two_epsilon_lemma_check(f, g, hyp, mdp, epsilon)
            else:
                assert two_epsilon_lemma_check(f, g, hyp, mdp, epsilon) == lemma
            seen.update(v["condition"] for v in violations)
            seen.add("robust" if not violations else "not robust")
        assert seen == {1, 2, 3, 4, "robust", "not robust"}


class TestMinRobustEpsilon:
    def test_g_equals_f_infinite(self, mdp_4x3):
        hyp, f, _ = _swap_tables(mdp_4x3)
        assert min_robust_epsilon(f, f, hyp, mdp_4x3) == math.inf

    def test_relabeling_gives_zero(self, mdp_4x3):
        hyp, f, g = _swap_tables(mdp_4x3)
        assert min_robust_epsilon(f, g, hyp, mdp_4x3) <= 1e-8

    def test_bounded_nudge_gives_measured_distance(self, mdp_4x3):
        x = random_reward(61, 4, 3)
        y = x + 0.2 * random_reward(62, 4, 3)
        d0 = starc_distance(mdp_4x3, x, y).distance
        hyp = HypothesisSet((("x", x), ("y", y)))
        spec = BehavioralModelSpec("boltzmann", mdp_4x3, beta=1.0)
        f = materialize_model(spec, list(hyp.rewards))
        g = ModelTable((("x", f.policy("y")), ("y", f.policy("x"))))
        eps_star = min_robust_epsilon(f, g, hyp, mdp_4x3)
        assert eps_star <= d0 + 1e-8


class TestTwoEpsilonLemma:
    def test_holds_on_robust_relabeling(self, mdp_4x3):
        hyp, f, g = _swap_tables(mdp_4x3)
        assert two_epsilon_lemma_check(f, g, hyp, mdp_4x3, epsilon=0.0)

    def test_precondition_enforced(self, mdp_4x3):
        hyp, f, _ = _swap_tables(mdp_4x3)
        with pytest.raises(InvalidInstance, match="precondition"):
            two_epsilon_lemma_check(f, f, hyp, mdp_4x3, epsilon=0.0)

    def test_detects_synthetic_violation(self, mdp_4x3, monkeypatch):
        # A genuine metric can never produce a robust verdict whose g-collisions
        # exceed 2*eps (triangle inequality), so break the metric on purpose:
        # x and y both lie within eps = 0.3 of z, yet 0.7 > 2 * 0.3 apart.
        rewards = tuple((rid, random_reward(63 + k, 4, 3)) for k, rid in enumerate("xyz"))
        hyp = HypothesisSet(rewards)
        f = materialize_model(BehavioralModelSpec("boltzmann", mdp_4x3, beta=1.0), list(rewards))
        # g sends x and y to f(z), and z to f(x): every f/g collision joins
        # rewards 0.3 apart, so the checker finds the pair robust, and the
        # lemma must notice the g-g collision between x and y.
        g = ModelTable((("x", f.policy("z")), ("y", f.policy("z")), ("z", f.policy("x"))))
        broken = np.array([[0.0, 0.7, 0.3], [0.7, 0.0, 0.3], [0.3, 0.3, 0.0]])
        monkeypatch.setattr(robustness_module, "_pair_distances", lambda *_: broken)
        assert check_epsilon_robust(f, g, hyp, mdp_4x3, epsilon=0.3).robust
        assert not two_epsilon_lemma_check(f, g, hyp, mdp_4x3, epsilon=0.3)


class TestTransformationBound:
    def test_invariant_chain_true_at_zero(self, mdp_4x3, reward_4x3):
        chain = TransformChain((Shaping(np.arange(4.0)), Scale(2.0)))
        ok, reports = verify_transformation_bound(mdp_4x3, chain, [reward_4x3], epsilon=0.0)
        assert ok
        assert reports[0]["distance"] < 1e-10

    def test_nudge_at_bound_keeps_distance_within_epsilon(self, mdp_4x3, reward_4x3):
        eps = 0.1
        unit = standardize(mdp_4x3, reward_4x3)
        canon = canonicalize(mdp_4x3, reward_4x3)
        perp = standardize(mdp_4x3, random_reward(70, 4, 3))
        perp = perp - (perp * unit).sum() * unit
        perp /= np.linalg.norm(perp)
        delta = canon.norm * nudge_bound(eps) * perp
        chain = TransformChain((Nudge(delta),))
        ok, reports = verify_transformation_bound(mdp_4x3, chain, [reward_4x3], epsilon=eps)
        assert ok
        assert reports[0]["distance"] <= eps + 1e-8

    def test_oversized_nudge_breaks_distance_somewhere(self, mdp_4x3, reward_4x3):
        eps = 0.1
        canon = canonicalize(mdp_4x3, reward_4x3)
        unit = canon.canonical / canon.norm
        perp = standardize(mdp_4x3, random_reward(70, 4, 3))
        perp = perp - (perp * unit).sum() * unit
        perp /= np.linalg.norm(perp)
        radius = 2.0 * canon.norm * nudge_bound(eps)
        worst = 0.0
        for phi in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            delta = radius * (math.cos(phi) * unit + math.sin(phi) * perp)
            worst = max(
                worst, starc_distance(mdp_4x3, reward_4x3, reward_4x3 + delta).distance
            )
        assert worst > eps

    def test_multiple_nudges_rejected(self, mdp_4x3, reward_4x3):
        chain = TransformChain((Nudge(np.zeros((4, 3, 4))), Nudge(np.zeros((4, 3, 4)))))
        with pytest.raises(InvalidInstance, match="more than one nudge"):
            verify_transformation_bound(mdp_4x3, chain, [reward_4x3], epsilon=0.1)


class TestDecompose:
    def test_identity_target_zero_nudge(self, mdp_4x3, reward_4x3):
        chain = decompose_transformation(mdp_4x3, reward_4x3, reward_4x3)
        nudges = [s for s in chain.steps if isinstance(s, Nudge)]
        assert all(np.linalg.norm(s.delta) < 1e-9 for s in nudges)

    def test_order_equivalent_target_zero_nudge(self, mdp_4x3, reward_4x3):
        target = 2.0 * apply_potential_shaping(mdp_4x3, reward_4x3, np.arange(4.0))
        chain = decompose_transformation(mdp_4x3, reward_4x3, target)
        nudges = [s for s in chain.steps if isinstance(s, Nudge)]
        assert all(np.linalg.norm(s.delta) < 1e-7 for s in nudges)
        assert starc_distance(mdp_4x3, reward_4x3, target).distance < 1e-8

    def test_random_pair_recomposes(self):
        from starclab.transforms import apply_chain

        for i in range(10):
            mdp = random_mdp(80 + i, 4, 2)
            r_1 = random_reward(90 + i, 4, 2)
            r_2 = random_reward(95 + i, 4, 2)
            chain = decompose_transformation(mdp, r_1, r_2)
            out = apply_chain(mdp, r_1, chain)
            assert np.linalg.norm(out - r_2) < 1e-8 * max(1.0, np.linalg.norm(r_2))

    def test_trivial_target_rejected_for_nontrivial_source(self, mdp_4x3, reward_4x3):
        with pytest.raises(InvalidInstance, match="trivial"):
            decompose_transformation(mdp_4x3, reward_4x3, np.full((4, 3, 4), 1.0))


def test_fresh_certificates_verify_exactly():
    mdp_1, mdp_2 = random_mdp(60, 3, 2), random_mdp(61, 3, 2)
    certificates = [
        discount_counterexample(mdp_1, 0.8, 0.9, model_kind="mce", alpha=0.5),
        transition_counterexample(mdp_1, mdp_2, model_kind="optimal_uniform"),
        perturbation_counterexample(mdp_1, delta=1e-3, seed=2),
        gridworld_demo(n=2),
    ]
    assert [cert.scenario for cert in certificates] == ["discount", "transition", "perturbation", "transition"]
    # The transition pair's difference is invisible to mdp_1, so its Q* there
    # is roundoff, which the optimal model must read as ties.
    for cert, max_gap in zip(certificates, (1e-6, 1e-6, 1e-3, 1e-6)):
        assert cert.verify(tol=0.0), cert.scenario
        assert cert.policy_gap < max_gap, cert.scenario


class TestDiscountCounterexample:
    def test_chain_certificate(self):
        cert = discount_counterexample(three_state_chain(), 0.9, 0.95)
        assert cert.policy_gap < 1e-6
        assert cert.distance == pytest.approx(1.0, abs=1e-6)
        assert cert.verify()

    def test_swapped_discounts_also_valid(self):
        cert = discount_counterexample(three_state_chain(), 0.95, 0.9)
        assert cert.policy_gap < 1e-6
        assert cert.distance == pytest.approx(1.0, abs=1e-6)

    def test_equal_discounts_rejected(self):
        with pytest.raises(InvalidInstance):
            discount_counterexample(three_state_chain(), 0.9, 0.9)

    def test_json_round_trip_preserves_verification(self):
        cert = discount_counterexample(three_state_chain(), 0.5, 0.9)
        again = CounterexampleCertificate.from_dict(cert.to_dict())
        assert again.verify()


class TestTransitionCounterexample:
    def test_gridworld_demo_certificate(self):
        cert = gridworld_demo(n=3)
        assert cert.policy_gap < 1e-6
        assert cert.distance >= 0.99
        assert cert.verify()

    def test_gridworld_conditional_means_match(self):
        cert = gridworld_demo(n=3)
        gap = np.abs(expected_reward(cert.mdp_gen, cert.reward_1 - cert.reward_2)).max()
        assert gap < 1e-9

    def test_identical_kernels_rejected(self, mdp_4x3):
        with pytest.raises(InvalidInstance):
            transition_counterexample(mdp_4x3, mdp_4x3)

    def test_torus_rows_stochastic(self):
        mdp = torus_gridworld(4, slippery=True)
        assert np.abs(mdp.transition.sum(axis=2) - 1.0).max() < 1e-12


class TestPerturbationCounterexample:
    def test_equal_norms_and_distance_one(self, mdp_4x3):
        cert = perturbation_counterexample(mdp_4x3, delta=1e-2, c=1.0)
        assert np.linalg.norm(cert.reward_1) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(cert.reward_2) == pytest.approx(1.0, abs=1e-9)
        assert cert.distance == pytest.approx(1.0, abs=1e-6)
        assert cert.policy_gap < 1e-2
        assert cert.verify()

    def test_gap_lands_in_band(self, mdp_4x3):
        cert = perturbation_counterexample(mdp_4x3, delta=1e-3)
        assert cert.policy_gap <= 1e-3

    def test_discrete_model_rejected(self, mdp_4x3):
        with pytest.raises(InvalidInstance, match="continuous"):
            perturbation_counterexample(mdp_4x3, model_kind="optimal_uniform")


class TestSeparationWitness:
    def test_witness_found_for_modest_epsilon(self):
        mdp = random_mdp(55, 4, 3)
        model = BehavioralModelSpec("boltzmann", mdp, beta=1.0)
        witness = separation_witness_search(
            model, mdp, PolicyMetricSpec("l2"), epsilon=0.9, delta=1e-2, budget=1000
        )
        assert witness is not None
        r_1, r_2 = witness
        assert starc_distance(mdp, r_1, r_2).distance > 0.9
        assert PolicyMetricSpec("l2").distance(mdp, model(r_1), model(r_2)) <= 1e-2

    def test_epsilon_above_one_inconclusive(self, mdp_4x3):
        model = BehavioralModelSpec("boltzmann", mdp_4x3, beta=1.0)
        assert (
            separation_witness_search(
                model, mdp_4x3, PolicyMetricSpec("l2"), epsilon=1.1, delta=0.1, budget=10
            )
            is None
        )

    def test_exact_delta_zero_inconclusive(self, mdp_4x3):
        model = BehavioralModelSpec("boltzmann", mdp_4x3, beta=1.0)
        assert (
            separation_witness_search(
                model, mdp_4x3, PolicyMetricSpec("l2"), epsilon=0.5, delta=0.0, budget=20
            )
            is None
        )


class TestOptimalityWitness:
    def test_hand_example_one_state_three_actions(self, one_state_mdp):
        mdp = one_state_mdp(3)
        r_1 = np.array([[[1.0], [0.0], [0.0]]])
        r_2 = np.array([[[1.0], [0.5], [0.0]]])
        assert np.array_equal(
            optimal_policy_uniform(mdp, r_1), optimal_policy_uniform(mdp, r_2)
        )
        assert starc_distance(mdp, r_1, r_2).distance > 0

    def test_witness_on_one_state_three_actions(self, one_state_mdp):
        mdp = one_state_mdp(3)
        r_1, r_2 = optimality_nonrobustness_witness(mdp)
        gap = np.abs(optimal_policy_uniform(mdp, r_1) - optimal_policy_uniform(mdp, r_2)).max()
        assert gap < 1e-6
        assert starc_distance(mdp, r_1, r_2).distance > 1e-3

    def test_witness_on_three_state_mdp(self):
        mdp = random_mdp(77, 3, 2)
        r_1, r_2 = optimality_nonrobustness_witness(mdp, max_samples=100)
        assert starc_distance(mdp, r_1, r_2).distance > 1e-3

    def test_excluded_size_rejected(self, one_state_mdp):
        with pytest.raises(InvalidInstance, match="no witness exists"):
            optimality_nonrobustness_witness(one_state_mdp(2))


class TestOccupancyMetric:
    @staticmethod
    def _occupancy(mdp, policy, steps=800):
        """Discounted (s, a, s') visitation by summing the state distribution's powers."""
        state, total = mdp.initial_dist.copy(), np.zeros(mdp.transition.shape)
        for t in range(steps):
            total += mdp.discount**t * state[:, None, None] * policy[:, :, None] * mdp.transition
            state = np.einsum("s,sa,sat->t", state, policy, mdp.transition)
        return total

    def test_equals_norm_of_occupancy_difference(self, mdp_4x3):
        metric = PolicyMetricSpec("occupancy_l2")
        rng = np.random.default_rng(80)
        for _ in range(5):
            p_1, p_2 = rng.dirichlet(np.ones(3), size=(2, 4))
            want = np.linalg.norm(self._occupancy(mdp_4x3, p_1) - self._occupancy(mdp_4x3, p_2))
            assert metric.distance(mdp_4x3, p_1, p_2) == pytest.approx(want, rel=1e-9)
            assert occupancy_measure(mdp_4x3, p_1).sum() == pytest.approx(1 / (1 - mdp_4x3.discount))

    def test_zero_for_identical_policies(self, mdp_4x3):
        policy = np.random.default_rng(81).dirichlet(np.ones(3), size=4)
        assert PolicyMetricSpec("occupancy_l2").distance(mdp_4x3, policy, policy.copy()) == 0.0

    def test_perturbation_certificate_verifies(self, mdp_4x3):
        metric = PolicyMetricSpec("occupancy_l2")
        cert = perturbation_counterexample(mdp_4x3, beta=1.0, delta=1e-2, policy_metric=metric, seed=3)
        assert cert.policy_metric == "occupancy_l2"
        assert 0.0 < cert.policy_gap <= 1e-2
        assert cert.distance == pytest.approx(1.0, abs=1e-6)
        assert cert.verify()
        assert CounterexampleCertificate.from_dict(cert.to_dict()).verify()
