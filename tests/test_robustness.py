import gc
import math
import pickle
import re
import weakref

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
from starclab.metric import MetricReport, distance_table
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

    def test_malformed_hypothesis_rewards_refused_naming_the_id(self):
        first = ("a", np.zeros((2, 1, 2)))
        rule = r"'b': reward must be finite and 3-D, of the first reward's shape \(2, 1, 2\); got shape "
        for bad, match in (
            (np.zeros(3), rule + r"\(3,\)"),
            ([[[1.0, 2.0]], [[3.0]]], "'b': reward is ragged or not numeric"),
            ([[["x", 1.0]], [[2.0, 3.0]]], "'b': reward is ragged or not numeric"),
            (np.zeros((2, 1, 3)), rule + r"\(2, 1, 3\)"),
            (np.full((2, 1, 2), np.inf), rule + r"\(2, 1, 2\)"),
        ):
            with pytest.raises(InvalidInstance, match=match):
                HypothesisSet((first, ("b", bad), ("c", np.zeros((2, 1, 2)))))
        with pytest.raises(InvalidInstance, match=r"'a': reward must be finite and 3-D"):
            HypothesisSet((("a", 1.0), ("b", 2.0)))

    def test_empty_or_repeated_ids_refused(self):
        with pytest.raises(InvalidInstance, match="need at least one reward"):
            HypothesisSet(())
        reward = np.zeros((2, 1, 2))
        with pytest.raises(InvalidInstance, match="reward ids must be unique"):
            HypothesisSet((("a", reward), ("b", reward), ("a", reward)))

    def test_pickle_round_trip(self, mdp_4x3):
        hyp, f, g = _swap_tables(mdp_4x3)
        copy = pickle.loads(pickle.dumps(hyp))
        assert copy.ids == hyp.ids and np.array_equal(copy.stack, hyp.stack)
        assert np.array_equal(copy.reward("x2"), hyp.reward("x2"))
        assert check_epsilon_robust(f, g, copy, mdp_4x3, 0.0) == check_epsilon_robust(f, g, hyp, mdp_4x3, 0.0)

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


def _audit(f, g, hyp, mdp):
    """The checker calls of one audit: the tightest epsilon, the verdicts at it and just below, the lemma."""
    epsilon = min_robust_epsilon(f, g, hyp, mdp)
    at = check_epsilon_robust(f, g, hyp, mdp, epsilon)
    below = check_epsilon_robust(f, g, hyp, mdp, epsilon - 1e-6)
    return epsilon, at, below, two_epsilon_lemma_check(f, g, hyp, mdp, epsilon)


class TestTablesBuiltOnce:
    def test_one_distance_table_per_set_and_mdp(self, mdp_4x3, monkeypatch):
        built, distance_table = [], robustness_module.distance_table

        def spy(mdp, rewards):
            built.append(mdp)
            return distance_table(mdp, rewards)

        monkeypatch.setattr(robustness_module, "distance_table", spy)
        hyp, f, g = _swap_tables(mdp_4x3)
        _audit(f, g, hyp, mdp_4x3)
        assert built == [mdp_4x3]
        other = mdp_4x3.with_discount(0.8)
        _audit(f, g, hyp, other)
        _audit(f, g, hyp, mdp_4x3)
        assert built == [mdp_4x3, other]

    def test_caller_edits_after_construction_change_no_verdict(self, mdp_4x3):
        hyp, f, g = _swap_tables(mdp_4x3)
        rewards = [reward.copy() for _, reward in hyp.rewards]
        mine = HypothesisSet(tuple(zip(hyp.ids, rewards)))
        rewards[1][...] = -rewards[0]  # distance 1 from x, were it read
        assert _audit(f, g, mine, mdp_4x3)[0] == _audit(f, g, hyp, mdp_4x3)[0]
        assert check_epsilon_robust(f, g, mine, mdp_4x3, 0.0) == check_epsilon_robust(f, g, hyp, mdp_4x3, 0.0)
        for rid in mine.ids:
            with pytest.raises(ValueError, match="read-only"):
                mine.reward(rid)[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            robustness_module._pair_distances(mdp_4x3, mine)[0, 1] = 0.5

    def test_cached_table_is_freed_with_the_set_and_holds_no_mdp(self):
        mdp = random_mdp(41, 4, 3)
        hyp, _, _ = _swap_tables(mdp)
        table = robustness_module._pair_distances(mdp, hyp)
        assert robustness_module._pair_distances(mdp, hyp) is table
        table_ref, hyp_ref = weakref.ref(table), weakref.ref(hyp)
        del table, hyp
        gc.collect()
        assert hyp_ref() is None and table_ref() is None

        hyp, _, _ = _swap_tables(mdp)
        table_ref, mdp_ref = weakref.ref(robustness_module._pair_distances(mdp, hyp)), weakref.ref(mdp)
        del mdp
        gc.collect()
        assert mdp_ref() is None and table_ref() is None
        assert len(robustness_module._DISTANCES[hyp]) == 0


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

    def test_nudge_verdict_does_not_depend_on_scale(self):
        # At 1e-12 an absolute slack of 1e-9 let through a nudge about 260
        # times the probe's canonical norm.
        mdp, reward, eps = random_mdp(3, 4, 2), random_reward(4, 4, 2), 0.1
        unit = standardize(mdp, random_reward(5, 4, 2))
        limit = canonicalize(mdp, reward).norm * nudge_bound(eps)
        for scale in (1e-12, 1.0, 1e12):
            for size, want in ((500.0, False), (0.5 * limit, True)):
                chain = TransformChain((Nudge(scale * size * unit),))
                _, [report] = verify_transformation_bound(mdp, chain, [scale * reward], epsilon=eps)
                assert report["nudge_ok"] is want, (scale, size)
                assert report["nudge_bound"] == pytest.approx(scale * limit * (1 + 1e-9 / nudge_bound(eps)), rel=1e-12)

    def test_multiple_nudges_rejected(self, mdp_4x3, reward_4x3):
        chain = TransformChain((Nudge(np.zeros((4, 3, 4))), Nudge(np.zeros((4, 3, 4)))))
        with pytest.raises(InvalidInstance, match="more than one nudge"):
            verify_transformation_bound(mdp_4x3, chain, [reward_4x3], epsilon=0.1)

    def test_empty_probe_list_rejected(self, mdp_4x3):
        # With no probe nothing is checked, so there is no pass to report.
        chain = TransformChain((Scale(2.0),))
        with pytest.raises(InvalidInstance, match="^need at least one probe$"):
            verify_transformation_bound(mdp_4x3, chain, [], epsilon=0.1)


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

    @pytest.mark.parametrize("scale", (1e-12, 1.0, 1e12))
    def test_recomposition_to_zero_is_refused_at_every_scale(self, monkeypatch, scale):
        # Against an absolute floor of 1e-8, a chain that recomposes to the
        # zero tensor passed wherever both rewards were smaller than that.
        mdp = random_mdp(80, 4, 2)
        r_1, r_2 = scale * random_reward(90, 4, 2), scale * random_reward(95, 4, 2)
        decompose_transformation(mdp, r_1, r_2)
        monkeypatch.setattr(robustness_module, "apply_chain", lambda mdp, reward, chain: np.zeros_like(reward))
        with pytest.raises(RuntimeError, match="chain recomposition error"):
            decompose_transformation(mdp, r_1, r_2)

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


def test_certificate_document_with_non_finite_reward_refused():
    data = perturbation_counterexample(random_mdp(60, 3, 2), delta=1e-2).to_dict()
    assert CounterexampleCertificate.from_dict(data).verify()
    data["reward_2"][0][0][0] = math.inf
    with pytest.raises(InvalidInstance, match="reward_2 has non-finite entries"):
        CounterexampleCertificate.from_dict(data)


def test_malformed_certificate_document_refused_by_field():
    data = discount_counterexample(random_mdp(0, 3, 2)).to_dict()
    missing = {key: value for key, value in data.items() if key != "distance"}
    for doc, message in (
        (3, "certificate document must be an object, got int"),
        ({}, "certificate document is missing field 'scenario'"),
        (missing, "certificate document is missing field 'distance'"),
        ({**data, "mdp_gen": [1]}, "MDP document must be an object, got list"),
        ({**data, "policy_gap": "nan"}, "policy_gap: must be a finite number, got 'nan'"),
        ({**data, "distance": math.nan}, "distance: must be a finite number, got nan"),
        ({**data, "params": 3}, "params must be an object, got int"),
    ):
        with pytest.raises(InvalidInstance) as refused:
            CounterexampleCertificate.from_dict(doc)
        assert str(refused.value) == message
    # A document without params reads as one with none.
    del data["params"]
    assert CounterexampleCertificate.from_dict(data).params == {}


def test_certificate_document_with_unknown_scenario_model_or_metric_refused():
    data = discount_counterexample(random_mdp(0, 3, 2)).to_dict()
    scenarios = "('discount', 'transition', 'perturbation', 'optimality')"
    for doc, message in (
        ({**data, "policy_metric": "x", "model": 3, "scenario": 7}, f"scenario: must be one of {scenarios}, got 7"),
        ({**data, "model": 3}, "model: must be an object with a model 'kind' and the weight it reads"),
        ({**data, "model": {"kind": "boltzmann", "beta": -1}}, "model.beta: must be a finite positive number, got -1"),
        ({**data, "policy_metric": "x"}, "policy_metric: must be one of ('l2', 'linf', 'occupancy_l2'), got 'x'"),
        ({**data, "policy_metric": ["l2"]}, "policy_metric: must be one of ('l2', 'linf', 'occupancy_l2'), got ['l2']"),
    ):
        with pytest.raises(InvalidInstance) as refused:
            CounterexampleCertificate.from_dict(doc)
        assert str(refused.value) == message


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

    def test_gap_the_metric_resolves_builds_at_distance_one(self):
        # An absolute floor of 1e-6 on the canonical norm refused these gaps,
        # though the first candidate's norm, 8.5e-8 against |R| = 4.04, is
        # far above the metric's relative rule.
        mdp = random_mdp(0, 4, 3)
        for gap in (1e-7, 1e-8):
            cert = discount_counterexample(mdp, 0.9, 0.9 + gap)
            assert cert.distance == pytest.approx(1.0, abs=1e-8) and cert.verify(), gap

    def test_gap_the_metric_cannot_resolve_is_refused(self):
        mdp = random_mdp(0, 4, 3)
        with pytest.raises(InvalidInstance, match="^no potential yielded a non-trivial shaping reward"):
            discount_counterexample(mdp, 0.9, 0.9 + 1e-9)
        for state in range(4):
            candidate = robustness_module.shaping_tensor(mdp, np.eye(4)[state], 0.9)
            assert starc_distance(mdp.with_discount(0.9 + 1e-9), candidate, -candidate).distance == 0.0


def _loop_gridworld(n, gamma=0.9):
    """The nested loops the torus gridworld and its demo's reward pair were
    built with, kept as the reference: (deterministic kernel, slippery
    kernel, reward 1, reward 2)."""
    n_states = n * n
    moves = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)}
    kernels = []
    for slippery in (False, True):
        transition = np.zeros((n_states, 4, n_states))
        for r in range(n):
            for col in range(n):
                for a, (dr, dc) in moves.items():
                    targets = [(dr, dc)]
                    if slippery:
                        targets = [(dr, -1), (dr, 0), (dr, 1)] if dr != 0 else [(-1, dc), (0, dc), (1, dc)]
                    for tdr, tdc in targets:
                        transition[r * n + col, a, ((r + tdr) % n) * n + ((col + tdc) % n)] += 1.0 / len(targets)
        kernels.append(transition)
    det, slip = kernels
    schema = {
        (-1, 0): 0.0, (-1, 1): 1.0, (0, 1): 1.0, (1, 1): 1.0,
        (1, 0): 0.0, (1, -1): -1.0, (0, -1): -1.0, (-1, -1): -1.0,
    }
    reward_1 = np.zeros((n_states, 4, n_states))
    for r in range(n):
        for col in range(n):
            for (dr, dc), value in schema.items():  # the last write to a cell stands
                reward_1[r * n + col, :, ((r + dr) % n) * n + ((col + dc) % n)] = value
    reward_2 = np.zeros_like(reward_1)
    for s in range(n_states):
        for a in range(4):
            target = int(np.argmax(det[s, a]))
            reward_2[s, a, target] = -reward_1[s, a, target]
            residual = slip[s, a] @ reward_1[s, a] - slip[s, a, target] * reward_2[s, a, target]
            others = [t for t in np.flatnonzero(slip[s, a] > 0) if t != target]
            weights = slip[s, a, others]
            reward_2[s, a, others] = residual * weights / (weights @ weights)
    return det, slip, reward_1, reward_2


class TestTransitionCounterexample:
    def test_gridworld_matches_the_loops_bit_for_bit(self):
        # n = 2 has coinciding slip targets and schema cells.
        for n in range(2, 8):
            cert = gridworld_demo(n)
            built = (cert.mdp_eval.transition, cert.mdp_gen.transition, cert.reward_1, cert.reward_2)
            for array, ref in zip(built, _loop_gridworld(n)):
                assert array.shape == ref.shape and array.tobytes() == ref.tobytes(), n  # -0.0 too

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

    def test_pair_at_distance_zero_is_refused(self):
        # With one action every reward is trivial, so r and -r are at distance 0.
        with pytest.raises(InvalidInstance, match="^the transition pair measures distance 0 under mdp_eval, not 1$"):
            transition_counterexample(random_mdp(0, 4, 1), random_mdp(1, 4, 1))


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

    def test_single_action_has_no_canonical_direction(self):
        with pytest.raises(InvalidInstance, match="^could not find a non-trivial canonical direction$"):
            perturbation_counterexample(random_mdp(0, 3, 1))

    def test_delta_below_the_triviality_floor_is_refused(self):
        # The ladder once went on to eps = 1.8e-12 and c = 1e8..1e12 to eps
        # below 1e-9 * c, where the pair measures distance 0.
        floor = re.escape("needs eps at or below the triviality floor TRIVIAL_RTOL * c = ")
        with pytest.raises(InvalidInstance, match=f"^delta = 1e-12 {floor}1e-09, where the pair is at distance 0$"):
            perturbation_counterexample(random_mdp(3, 4, 3), delta=1e-12)
        for c in (1e8, 1e9, 1e10, 1e11, 1e12):
            with pytest.raises(InvalidInstance, match=f"^delta = 0.01 {floor}{c * 1e-9:g},"):
                perturbation_counterexample(random_mdp(2, 4, 3), c=c)

    def test_shaping_part_is_scale_free(self):
        # sqrt(c*c - eps*eps) overflowed to NaN for c of 1.34e154 and above,
        # and underflowed to 0 for c of 1e-154 and below.
        mdp = random_mdp(0, 4, 3)
        unit = perturbation_counterexample(mdp, beta=1.0, c=1.0)
        for c, beta in ((1e200, 1e-200), (1e-200, 1e200)):
            cert = perturbation_counterexample(mdp, beta=beta, c=c)
            assert cert.distance == pytest.approx(1.0, abs=1e-8) and cert.verify(), c
            assert cert.params["eps"] / c == pytest.approx(unit.params["eps"], rel=1e-12)
            for reward in (cert.reward_1, cert.reward_2):
                assert np.linalg.norm(reward / c) == pytest.approx(1.0, rel=1e-12)


def _serial_perturbation(mdp, model_kind="boltzmann", c=1.0, delta=1e-2, policy_metric=None, seed=0, beta=1.0):
    """The halving search with one N=2 solve per eps that the stacked ladder replaced.

    It halves eps only above the triviality floor 1e-9 * c, where the pair
    would be at distance 0.  Returns the certificate and whether the upward
    bisection ran.
    """
    spec = BehavioralModelSpec(model_kind, mdp, beta, 1.0)
    metric = policy_metric or PolicyMetricSpec("l2")
    unit = next(
        u for attempt in range(20)
        if (u := standardize(mdp, random_reward(seed + attempt, mdp.n_states, mdp.n_actions))).any()
    )
    shaping_dir = robustness_module.shaping_tensor(mdp, np.ones(mdp.n_states))
    shaping_unit = shaping_dir / np.linalg.norm(shaping_dir)

    def build(eps):
        s_part = math.sqrt(max(c * c - eps * eps, 0.0)) * shaping_unit
        return eps * unit + s_part, -eps * unit + s_part

    def gap(eps):
        return metric.distance(mdp, *spec.policies(robustness_module.reward_stack(mdp, build(eps))))

    hi = c * (1.0 - 1e-12)
    eps = hi
    g = gap(eps)
    while g > delta:
        eps /= 2.0
        if eps <= 1e-9 * c:
            raise InvalidInstance(
                f"delta = {delta:g} needs eps at or below the triviality floor "
                f"TRIVIAL_RTOL * c = {1e-9 * c:g}, where the pair is at distance 0"
            )
        g = gap(eps)
    lo, hi_b = eps, min(2.0 * eps, hi)
    bisected = False
    for _ in range(200):
        if g >= delta / 2.0:
            break
        bisected = True
        mid = 0.5 * (lo + hi_b)
        g_mid = gap(mid)
        if g_mid <= delta:
            lo, g = mid, g_mid
        else:
            hi_b = mid
    params = {"c": c, "delta": delta, "eps": lo, "seed": seed}
    cert = robustness_module._certificate("perturbation", spec, mdp, *build(lo), metric.kind, params)
    return cert, bisected


def _assert_same_certificate(cert, ref):
    assert cert.params == ref.params  # eps, bit for bit
    assert (cert.policy_gap, cert.distance) == (ref.policy_gap, ref.distance)
    assert np.array_equal(cert.reward_1, ref.reward_1)
    assert np.array_equal(cert.reward_2, ref.reward_2)


class _ConstantMetric(PolicyMetricSpec):
    """A policy metric that never falls below 1, so no eps qualifies."""

    def distance(self, mdp, policy_1, policy_2):
        return 1.0


class TestPerturbationLadder:
    def test_matches_serial_halving_bit_for_bit(self):
        for seed in range(3):
            for n_states in range(2, 7):
                mdp = random_mdp(600 + seed, n_states, 3)
                for delta in (1e-1, 1e-2, 1e-3, 1e-6):
                    for kind in ("boltzmann", "mce"):
                        cert = perturbation_counterexample(mdp, model_kind=kind, delta=delta, seed=seed)
                        ref, _ = _serial_perturbation(mdp, kind, delta=delta, seed=seed)
                        _assert_same_certificate(cert, ref)

    def test_bisection_branch_matches(self):
        linf = PolicyMetricSpec("linf")
        # The halving overshoots below delta/2 here, so the bisection runs.
        # At beta = 1e-12 and delta = 1e-20 the gap is either exactly 0 or at
        # least an ulp of the policies, far above delta, so the bisection runs
        # until its bracket is two adjacent floats; the serial search runs all
        # 200 steps.
        rows = ((random_mdp(0, 4, 3), 1.0, 0.5, linf), (random_mdp(3, 4, 3), 1e-12, 1e-20, None))
        for mdp, beta, delta, metric in rows:
            cert = perturbation_counterexample(mdp, beta=beta, delta=delta, policy_metric=metric)
            ref, ran = _serial_perturbation(mdp, beta=beta, delta=delta, policy_metric=metric)
            assert ran
            _assert_same_certificate(cert, ref)

    def test_bisection_stops_when_the_bracket_cannot_shrink(self, monkeypatch):
        # Below roundoff delta no eps gives a gap in [delta/2, delta]: the gap
        # is 0 at lo and above delta at hi, until the two are adjacent floats.
        # A small beta puts such a delta above the triviality floor's gap.
        solves = []
        policies = BehavioralModelSpec.policies

        def counting(self, rewards):
            solves.append(len(rewards))
            return policies(self, rewards)

        monkeypatch.setattr(BehavioralModelSpec, "policies", counting)
        for seed in range(4):
            mdp = random_mdp(seed, 6, 3)
            solves.clear()
            ref, ran = _serial_perturbation(mdp, delta=1e-20, seed=seed, beta=1e-12)
            serial_solves = len(solves)
            solves.clear()
            cert = perturbation_counterexample(mdp, beta=1e-12, delta=1e-20, seed=seed)
            assert ran and cert.policy_gap == 0.0 and cert.distance == pytest.approx(1.0, abs=1e-8)
            _assert_same_certificate(cert, ref)
            # [eps, 2 eps] holds 2**52 floats, so about 53 halvings of the
            # bracket reach adjacent floats; the serial search spends 200.
            assert serial_solves > 200 and len(solves) < 64, (serial_solves, len(solves))

    def test_floor_raises_the_serial_error(self):
        mdp = random_mdp(4, 3, 2)
        with pytest.raises(InvalidInstance) as serial:
            _serial_perturbation(mdp, policy_metric=_ConstantMetric("l2"))
        with pytest.raises(InvalidInstance) as ladder:
            perturbation_counterexample(mdp, policy_metric=_ConstantMetric("l2"))
        assert str(ladder.value) == str(serial.value) == (
            "delta = 0.01 needs eps at or below the triviality floor TRIVIAL_RTOL * c = 1e-09, "
            "where the pair is at distance 0"
        )

    @staticmethod
    def _fail_below(monkeypatch, threshold):
        """Make the model fail, as a solve that misses its tolerance, on every
        reward pair closer than ``threshold``: the first such item in a stack raises."""
        policies = BehavioralModelSpec.policies

        def failing(self, rewards):
            gaps = np.linalg.norm((rewards[0::2] - rewards[1::2]).reshape(len(rewards) // 2, -1), axis=1)
            bad = np.flatnonzero(gaps < threshold)
            if bad.size:
                raise robustness_module.ConvergenceError("forced", residual=1.0, item=2 * int(bad[0]))
            return policies(self, rewards)

        monkeypatch.setattr(BehavioralModelSpec, "policies", failing)

    def test_failing_rung_past_the_answer_is_not_reached(self, monkeypatch):
        mdp = random_mdp(5, 4, 3)
        ref, _ = _serial_perturbation(mdp, delta=1e-3)
        # Pairs at the answer's eps are 2*eps apart; the next halving's, eps.
        self._fail_below(monkeypatch, 1.5 * ref.params["eps"])
        _assert_same_certificate(perturbation_counterexample(mdp, delta=1e-3), ref)

    def test_failing_rung_before_the_answer_raises_as_serial(self, monkeypatch):
        mdp = random_mdp(5, 4, 3)
        ref, _ = _serial_perturbation(mdp, delta=1e-3)
        self._fail_below(monkeypatch, 3 * ref.params["eps"])
        with pytest.raises(robustness_module.ConvergenceError) as serial:
            _serial_perturbation(mdp, delta=1e-3)
        with pytest.raises(robustness_module.ConvergenceError) as ladder:
            perturbation_counterexample(mdp, delta=1e-3)
        assert (str(ladder.value), ladder.value.item) == (str(serial.value), serial.value.item)


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
        r_1, r_2 = optimality_nonrobustness_witness(mdp)
        assert starc_distance(mdp, r_1, r_2).distance > 1e-3

    def test_one_construction_per_seed_on_every_size(self):
        # Reward 1 is the seed's one draw, and reward 2 lowers one of its
        # (s, a) rows; 1 x 2 is the excluded size.
        cases = 0
        for n_states in range(1, 11):
            for n_actions in (2, 3, 4):
                if (n_states, n_actions) == (1, 2):
                    continue
                mdp = random_mdp(100 * n_states + n_actions, n_states, n_actions)
                for seed in range(7):
                    r_1, r_2 = optimality_nonrobustness_witness(mdp, seed=seed)
                    case = (n_states, n_actions, seed)
                    draw = np.random.default_rng(seed).standard_normal((n_states, n_actions, n_states))
                    assert np.array_equal(r_1, draw), case
                    assert len(np.argwhere((r_1 != r_2).any(axis=2))) == 1, case
                    gap = np.abs(optimal_policy_uniform(mdp, r_1) - optimal_policy_uniform(mdp, r_2)).max()
                    assert gap < 1e-6, case
                    assert starc_distance(mdp, r_1, r_2).distance > 1e-3, case
                    cases += 1
        assert cases >= 200

    def test_the_chosen_copy_is_the_farthest_by_the_distance_table(self):
        # The ranking on canonical coordinates against every copy built and
        # standardized in one table.
        for n_states, n_actions, seed in ((2, 2, 0), (5, 3, 1), (10, 2, 3), (8, 4, 2)):
            mdp = random_mdp(seed, n_states, n_actions)
            r_1, r_2 = optimality_nonrobustness_witness(mdp, seed=seed)
            rows = np.argwhere(optimal_policy_uniform(mdp, r_1) < 1e-12)
            copies = np.repeat(r_1[None], len(rows), axis=0)
            copies[np.arange(len(rows)), rows[:, 0], rows[:, 1]] -= 2.0
            farthest = np.argmax(distance_table(mdp, [r_1, *copies])[0, 1:])
            assert np.array_equal(r_2, copies[farthest])

    def test_excluded_size_rejected(self, one_state_mdp):
        with pytest.raises(InvalidInstance, match="no witness exists"):
            optimality_nonrobustness_witness(one_state_mdp(2))

    def test_no_far_copy_is_refused_naming_the_seed(self, monkeypatch):
        # The chosen copy at distance 0: the one check that refuses the seed.
        monkeypatch.setattr(robustness_module, "starc_distance", lambda mdp, r_1, r_2: MetricReport(0.0, 1.0, 1.0, 1.0))
        with pytest.raises(InvalidInstance, match="^seed 5: no copy of the drawn reward"):
            optimality_nonrobustness_witness(random_mdp(0, 3, 2), seed=5)


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
