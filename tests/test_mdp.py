import json
import re
from collections import deque

import numpy as np
import pytest

from starclab import (
    InvalidInstance,
    TabularMdp,
    occupancy_measure,
    optimal_values,
    policy_evaluation,
    policy_return,
    random_mdp,
    random_reward,
)
from starclab.mdp import (
    check_policy,
    check_reward,
    finite_array,
    load_mdp,
    load_reward,
    reward_stack,
    save_mdp,
    save_reward,
)
from starclab.oracles import enumerate_deterministic_policies

from _reference import monte_carlo_return


def uniform_policy(mdp):
    return np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)


class TestConstruction:
    def test_row_sum_violation_reported_with_indices(self):
        t = np.ones((2, 1, 2)) * 0.4
        with pytest.raises(InvalidInstance, match="sums to"):
            TabularMdp(transition=t, initial_dist=np.array([1.0, 0.0]), discount=0.9)

    def test_negative_probability_rejected(self):
        t = np.zeros((2, 1, 2))
        t[:, 0, 0] = [1.5, 1.0]
        t[0, 0, 1] = -0.5
        with pytest.raises(InvalidInstance, match="negative"):
            TabularMdp(transition=t, initial_dist=np.array([1.0, 0.0]), discount=0.9)

    def test_unreachable_state_rejected(self):
        t = np.zeros((2, 1, 2))
        t[0, 0, 0] = 1.0
        t[1, 0, 1] = 1.0
        with pytest.raises(InvalidInstance, match="unreachable"):
            TabularMdp(transition=t, initial_dist=np.array([1.0, 0.0]), discount=0.9)

    def test_discount_bounds(self):
        t = np.ones((1, 1, 1))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidInstance, match="discount"):
                TabularMdp(transition=t, initial_dist=np.array([1.0]), discount=bad)

    def test_arrays_immutable(self, mdp_4x3):
        with pytest.raises(ValueError):
            mdp_4x3.transition[0, 0, 0] = 0.5


class TestFiniteInputs:
    def test_float_arrays_come_back_uncopied(self, reward_4x3):
        assert finite_array(reward_4x3, "reward") is reward_4x3
        assert finite_array([[1, 2]], "x").dtype == np.float64

    def test_bad_values_named(self):
        for value, problem in (
            ([[1.0, 2.0], [3.0]], "is ragged or not numeric"),
            ([["x", 1.0]], "is ragged or not numeric"),
            ([10**400], "is ragged or not numeric"),
            ([1.0, np.nan], "has non-finite entries"),
            (-np.inf, "has non-finite entries"),
        ):
            with pytest.raises(InvalidInstance, match=f"^thing {problem}$"):
                finite_array(value, "thing")

    def test_nan_initial_dist_refused(self):
        # NaN fails both the negativity and the sum test.
        t = np.full((3, 1, 3), 1 / 3)
        with pytest.raises(InvalidInstance, match="initial_dist has non-finite entries"):
            TabularMdp(transition=t, initial_dist=np.array([np.nan, 0.5, 0.5]), discount=0.9)

    def test_discount_must_be_a_number(self):
        t = np.ones((1, 1, 1))
        for bad in ("0.9", "0.9x", np.nan, True, None):
            with pytest.raises(InvalidInstance, match="discount: must be a number in"):
                TabularMdp(transition=t, initial_dist=np.array([1.0]), discount=bad)

    def test_nan_policy_refused(self, mdp_4x3, reward_4x3):
        policy = uniform_policy(mdp_4x3)
        policy[1, 0] = np.nan
        for call in (
            lambda: check_policy(mdp_4x3, policy),
            lambda: policy_evaluation(mdp_4x3, reward_4x3, policy),
            lambda: policy_return(mdp_4x3, reward_4x3, policy),
            lambda: occupancy_measure(mdp_4x3, policy),
        ):
            with pytest.raises(InvalidInstance, match="policy has non-finite entries"):
                call()


def _unreachable_reference(transition, initial):
    """Per-state BFS over positive-probability edges: the reference for the MDP's own check."""
    reach = set(np.flatnonzero(initial > 0.0).tolist())
    frontier = deque(reach)
    edge = transition.max(axis=1) > 0.0
    while frontier:
        s = frontier.popleft()
        for t in np.flatnonzero(edge[s]).tolist():
            if t not in reach:
                reach.add(t)
                frontier.append(t)
    return set(range(len(initial))) - reach


class TestReachability:
    @staticmethod
    def _assert_matches_reference(transition, initial):
        unreached = _unreachable_reference(transition, initial)
        if unreached:
            with pytest.raises(InvalidInstance, match=re.escape(f"states {sorted(unreached)} are unreachable")):
                TabularMdp(transition=transition, initial_dist=initial, discount=0.9)
        else:
            assert TabularMdp(transition=transition, initial_dist=initial, discount=0.9)._unreachable_states() == set()
        return unreached

    @staticmethod
    def _one_hot(n, *states):
        initial = np.zeros(n)
        initial[list(states)] = 1.0 / len(states)
        return initial

    @staticmethod
    def _chain(n):
        """A chain s -> s+1 with a self-loop action; the last state absorbs."""
        chain = np.zeros((n, 2, n))
        chain[np.arange(n), 0, np.minimum(np.arange(n) + 1, n - 1)] = 1.0
        chain[np.arange(n), 1, np.arange(n)] = 1.0
        return chain

    def test_chains_and_disconnected_parts(self):
        for n in range(1, 51):
            chain = self._chain(n)
            assert self._assert_matches_reference(chain, self._one_hot(n, 0)) == set()
            assert self._assert_matches_reference(chain, self._one_hot(n, n // 2)) == set(range(n // 2))
            # Two chains that never meet, started in the first alone and then in both.
            half = n // 2
            if half:
                parts = np.zeros((n, 2, n))
                parts[:half, :, :half] = self._chain(half)
                parts[half:, :, half:] = self._chain(n - half)
                assert self._assert_matches_reference(parts, self._one_hot(n, 0)) == set(range(half, n))
                assert self._assert_matches_reference(parts, self._one_hot(n, 0, half)) == set()

    def test_random_sparse_kernels_with_zero_mass_initial_states(self):
        rng = np.random.default_rng(7)
        outcomes = set()
        for n in range(1, 51):
            for _ in range(4):
                transition = np.zeros((n, 2, n))
                for s in range(n):
                    for a in range(2):
                        targets = rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False)
                        transition[s, a, targets] = 1.0 / len(targets)
                initial = rng.random(n) * (rng.random(n) < 0.2)
                initial[rng.integers(n)] += 1.0
                initial /= initial.sum()
                outcomes.add(bool(self._assert_matches_reference(transition, initial)))
        assert outcomes == {True, False}


def _outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _stack_by_loop(mdp, rewards):
    """One ``check_reward`` per reward: the reference for ``reward_stack``."""
    return np.stack([check_reward(mdp, reward) for reward in rewards])


class TestRewardStack:
    def test_errors_match_the_per_reward_loop(self, mdp_4x3, reward_4x3):
        good = reward_4x3
        cases = [[], [good[:3]], [good[:, :2]]]
        for k in range(3):
            for bad in (good[:3], good[..., :2], good[None], good.ravel(), np.float64(1.0)):
                cases.append([good] * k + [bad] + [good])
            for value in (np.nan, np.inf, -np.inf):
                broken = good.copy()
                broken[1, 2, 3] = value
                cases.append([good] * k + [broken, good[:3]])
        cases.append([good, good.tolist()[:2]])  # ragged nested lists
        cases.append([good, [[1.0]]])
        for rewards in cases:
            want = _outcome(_stack_by_loop, mdp_4x3, rewards)
            assert isinstance(want, tuple), len(rewards)
            assert _outcome(reward_stack, mdp_4x3, rewards) == want

    def test_nested_lists_and_ints_stack_as_the_loop(self, mdp_4x3, reward_4x3):
        ints = np.arange(48).reshape(4, 3, 4)
        for rewards in ([reward_4x3.tolist(), ints], (ints.tolist(),), np.stack([reward_4x3, reward_4x3])):
            stack = reward_stack(mdp_4x3, rewards)
            want = _stack_by_loop(mdp_4x3, rewards)
            assert stack.dtype == want.dtype == np.float64
            assert np.array_equal(stack, want)
        source = np.stack([reward_4x3])
        assert not np.shares_memory(reward_stack(mdp_4x3, source), source)


class TestPolicyEvaluation:
    def test_single_state_geometric_series(self, one_state_mdp):
        mdp = one_state_mdp(1, discount=0.5)
        v = policy_evaluation(mdp, np.ones((1, 1, 1)), np.ones((1, 1)))
        assert v == pytest.approx([2.0], abs=1e-10)

    def test_zero_reward_zero_values(self, mdp_4x3):
        v = policy_evaluation(mdp_4x3, np.zeros((4, 3, 4)), uniform_policy(mdp_4x3))
        assert np.abs(v).max() < 1e-12

    def test_matches_monte_carlo(self):
        mdp = random_mdp(7, 5, 3, discount=0.9)
        reward = random_reward(8, 5, 3)
        policy = uniform_policy(mdp)
        exact = policy_return(mdp, reward, policy)
        horizon = int(np.ceil(np.log(1e-8) / np.log(mdp.discount)))
        estimate, stderr = monte_carlo_return(mdp, reward, policy, horizon, 100_000, seed=3)
        assert abs(estimate - exact) < 3 * stderr


class TestOptimalValues:
    def test_zero_reward(self, mdp_4x3):
        v, q = optimal_values(mdp_4x3, np.zeros((4, 3, 4)))
        assert np.abs(v).max() < 1e-9
        assert np.abs(q).max() < 1e-9

    def test_two_action_analytic_fixed_point(self, one_state_mdp):
        mdp = one_state_mdp(2, discount=0.9)
        reward = np.zeros((1, 2, 1))
        reward[0, 0, 0] = 1.0
        v, q = optimal_values(mdp, reward)
        assert v == pytest.approx([10.0], abs=1e-8)
        assert q[0] == pytest.approx([10.0, 9.0], abs=1e-8)

    def test_greedy_policy_not_improvable(self):
        mdp = random_mdp(11, 4, 3)
        reward = random_reward(12, 4, 3)
        _, q = optimal_values(mdp, reward)
        greedy = np.zeros((4, 3))
        greedy[np.arange(4), q.argmax(axis=1)] = 1.0
        base = policy_return(mdp, reward, greedy)
        for s in range(4):
            for a in range(3):
                swapped = greedy.copy()
                swapped[s] = 0.0
                swapped[s, a] = 1.0
                assert policy_return(mdp, reward, swapped) <= base + 1e-8


class TestReturnsAndOccupancy:
    def test_zero_reward_zero_return(self, mdp_4x3):
        assert policy_return(mdp_4x3, np.zeros((4, 3, 4)), uniform_policy(mdp_4x3)) == 0.0

    def test_single_state_mass(self, one_state_mdp):
        mdp = one_state_mdp(1, discount=0.5)
        m = occupancy_measure(mdp, np.ones((1, 1)))
        assert m[0, 0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_total_mass_and_return_consistency(self):
        rng = np.random.default_rng(0)
        for i in range(100):
            n_s, n_a = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            mdp = random_mdp(100 + i, n_s, n_a)
            reward = random_reward(200 + i, n_s, n_a)
            policy = rng.dirichlet(np.ones(n_a), size=n_s)
            m = occupancy_measure(mdp, policy)
            assert m.sum() == pytest.approx(1.0 / (1.0 - mdp.discount), abs=1e-6)
            assert (m * reward).sum() == pytest.approx(
                policy_return(mdp, reward, policy), abs=1e-8
            )


class TestGenerators:
    def test_determinism(self):
        a, b = random_mdp(5, 6, 2), random_mdp(5, 6, 2)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.initial_dist, b.initial_dist)
        assert np.array_equal(random_reward(5, 6, 2), random_reward(5, 6, 2))

    def test_high_concentration_near_uniform_rows(self):
        for seed in range(100):
            mdp = random_mdp(seed, 10, 2, concentration=1e4)
            assert mdp.transition.max() < 2.0 / 10

    def test_integer_concentration_beyond_int64(self):
        # 2**70 is beyond int64; it reaches the Dirichlet draw as a float.
        mdp = random_mdp(0, 3, 2, concentration=2**70)
        assert np.array_equal(mdp.transition, random_mdp(0, 3, 2, concentration=float(2**70)).transition)
        assert np.abs(mdp.transition - 1 / 3).max() < 1e-9

    def test_invalid_sizes(self):
        with pytest.raises(InvalidInstance):
            random_mdp(0, 0, 2)
        with pytest.raises(InvalidInstance):
            random_reward(0, 3, 0)


class TestJsonIO:
    def test_mdp_round_trip(self, tmp_path, mdp_4x3):
        path = tmp_path / "mdp.json"
        for prior in (None, "x" * 100_000):  # a new file, then one longer than what the save writes
            if prior is not None:
                path.write_text(prior)
            save_mdp(mdp_4x3, path)
            loaded = load_mdp(path)
            assert np.array_equal(loaded.transition, mdp_4x3.transition)
            assert loaded.discount == mdp_4x3.discount
            assert path.read_text() == json.dumps(mdp_4x3.to_dict())

    def test_reward_round_trip(self, tmp_path, mdp_4x3, reward_4x3):
        path = tmp_path / "reward.json"
        for prior in (None, "x" * 100_000):
            if prior is not None:
                path.write_text(prior)
            save_reward(reward_4x3, path)
            assert np.array_equal(load_reward(path, mdp_4x3), reward_4x3)
            assert path.read_text() == json.dumps({"values": reward_4x3.tolist()})

    @pytest.mark.parametrize(
        "reward, message",
        [
            (np.array([[[np.nan, np.inf]]]), "reward has non-finite entries"),
            ([[[1.0, 2.0]], [[3.0]]], "reward is ragged or not numeric"),
            (np.zeros((2, 2)), r"reward values must have shape \(S, A, S\), got \(2, 2\)"),
            (np.zeros((2, 1, 3)), r"reward values must have shape \(S, A, S\), got \(2, 1, 3\)"),
        ],
    )
    def test_save_reward_refuses_what_load_reward_refuses_touching_no_file(self, tmp_path, reward, message):
        new, existing = tmp_path / "new.json", tmp_path / "existing.json"
        existing.write_bytes(b'{"values": [[[1.0]]]}')
        for path in (new, existing):
            with pytest.raises(InvalidInstance, match=message):
                save_reward(reward, path)
        assert not new.exists()
        assert existing.read_bytes() == b'{"values": [[[1.0]]]}'

    def test_unreadable_or_malformed_files_refused_naming_the_path(self, tmp_path, mdp_4x3):
        truncated = tmp_path / "truncated.json"
        truncated.write_text(json.dumps(mdp_4x3.to_dict())[:40])
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"values": "\xe9"}')
        for path, message in (
            (truncated, f"{truncated} is not valid JSON: "),
            (latin, f"{latin} is not valid JSON: "),
            (tmp_path / "missing.json", f"cannot read {tmp_path / 'missing.json'}: No such file or directory"),
            (tmp_path, f"cannot read {tmp_path}: Is a directory"),
        ):
            for load in (load_mdp, load_reward):
                with pytest.raises(InvalidInstance, match=re.escape(message)):
                    load(path)

    def test_malformed_documents_refused_naming_the_field(self, tmp_path, mdp_4x3, reward_4x3):
        path = tmp_path / "doc.json"
        good = mdp_4x3.to_dict()
        ragged = json.loads(json.dumps(good))
        ragged["transition"][1][2] = ragged["transition"][1][2][:3]
        for doc, field in (
            (ragged, "transition is ragged"),
            ({**good, "mu0": [0.5, 0.5, "x", 0.0]}, "initial_dist is ragged or not numeric"),
            ({**good, "discount": "0.9x"}, "discount: must be a number"),
            ({**good, "discount": "0.9"}, "discount: must be a number"),
            ({**good, "n_states": "4"}, "declared n_states"),
        ):
            path.write_text(json.dumps(doc))
            with pytest.raises(InvalidInstance, match=field):
                load_mdp(path)
        for values in (reward_4x3.tolist()[:3] + [[[1.0]]], [[["x"]]]):
            path.write_text(json.dumps({"values": values}))
            with pytest.raises(InvalidInstance, match="reward is ragged or not numeric"):
                load_reward(path)

    def test_loader_reports_first_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_states": 1, "discount": 0.9, "mu0": [1.0], "transition": [[[1.0]]]}))
        with pytest.raises(InvalidInstance, match="n_actions"):
            load_mdp(path)
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(InvalidInstance, match="missing"):
            load_reward(path)
