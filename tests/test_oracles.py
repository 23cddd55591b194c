import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starclab import (
    apply_potential_shaping,
    enumerate_deterministic_policies,
    policy_return,
    random_mdp,
    random_reward,
    regret_witness_search,
    same_order_oracle,
    starc_distance,
)
from starclab import oracles
from starclab.mdp import DEFAULT_DP_TOL, ConvergenceError, InvalidInstance, TabularMdp, check_reward
from starclab.oracles import EnumerationCapExceeded

from _reference import monte_carlo_return


def _reference_deterministic_returns(mdp, reward, cap):
    """The per-policy loop the stacked solve replaced, kept as the reference."""
    size = oracles._policy_space_size(mdp, cap)
    er = np.einsum("sat,sat->sa", mdp.transition, reward)
    eye = np.eye(mdp.n_states)
    returns = np.empty(size)
    for i in range(size):
        actions = np.empty(mdp.n_states, dtype=int)
        idx = i
        for s in range(mdp.n_states):
            actions[s] = idx % mdp.n_actions
            idx //= mdp.n_actions
        p_pi = mdp.transition[np.arange(mdp.n_states), actions]
        r_pi = er[np.arange(mdp.n_states), actions]
        v = np.linalg.solve(eye - mdp.discount * p_pi, r_pi)
        returns[i] = mdp.initial_dist @ v
    return returns


def _reference_same_order(mdp, reward_1, reward_2, cap=oracles.DEFAULT_CAP, seed=0):
    """The per-pair ``same_order_oracle`` that the batched one replaced."""
    reward_1 = check_reward(mdp, reward_1)
    reward_2 = check_reward(mdp, reward_2)
    j1 = _reference_deterministic_returns(mdp, reward_1, cap)
    j2 = _reference_deterministic_returns(mdp, reward_2, cap)
    band_1, band_2 = oracles.SIGN_BAND * np.abs(j1).max(), oracles.SIGN_BAND * np.abs(j2).max()
    chunk = 256
    for start in range(0, len(j1), chunk):
        d1 = j1[start : start + chunk, None] - j1[None, :]
        d2 = j2[start : start + chunk, None] - j2[None, :]
        if (oracles._signs(d1, band_1) != oracles._signs(d2, band_2)).any():
            return False
    rng = np.random.default_rng(seed)
    for _ in range(oracles.N_STOCHASTIC_PAIRS):
        pol_a = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
        pol_b = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
        d1 = policy_return(mdp, reward_1, pol_a) - policy_return(mdp, reward_1, pol_b)
        d2 = policy_return(mdp, reward_2, pol_a) - policy_return(mdp, reward_2, pol_b)
        if oracles._signs(np.array([d1]), band_1)[0] != oracles._signs(np.array([d2]), band_2)[0]:
            return False
    return True


def _reference_regret_witness(j1, j2):
    """The loop form of the regret search that ``oracles._regret_witness`` replaced."""
    order = np.argsort(j2, kind="stable")
    j2_sorted = j2[order]
    j1_sorted = j1[order]
    suffix_min = np.minimum.accumulate(j1_sorted[::-1])[::-1]
    suffix_argmin = np.empty(len(j1), dtype=int)
    best_idx = len(j1) - 1
    best_val = j1_sorted[-1]
    for i in range(len(j1) - 1, -1, -1):
        if j1_sorted[i] <= best_val:
            best_val = j1_sorted[i]
            best_idx = i
        suffix_argmin[i] = best_idx
    best_regret = 0.0
    best_pair = None
    for i in range(len(j1)):
        lo = np.searchsorted(j2_sorted, j2[i], side="left")
        gap = j1[i] - suffix_min[lo]
        if gap > best_regret:
            best_regret = gap
            best_pair = (int(i), int(order[suffix_argmin[lo]]))
    return best_regret, best_pair


def _table_same_signs(j1, j2, band_1, band_2):
    """The n x n sign tables that ``oracles._same_signs`` replaced."""
    d1, d2 = j1[:, None] - j1[None, :], j2[:, None] - j2[None, :]
    return bool((oracles._signs(d1, band_1) == oracles._signs(d2, band_2)).all())


def _both_verdicts(*case):
    """The sort-and-sweep verdict and the tables', where a difference may overflow (or be inf - inf)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return oracles._same_signs(*case), _table_same_signs(*case)


# Arbitrary floats, and a few values with exact duplicates and rounded ties
# (0.1 + 0.2 against 0.3).
_RETURN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
    st.sampled_from([-1.0, 0.0, 0.1, 0.2, 0.1 + 0.2, 0.3, 1.0, 1.0 + 1e-15]),
)


@st.composite
def _returns_and_bands(draw):
    """(j1, j2, band_1, band_2) as the oracle would see them, and beyond."""
    n = draw(st.integers(1, 24))
    j1 = np.array(draw(st.lists(_RETURN, min_size=n, max_size=n)))
    mode = draw(st.sampled_from(["free", "affine", "ramp", "rounded", "zero"]))
    with np.errstate(over="ignore", invalid="ignore"):  # huge j1 may give an infinite j2, and 0 * inf a NaN band
        # Far from 0, J1's band ties a whole cluster of returns.
        j1 = j1 + draw(st.sampled_from([0.0, 100.0, -1e4]))
        if mode == "free":
            j2 = np.array(draw(st.lists(_RETURN, min_size=n, max_size=n)))
        elif mode == "affine":
            # Centred on one of the returns, so J2's band can be narrower than the cluster.
            j2 = draw(st.floats(-3.0, 3.0)) * (j1 - draw(st.sampled_from(list(j1)))) + draw(st.floats(-1.0, 1.0))
        elif mode == "ramp":
            # J2 rises or falls with J1's rank: within a tied J1 cluster, each
            # step ties under a wide J2 band while the ends of the ramp do not.
            j2 = draw(st.floats(-1.0, 1.0)) * np.argsort(np.argsort(j1, kind="stable"))
        elif mode == "rounded":
            j2 = np.round(j1, draw(st.integers(0, 3)))
        else:
            j1 = j2 = np.zeros(n)
        # Bands from none to wide enough that ties are far from transitive.
        band_1, band_2 = (draw(st.sampled_from([0.0, 1e-10, 0.05, 0.3])) * np.abs(j).max() for j in (j1, j2))
    return j1, j2, band_1, band_2


def _copy_first_action(mdp, *rewards):
    """The MDP and rewards with the last action a copy of the first, so returns tie exactly."""
    transition = mdp.transition.copy()
    transition[:, -1] = transition[:, 0]
    for reward in rewards:
        reward[:, -1] = reward[:, 0]
    return TabularMdp(transition=transition, initial_dist=mdp.initial_dist, discount=mdp.discount)


def _oracle_cases():
    """(mdp, reward_1, reward_2, seed): equivalent, negated, near-equivalent and tied pairs."""
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(220):
        n_s, n_a = 1 + i % 6, 1 + (i // 6) % 3
        mdp = random_mdp(7000 + i, n_s, n_a, discount=(0.5, 0.9, 0.99)[i % 3])
        reward = rng.standard_normal((n_s, n_a, n_s))
        shaped = rng.uniform(0.2, 5.0) * apply_potential_shaping(mdp, reward, rng.standard_normal(n_s))
        kind = i % 5
        if kind == 0:
            other = shaped
        elif kind == 1:
            other = -reward
        elif kind == 2:
            other = shaped + 1e-3 * rng.standard_normal(reward.shape)
        elif kind == 3:
            reward = np.full(reward.shape, rng.standard_normal())
            other = np.full(reward.shape, rng.uniform(-2.0, 2.0)) if i % 2 else shaped
        else:
            other = rng.standard_normal(reward.shape)
        cases.append((mdp, reward, other, i))
    return cases


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_deterministic_policies(random_mdp(0, 2, 2))) == 4
        assert len(enumerate_deterministic_policies(random_mdp(0, 3, 4))) == 64

    def test_cap_exceeded(self):
        with pytest.raises(EnumerationCapExceeded, match="sampled"):
            enumerate_deterministic_policies(random_mdp(0, 10, 5))

    def test_policies_are_deterministic_and_exhaustive(self):
        policies = enumerate_deterministic_policies(random_mdp(0, 2, 3))
        seen = {tuple(p.argmax(axis=1)) for p in policies}
        assert len(seen) == 9
        for p in policies:
            assert set(np.unique(p)) <= {0.0, 1.0}

    def test_index_outside_the_policy_space_is_refused(self):
        mdp = random_mdp(0, 2, 2)
        for index, bad in ((4, 4), (-1, -1), (np.array([0, 3, 4]), 4), (np.array([-1, 2]), -1)):
            with pytest.raises(InvalidInstance, match=re.escape(f"policy index {bad} is outside [0, |A|^|S| = 4)")):
                oracles.deterministic_policy(mdp, index)
        assert oracles.deterministic_policy(mdp, np.arange(0)).shape == (0, 2, 2)

    def test_index_beyond_int64_decodes(self):
        mdp = random_mdp(0, 70, 2)
        assert np.array_equal(oracles.deterministic_policy(mdp, 2**70 - 1).argmax(axis=1), np.ones(70))
        assert np.flatnonzero(oracles.deterministic_policy(mdp, 2**69 + 2**64).argmax(axis=1)).tolist() == [64, 69]
        with pytest.raises(InvalidInstance, match=f"policy index {2**70} is outside"):
            oracles.deterministic_policy(mdp, 2**70)


def _package_imports(source: str) -> set[str]:
    """The starclab modules that ``source`` imports, by their names inside the package.

    ``import starclab`` and ``from starclab import *`` count as ``"starclab"``.
    """
    sources = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "starclab"]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "starclab"):
            module = (node.module or "").removeprefix("starclab").lstrip(".")
            names = [module] if module else [alias.name for alias in node.names]
        else:
            continue
        sources.update(name.removeprefix("starclab.").split(".")[0].replace("*", "starclab") for name in names)
    return sources


@pytest.mark.parametrize(
    "line",
    [
        "from . import oracles",
        "from .oracles import regret_witness_search",
        "from starclab import oracles",
        "from starclab import mdp, oracles as o",
        "from starclab.oracles import regret_witness_search",
        "import starclab.oracles",
        "import starclab.oracles as o",
    ],
)
def test_every_import_form_is_read(line):
    assert "oracles" in _package_imports(line)


@pytest.mark.parametrize("line", ["import starclab", "from starclab import *", "from . import *"])
def test_the_whole_package_is_read_as_starclab(line):
    assert _package_imports(line) == {"starclab"}


# The starclab modules each module imports, layer by layer.  The oracles
# read only the MDP and the Bellman layer, and the metric never the oracles.
# ``transforms`` holds the triviality rule that ``metric`` reads, so it must
# never import ``metric``.
PACKAGE_IMPORTS = {
    "_kernels": set(),
    "mdp": {"_kernels"},
    "transforms": {"mdp"},
    "metric": {"mdp", "transforms"},
    "models": {"_kernels", "mdp", "metric"},
    "oracles": {"mdp", "_kernels"},
    "robustness": {"mdp", "metric", "models", "transforms"},
    "reports": {"mdp", "metric", "models", "oracles", "robustness"},
    "acceptance": {"mdp", "metric", "models", "oracles", "robustness", "transforms"},
    "cli": {"acceptance", "mdp", "models", "reports"},
}
PACKAGE_DIR = Path(oracles.__file__).parent


@pytest.mark.parametrize("module", sorted(PACKAGE_IMPORTS))
def test_each_module_imports_exactly_its_row(module):
    assert _package_imports((PACKAGE_DIR / f"{module}.py").read_text()) == PACKAGE_IMPORTS[module]


def test_every_module_has_a_row():
    assert {path.stem for path in PACKAGE_DIR.glob("*.py")} - {"__init__"} == set(PACKAGE_IMPORTS)


def _calls(source: str, name: str) -> int:
    """The calls in ``source`` of ``name``, bare or as an attribute."""
    return sum(
        isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(source))
    )


@pytest.mark.parametrize("line", ["check_residual(r, t, q, f)", "_kernels.check_residual(r, t, q, f)"])
def test_every_call_form_is_read(line):
    assert _calls(line, "check_residual") == 1


def test_only_the_bellman_layer_accepts_residuals():
    # The kernels accept their own solves, so no caller checks a residual twice or builds its own message.
    callers = {path.stem for path in PACKAGE_DIR.glob("*.py") if _calls(path.read_text(), "check_residual")}
    assert callers == {"_kernels"}


class TestSameOrder:
    def test_order_equivalent_pair(self):
        mdp = random_mdp(1, 3, 2)
        reward = random_reward(2, 3, 2)
        other = 2.0 * apply_potential_shaping(mdp, reward, np.arange(3.0))
        assert same_order_oracle(mdp, reward, other)

    def test_negation_pair(self):
        mdp = random_mdp(3, 3, 2)
        reward = random_reward(4, 3, 2)
        assert not same_order_oracle(mdp, reward, -reward)

    def test_agreement_with_distance(self):
        for i in range(20):
            mdp = random_mdp(100 + i, 3, 2)
            r_1 = random_reward(200 + i, 3, 2)
            r_2 = (
                3.0 * apply_potential_shaping(mdp, r_1, np.ones(3))
                if i % 2
                else random_reward(300 + i, 3, 2)
            )
            d = starc_distance(mdp, r_1, r_2).distance
            assert (d < 1e-8) == same_order_oracle(mdp, r_1, r_2, seed=i)

    def test_verdict_independent_of_reward_scale(self):
        # Scaled and shaped pairs rank policies alike and negated pairs
        # oppositely, at every magnitude: ties are judged relative to the
        # returns, and the residual check to the values' roundoff.
        for i in range(30):
            n_s, n_a = 1 + i % 4, 2 + i % 2
            mdp = random_mdp(400 + i, n_s, n_a, discount=(0.5, 0.9, 0.99)[i % 3])
            reward = random_reward(500 + i, n_s, n_a)
            shaped = apply_potential_shaping(mdp, reward, np.arange(n_s, dtype=float) - 1.0)
            for c in 10.0 ** np.arange(-12, 13, 3):
                assert same_order_oracle(mdp, c * reward, 2.0 * c * reward), (i, c)
                assert same_order_oracle(mdp, c * reward, 3.0 * c * shaped), (i, c)
                assert not same_order_oracle(mdp, c * reward, -c * reward), (i, c)


class TestBatchedOracles:
    def test_same_order_matches_per_policy_loop(self):
        cases = _oracle_cases()
        verdicts = []
        for mdp, r_1, r_2, seed in cases:
            verdict = same_order_oracle(mdp, r_1, r_2, seed=seed)
            assert verdict == _reference_same_order(mdp, r_1, r_2, seed=seed), (mdp.n_states, mdp.n_actions, seed)
            verdicts.append(verdict)
        assert len(cases) >= 200
        assert 40 <= sum(verdicts) <= len(cases) - 40  # both verdicts well represented

    def test_deterministic_returns_match_policy_return(self):
        for i in range(30):
            n_s, n_a = 1 + i % 5, 1 + i % 3
            mdp = random_mdp(900 + i, n_s, n_a, discount=0.95)
            rewards = [random_reward(950 + i, n_s, n_a), 1e3 * random_reward(990 + i, n_s, n_a)]
            expected = np.stack([np.einsum("sat,sat->sa", mdp.transition, r) for r in rewards])
            batched = oracles._deterministic_returns(mdp, expected, oracles.DEFAULT_CAP)
            policies = enumerate_deterministic_policies(mdp)
            assert batched.shape == (2, len(policies))
            for k, reward in enumerate(rewards):
                looped = np.array([policy_return(mdp, reward, p) for p in policies])
                assert np.abs(batched[k] - looped).max() <= 1e-12 * np.abs(looped).max()

    def test_policy_stack_matches_decoder(self):
        mdp = random_mdp(3, 4, 3)
        stack = oracles._deterministic_policies(mdp, 3**4)
        for index in (0, 1, 2, 3, 40, 80):
            assert np.array_equal(stack[index], oracles.deterministic_policy(mdp, index))
        # State s reads base-3 digit s: 5 = 2 + 1 * 3.
        assert np.array_equal(oracles.deterministic_policy(mdp, 5).argmax(axis=1), [2, 1, 0, 0])

    def test_stochastic_stream_matches_per_pair_draws(self, monkeypatch):
        seen, compared = [], []
        stacked, signs = oracles._stacked_returns, oracles._signs

        def spy_returns(mdp, policies, expected):
            seen.append(policies)
            return stacked(mdp, policies, expected)

        def spy_signs(diffs, band):
            compared.append(diffs)
            return signs(diffs, band)

        monkeypatch.setattr(oracles, "_stacked_returns", spy_returns)
        monkeypatch.setattr(oracles, "_signs", spy_signs)
        mdp = random_mdp(21, 3, 3)
        reward = random_reward(22, 3, 3)
        assert same_order_oracle(mdp, reward, 2.0 * reward, seed=17)
        rng = np.random.default_rng(17)
        draws, diffs = [], []
        for _ in range(oracles.N_STOCHASTIC_PAIRS):
            pol_a = rng.dirichlet(np.ones(3), size=3)
            pol_b = rng.dirichlet(np.ones(3), size=3)
            draws += [pol_a, pol_b]
            diffs.append(policy_return(mdp, reward, pol_a) - policy_return(mdp, reward, pol_b))
        assert np.array_equal(seen[-1], np.stack(draws))
        # The reward-1 differences compared are those of the per-pair draws, pair by pair.
        assert np.abs(compared[-2] - np.array(diffs)).max() < 1e-12

    def test_forced_residual_failure_raises(self, monkeypatch):
        mdp = random_mdp(31, 3, 2)
        reward = random_reward(32, 3, 2)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
        with pytest.raises(ConvergenceError) as info:
            same_order_oracle(mdp, reward, 2.0 * reward)
        assert info.value.residual > DEFAULT_DP_TOL

    @settings(max_examples=800, deadline=None)
    @given(_returns_and_bands())
    def test_sort_and_sweep_matches_sign_tables(self, case):
        sweep, tables = _both_verdicts(*case)
        assert sweep == tables

    def test_sort_and_sweep_edge_cases(self):
        one, zeros = np.array([2.5]), np.zeros(5)
        for j1, j2, band_1, band_2 in (
            (one, -one, 0.0, 0.0),
            (zeros, zeros, 0.0, 0.0),
            (zeros, np.array([0.0, 0.0, 1e-300, 0.0, 0.0]), 0.0, 0.0),
            (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]), 1.5, 1.5),  # 0~1, 1~2, yet 0<2
            (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.2]), 1.5, 1.5),
            (100.0 + np.arange(5.0) / 10, np.arange(5.0) / 4, 30.0, 0.3),  # a rising chain of J2 ties
            (100.0 + np.arange(5.0) / 10, 1.0 - np.arange(5.0) / 4, 30.0, 0.3),  # a falling one
            (np.array([1.0, np.inf]), np.array([1.0, np.inf]), np.inf, np.inf),
        ):
            sweep, tables = _both_verdicts(j1, j2, band_1, band_2)
            assert sweep == tables, (j1, j2, band_1, band_2)

    def test_no_pairwise_table_at_the_cap(self, monkeypatch):
        # S=4, A=8: 4096 deterministic policies, the enumeration cap.  Only the
        # stochastic pairs' differences may reach ``_signs``.
        sizes, signs = [], oracles._signs

        def spy_signs(diffs, band):
            sizes.append(diffs.size)
            return signs(diffs, band)

        monkeypatch.setattr(oracles, "_signs", spy_signs)
        mdp = random_mdp(41, 4, 8)
        reward = random_reward(42, 4, 8)
        assert 8**4 == oracles.DEFAULT_CAP
        assert same_order_oracle(mdp, reward, 2.0 * apply_potential_shaping(mdp, reward, np.arange(4.0)))
        assert not same_order_oracle(mdp, reward, -reward)
        assert sizes and max(sizes) <= oracles.N_STOCHASTIC_PAIRS

    def test_deterministic_returns_match_one_hot_solve_bit_for_bit(self):
        for i in range(30):
            n_s, n_a = 1 + i % 6, 1 + i % 4
            mdp = random_mdp(1200 + i, n_s, n_a, discount=(0.5, 0.9, 0.99)[i % 3])
            expected = 10.0 ** (i % 7 - 3) * np.random.default_rng(i).standard_normal((2, n_s, n_a))
            size = n_a**n_s
            one_hot = oracles._stacked_returns(mdp, oracles._deterministic_policies(mdp, size), expected)
            assert np.array_equal(oracles._deterministic_returns(mdp, expected, oracles.DEFAULT_CAP), one_hot)

    def test_regret_witness_matches_loop(self):
        rng = np.random.default_rng(5)
        instances = []
        for i in range(60):
            n_s, n_a = 1 + i % 5, 1 + i % 3
            mdp = random_mdp(400 + i, n_s, n_a)
            r_1 = rng.standard_normal((n_s, n_a, n_s))
            r_2 = -r_1 if i % 3 == 0 else rng.standard_normal((n_s, n_a, n_s))
            if i % 2:
                mdp = _copy_first_action(mdp, r_1, r_2)
            expected = np.stack([np.einsum("sat,sat->sa", mdp.transition, r) for r in (r_1, r_2)])
            instances.append(oracles._deterministic_returns(mdp, expected, oracles.DEFAULT_CAP))
        for _ in range(60):
            size = int(rng.integers(1, 40))  # small integer returns: many exact ties
            instances.append(rng.integers(-3, 4, size=(2, size)).astype(float))
        for j1, j2 in instances:
            regret, pair = oracles._regret_witness(j1, j2)
            ref_regret, ref_pair = _reference_regret_witness(j1, j2)
            assert regret == ref_regret
            assert pair == ref_pair


class TestMonteCarlo:
    def test_zero_reward(self, mdp_4x3):
        policy = np.full((4, 3), 1 / 3)
        assert monte_carlo_return(mdp_4x3, np.zeros((4, 3, 4)), policy, 50, 100, 0) == (0.0, 0.0)

    def test_deterministic_chain(self, one_state_mdp):
        mdp = one_state_mdp(1, discount=0.5)
        estimate, stderr = monte_carlo_return(
            mdp, np.ones((1, 1, 1)), np.ones((1, 1)), horizon=60, n_rollouts=100, seed=0
        )
        assert estimate == pytest.approx(2.0, abs=1e-9)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_statistical_agreement(self):
        mdp = random_mdp(5, 4, 2, discount=0.8)
        reward = random_reward(6, 4, 2)
        policy = np.full((4, 2), 0.5)
        horizon = int(np.ceil(np.log(1e-8) / np.log(mdp.discount)))
        estimate, stderr = monte_carlo_return(mdp, reward, policy, horizon, 50_000, seed=1)
        assert abs(estimate - policy_return(mdp, reward, policy)) < 3 * stderr

    def test_seed_determinism(self, mdp_4x3, reward_4x3):
        policy = np.full((4, 3), 1 / 3)
        a = monte_carlo_return(mdp_4x3, reward_4x3, policy, 30, 1000, seed=7)
        b = monte_carlo_return(mdp_4x3, reward_4x3, policy, 30, 1000, seed=7)
        assert a == b

    def test_policy_is_checked(self, mdp_4x3, reward_4x3):
        with pytest.raises(InvalidInstance, match="^policy has non-finite entries$"):
            monte_carlo_return(mdp_4x3, reward_4x3, np.full((4, 3), np.nan), 30, 100, seed=0)


class TestRegretWitness:
    def test_identical_rewards(self):
        mdp = random_mdp(7, 3, 2)
        reward = random_reward(8, 3, 2)
        regret, _ = regret_witness_search(mdp, reward, reward)
        assert regret < 1e-12

    def test_negation_attains_one_with_extreme_witnesses(self):
        mdp = random_mdp(9, 3, 2)
        reward = random_reward(10, 3, 2)
        regret, (pi_1, pi_2) = regret_witness_search(mdp, reward, -reward)
        assert regret == pytest.approx(1.0, abs=1e-8)
        returns = [
            policy_return(mdp, reward, p) for p in enumerate_deterministic_policies(mdp)
        ]
        assert policy_return(mdp, reward, pi_1) == pytest.approx(max(returns), abs=1e-9)
        assert policy_return(mdp, reward, pi_2) == pytest.approx(min(returns), abs=1e-9)

    def test_interpolation_family_endpoints_and_range(self):
        mdp = random_mdp(11, 3, 2)
        reward = random_reward(12, 3, 2)
        values = []
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            other = (1 - t) * reward + t * (-reward)
            regret, _ = regret_witness_search(mdp, reward, other)
            values.append(regret)
        assert values[0] < 1e-12
        assert values[-1] == pytest.approx(1.0, abs=1e-8)
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)
