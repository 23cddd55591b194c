"""One rule for every number that enters starclab.

Every scalar parameter is read through ``mdp.check_number``, so a bad one is
refused as ``<name>: must be <what>, got <value>`` wherever it enters, and the
config's tables are the library's own rules.
"""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import starclab
from starclab import (
    BehavioralModelSpec,
    HypothesisSet,
    PolicyMetricSpec,
    TabularMdp,
    TransformChain,
    materialize_model,
    random_mdp,
    random_reward,
    reports,
)
from starclab import oracles, robustness, transforms
from starclab.mdp import COUNT, DISCOUNT, FINITE, NON_NEGATIVE, NUMBER, POSITIVE, SEED, InvalidInstance
from starclab.robustness import GRID_SIDE

nan, inf = math.nan, math.inf

# Values each rule refuses: NaN, the infinities, the edges of its range, and
# values of the wrong type (a string, a bool, a non-integral number).
BAD = {
    NUMBER: (nan, np.float64(nan), "1", True, None),
    FINITE: (nan, inf, -inf, "1", True, None, 10**400),
    NON_NEGATIVE: (nan, inf, -1, -1e-300, "1", True),
    POSITIVE: (nan, inf, 0, 0.0, -1, "1", True),
    DISCOUNT: (nan, 0, 0.0, 1, 1.0, -0.5, 1.5, "0.9", True),
    SEED: (-1, 2.5, 1.0, True, "1", None, nan),
    COUNT: (0, -1, 2.5, 3.0, True, "1", nan),
    GRID_SIDE: (1, 0, 2.5, 3.0, True, "3", nan),
}


@pytest.fixture(scope="module")
def problem():
    """A small ε-robustness problem: a Boltzmann f and an MCE g over three hypotheses."""
    mdp = random_mdp(0, 3, 2)
    hypotheses = [(f"r{i}", random_reward(i, 3, 2)) for i in range(3)]
    f = materialize_model(BehavioralModelSpec("boltzmann", mdp, beta=1.0), hypotheses)
    g = materialize_model(BehavioralModelSpec("mce", mdp, alpha=1.0), hypotheses)
    return mdp, HypothesisSet(tuple(hypotheses)), f, g


def _sites(mdp, hyp, f, g):
    """(site, name, rule, call): each entry point, the parameter it reads, and a call taking a bad value."""
    reward = random_reward(1, 3, 2)
    spec = BehavioralModelSpec("boltzmann", mdp, beta=1.0)
    cert = robustness.discount_counterexample(mdp).to_dict()
    l2 = PolicyMetricSpec("l2")
    ones = np.ones((1, 1, 1))
    return [
        ("TabularMdp", "discount", DISCOUNT, lambda v: TabularMdp(ones, np.ones(1), v)),
        ("random_mdp", "n_states", COUNT, lambda v: random_mdp(0, v, 2)),
        ("random_mdp", "n_actions", COUNT, lambda v: random_mdp(0, 3, v)),
        ("random_mdp", "concentration", POSITIVE, lambda v: random_mdp(0, 3, 2, concentration=v)),
        ("random_reward", "n_states", COUNT, lambda v: random_reward(0, v, 2)),
        ("random_reward", "n_actions", COUNT, lambda v: random_reward(0, 3, v)),
        ("random_reward", "scale", FINITE, lambda v: random_reward(0, 3, 2, scale=v)),
        ("BehavioralModelSpec", "model.beta", POSITIVE, lambda v: BehavioralModelSpec("boltzmann", mdp, beta=v)),
        ("BehavioralModelSpec", "model.alpha", POSITIVE, lambda v: BehavioralModelSpec("mce", mdp, alpha=v)),
        ("apply_redistribution_noise", "magnitude", NON_NEGATIVE,
         lambda v: transforms.apply_redistribution_noise(mdp, reward, 0, v)),
        ("invisible_reward_discount", "gamma_1", DISCOUNT, lambda v: transforms.invisible_reward_discount(mdp, v, 0.5)),
        ("invisible_reward_discount", "gamma_2", DISCOUNT, lambda v: transforms.invisible_reward_discount(mdp, 0.5, v)),
        ("shaping_tensor", "discount", DISCOUNT, lambda v: transforms.shaping_tensor(mdp, np.ones(3), v)),
        ("apply_step", "scale c", POSITIVE, lambda v: transforms.apply_step(mdp, reward, transforms.Scale(v))),
        ("TransformChain.from_json", "scale c", POSITIVE,
         lambda v: TransformChain.from_json(json.dumps([{"kind": "scale", "c": v}]))),
        ("check_epsilon_robust", "epsilon", NUMBER, lambda v: robustness.check_epsilon_robust(f, g, hyp, mdp, v)),
        ("check_epsilon_robust", "eta", NON_NEGATIVE,
         lambda v: robustness.check_epsilon_robust(f, g, hyp, mdp, 0.1, eta=v)),
        # f = g: at eta = NaN no policy pair compares equal, so condition 4 went unreported.
        ("check_epsilon_robust f = g", "eta", NON_NEGATIVE,
         lambda v: robustness.check_epsilon_robust(f, f, hyp, mdp, 0.1, eta=v)),
        ("min_robust_epsilon", "eta", NON_NEGATIVE, lambda v: robustness.min_robust_epsilon(f, g, hyp, mdp, eta=v)),
        ("two_epsilon_lemma_check", "epsilon", NUMBER,
         lambda v: robustness.two_epsilon_lemma_check(f, g, hyp, mdp, v)),
        ("two_epsilon_lemma_check", "eta", NON_NEGATIVE,
         lambda v: robustness.two_epsilon_lemma_check(f, g, hyp, mdp, 1.0, eta=v)),
        ("verify_transformation_bound", "epsilon", NON_NEGATIVE,
         lambda v: robustness.verify_transformation_bound(mdp, TransformChain(()), [reward], v)),
        ("perturbation_counterexample", "c", POSITIVE, lambda v: robustness.perturbation_counterexample(mdp, c=v)),
        ("perturbation_counterexample", "delta", POSITIVE,
         lambda v: robustness.perturbation_counterexample(mdp, delta=v)),
        ("separation_witness_search", "budget", COUNT,
         lambda v: robustness.separation_witness_search(spec, mdp, l2, 0.5, 0.1, budget=v)),
        ("separation_witness_search", "epsilon", NON_NEGATIVE,
         lambda v: robustness.separation_witness_search(spec, mdp, l2, v, 0.1)),
        ("separation_witness_search", "delta", NON_NEGATIVE,
         lambda v: robustness.separation_witness_search(spec, mdp, l2, 0.5, v)),
        ("torus_gridworld", "n", GRID_SIDE, lambda v: robustness.torus_gridworld(v)),
        ("CounterexampleCertificate.from_dict", "policy_gap", FINITE,
         lambda v: robustness.CounterexampleCertificate.from_dict({**cert, "policy_gap": v})),
        ("CounterexampleCertificate.from_dict", "distance", FINITE,
         lambda v: robustness.CounterexampleCertificate.from_dict({**cert, "distance": v})),
        ("enumerate_deterministic_policies", "cap", COUNT, lambda v: oracles.enumerate_deterministic_policies(mdp, v)),
        ("same_order_oracle", "cap", COUNT, lambda v: oracles.same_order_oracle(mdp, reward, reward, cap=v)),
    ]


def test_every_site_refuses_a_bad_number_by_name(problem):
    for site, name, rule, call in _sites(*problem):
        for bad in BAD[rule]:
            with pytest.raises(InvalidInstance, match=rf"^{re.escape(name)}: must be {re.escape(rule.what)}, got "):
                call(bad)
                pytest.fail(f"{site} accepted {name} = {bad!r}")


def test_thresholds_keep_their_valid_range(problem):
    # epsilon may be any number but NaN: min_robust_epsilon returns inf, and a
    # caller may probe just below a zero epsilon.
    mdp, hyp, f, g = problem
    epsilon = robustness.min_robust_epsilon(f, f, hyp, mdp)
    assert epsilon == inf
    for value in (inf, -1e-6, 0, np.float64(0.3)):
        robustness.check_epsilon_robust(f, g, hyp, mdp, value)
    assert robustness.check_epsilon_robust(f, f, hyp, mdp, 0.1, eta=0.0).violations[-1]["condition"] == 4
    assert robustness.separation_witness_search(
        BehavioralModelSpec("boltzmann", mdp, beta=1.0), mdp, PolicyMetricSpec("l2"), 1.5, 0.0
    ) is None


def _generator_call(key, value):
    base = {"seed": 0, "n_states": 3, "n_actions": 2, key: value}
    return random_mdp(**base) if key in reports._MDP_SPEC else random_reward(**base)


def _run_kind(kind, key, value):
    """Run ``kind`` with option ``key`` set, bypassing the config's own check."""
    spec = reports.EXPERIMENT_KINDS[kind]
    mdps = [random_mdp(seed, 3, 2) for seed, _ in enumerate(spec.mdps)]
    rewards = [random_reward(seed, 3, 2) for seed, _ in enumerate(spec.rewards)]
    # alpha is read only by the mce model.
    extra = {"model_kind": "mce"} if key == "alpha" and "model_kind" in spec.options else {}
    return spec.run(*mdps, *rewards, **{key: value, **extra})


def test_config_rules_are_the_library_rules():
    # Whatever the config refuses, the library function that reads the value
    # refuses too, so the two cannot drift apart.
    for key, rule in reports._SPEC_VALUES.items():
        for bad in BAD[rule]:
            with pytest.raises(InvalidInstance, match=rf"^{key}: must be {re.escape(rule.what)}"):
                _generator_call(key, bad)
    for key, rule in reports._OPTION_VALUES.items():
        kinds = [name for name, kind in reports.EXPERIMENT_KINDS.items() if key in kind.options]
        assert kinds, key
        for kind in kinds:
            for bad in BAD[rule]:
                with pytest.raises(InvalidInstance, match="must be"):
                    _run_kind(kind, key, bad)
                    pytest.fail(f"{kind} accepted {key} = {bad!r}")


def test_every_seed_is_checked_where_it_enters(problem):
    # No library function draws from a seed that is not a non-negative
    # integer: None would draw an unseeded, unreproducible result.
    mdp = problem[0]
    reward = random_reward(1, 3, 2)
    spec = BehavioralModelSpec("boltzmann", mdp, beta=1.0)
    calls = {
        "random_mdp": lambda v: random_mdp(v, 3, 2),
        "random_reward": lambda v: random_reward(v, 3, 2),
        "apply_redistribution_noise": lambda v: transforms.apply_redistribution_noise(mdp, reward, v, 1.0),
        "invisible_reward_discount": lambda v: transforms.invisible_reward_discount(mdp, 0.9, 0.5, seed=v),
        "discount_counterexample": lambda v: robustness.discount_counterexample(mdp, seed=v),
        "perturbation_counterexample": lambda v: robustness.perturbation_counterexample(mdp, seed=v),
        "separation_witness_search": lambda v: robustness.separation_witness_search(
            spec, mdp, PolicyMetricSpec("l2"), 0.5, 0.1, seed=v
        ),
        "optimality_nonrobustness_witness": lambda v: robustness.optimality_nonrobustness_witness(mdp, seed=v),
        "same_order_oracle": lambda v: oracles.same_order_oracle(mdp, reward, -reward, seed=v),
    }
    for site, call in calls.items():
        for bad in BAD[SEED]:
            with pytest.raises(InvalidInstance, match=rf"^seed: must be {re.escape(SEED.what)}, got "):
                call(bad)
                pytest.fail(f"{site} accepted seed = {bad!r}")


def test_concentration_and_discount_refused_at_config_time():
    for params, path in (
        ({"mdp": {"concentration": -1}}, "params.mdp.concentration: must be a finite positive number, got -1"),
        ({"mdp": {"discount": 1.5}}, "params.mdp.discount: must be a number in (0, 1), got 1.5"),
    ):
        with pytest.raises(InvalidInstance, match=f"^{re.escape(path)}$"):
            reports.ExperimentConfig("starc-distance", params)


def test_one_number_rule_in_the_package():
    # is_finite_real is called only where the rules are defined, and no module
    # but mdp (and robustness, for the grid side beside torus_gridworld) makes a rule.
    package = Path(starclab.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if path.name != "mdp.py":
            assert "is_finite_real" not in names, path.name
        if path.name not in ("mdp.py", "robustness.py"):
            assert "Rule" not in names, path.name
    for name in ("_is_int", "_check_value", "_SEED", "_FINITE", "_POSITIVE", "_DISCOUNT"):
        assert not hasattr(reports, name), name
    shared = (NUMBER, FINITE, NON_NEGATIVE, POSITIVE, DISCOUNT, SEED, COUNT, GRID_SIDE)
    for rule in (*reports._SPEC_VALUES.values(), *reports._OPTION_VALUES.values()):
        assert any(rule is known for known in shared), rule
