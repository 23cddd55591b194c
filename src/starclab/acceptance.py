"""Release acceptance suite: twelve self-contained checks with pass/fail lines.

Each criterion is a check declared with ``criterion`` and its time budget:
the check appends what went wrong to a list of failures and returns a
summary of what it checked.  ``criterion`` times, judges and reports it, so
every criterion returns the same dict, with its wall time as ``elapsed_s``.
``run_all`` runs them in order and prints one ``status_line`` per criterion.
Check 9 is expected to fail: its nudge-size bound ``sin(2*arcsin(eps/2))``
is strictly smaller than the smallest nudge any decomposition can use at
distance ``eps`` (see the README), and we report that honestly rather than
loosening the bound.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .mdp import InvalidInstance, TabularMdp, random_mdp, random_reward, seeded_rng, three_state_chain
from .metric import starc_distance, standardize
from .models import BehavioralModelSpec, ModelTable, boltzmann_policy, materialize_model, mce_policy
from .models import optimal_policy_uniform
from .oracles import regret_witness_search, same_order_oracle
from .robustness import (
    HypothesisSet,
    check_epsilon_robust,
    decompose_transformation,
    discount_counterexample,
    gridworld_demo,
    optimality_nonrobustness_witness,
    perturbation_counterexample,
    transition_counterexample,
    two_epsilon_lemma_check,
    verify_transformation_bound,
)
from .transforms import apply_potential_shaping, apply_redistribution_noise, project_invariant


def criterion(name: str, budget_s: float = math.inf):
    """Make a check ``(failures) -> summary`` into the criterion callable ``name``.

    The callable runs the check once, timed.  An exception the check raises
    is recorded as a failure naming its type and message, and ends the
    check, not the suite.  The criterion passes iff no failure was recorded
    and it took under ``budget_s`` seconds.  It returns ``{"name", "passed",
    "details", "elapsed_s"}``, where ``details`` is the summary, the failure
    count, the time and the first three failures.
    """

    def declare(check):
        @functools.wraps(check)
        def run() -> dict:
            failures: list[str] = []
            summary = None
            start = time.perf_counter()
            try:
                summary = check(failures)
            except Exception as exc:  # a broken check fails its own criterion only
                failures.append(f"raised {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            if not elapsed < budget_s:
                failures.append(f"took {elapsed:.1f}s, over its {budget_s:g}s budget")
            details = ", ".join(filter(None, (summary, f"{len(failures)} failed", f"{elapsed:.2f}s")))
            return {
                "name": name,
                "passed": not failures,
                "details": details + (": " + "; ".join(failures[:3]) if failures else ""),
                "elapsed_s": elapsed,
            }

        return run

    return declare


def _random_shaped_equivalent(mdp, reward, seed, scale=2.0):
    rng = seeded_rng(seed)
    shaped = apply_potential_shaping(mdp, reward, rng.standard_normal(mdp.n_states))
    shaped = apply_redistribution_noise(mdp, shaped, seed=seed + 1, magnitude=1.0)
    return scale * shaped


@criterion("metric axioms (1000 triples)", budget_s=60)
def criterion_1(failures: list[str]) -> str:
    """Pseudometric axioms on 1000 seeded reward triples."""
    rng = seeded_rng(11)
    n_triples = 0
    for mdp_idx in range(40):
        n_s = int(rng.integers(2, 9))
        n_a = int(rng.integers(2, 4))
        mdp = random_mdp(1000 + mdp_idx, n_s, n_a)
        for t in range(25):
            n_triples += 1
            r = [rng.standard_normal((n_s, n_a, n_s)) for _ in range(3)]
            d01 = starc_distance(mdp, r[0], r[1]).distance
            d10 = starc_distance(mdp, r[1], r[0]).distance
            d02 = starc_distance(mdp, r[0], r[2]).distance
            d12 = starc_distance(mdp, r[1], r[2]).distance
            d_self = starc_distance(mdp, r[0], r[0]).distance
            if d01 != d10:
                failures.append(f"symmetry: {d01} != {d10}")
            if d_self >= 1e-12:
                failures.append(f"identity: d(R,R) = {d_self}")
            if d02 > d01 + d12 + 1e-9:
                failures.append(f"triangle: {d02} > {d01} + {d12}")
            for d in (d01, d02, d12):
                if not -1e-12 <= d <= 1 + 1e-12:
                    failures.append(f"range: {d}")
    if n_triples != 1000:
        failures.append(f"checked {n_triples} triples, not 1000")
    return f"{n_triples} triples"


@criterion("landmark distances (scale/negation/trivial)")
def criterion_2(failures: list[str]) -> str:
    """Landmark distances: scaling 0, negation 1, trivial 0.5."""
    for seed in range(5):
        mdp = random_mdp(seed, 4, 3)
        reward = random_reward(seed + 100, 4, 3)
        for c in (0.1, 3.0):
            d = starc_distance(mdp, reward, c * reward).distance
            if d >= 1e-8:
                failures.append(f"scale c={c}: d={d}")
        unit = standardize(mdp, reward)
        d_neg = starc_distance(mdp, unit, -unit).distance
        if abs(d_neg - 1.0) > 1e-8:
            failures.append(f"negation: d={d_neg}")
        trivial = np.full((4, 3, 4), 2.5)
        d_triv = starc_distance(mdp, unit, trivial).distance
        if abs(d_triv - 0.5) > 1e-8:
            failures.append(f"trivial: d={d_triv}")
    return "5 instances x 4 landmarks"


@criterion("distance/ordering oracle equivalence (200 pairs)", budget_s=300)
def criterion_3(failures: list[str]) -> str:
    """Zero distance iff identical policy ordering, on 200 seeded pairs."""
    sizes = [(5, 2), (3, 3), (4, 2), (2, 3)]
    n_pairs = 0
    for i in range(200):
        n_s, n_a = sizes[i % len(sizes)]
        mdp = random_mdp(3000 + i, n_s, n_a)
        r_1 = random_reward(4000 + i, n_s, n_a)
        if i % 2 == 0:
            r_2 = _random_shaped_equivalent(mdp, r_1, seed=5000 + i, scale=0.5 + (i % 5))
        else:
            r_2 = random_reward(6000 + i, n_s, n_a)
        n_pairs += 1
        d = starc_distance(mdp, r_1, r_2).distance
        same = same_order_oracle(mdp, r_1, r_2, seed=i)
        if (d < 1e-8) != same:
            failures.append(f"pair {i}: distance {d:.2e} but same order {same}")
    if n_pairs != 200:
        failures.append(f"checked {n_pairs} pairs, not 200")
    return f"{n_pairs} pairs"


@criterion("behavioural-model shaping/redistribution invariance")
def criterion_4(failures: list[str]) -> str:
    """Boltzmann and MCE invariance to shaping+redistribution chains."""
    worst = 0.0
    count = 0
    for i in range(100):
        mdp = random_mdp(7000 + i, 4, 3)
        reward = random_reward(8000 + i, 4, 3)
        rng = seeded_rng(9000 + i)
        shaped = apply_potential_shaping(mdp, reward, rng.standard_normal(4))
        shaped = apply_redistribution_noise(mdp, shaped, seed=9500 + i, magnitude=1.0)
        for param in (0.5, 1.0, 5.0):
            gap_b = np.abs(boltzmann_policy(mdp, reward, param) - boltzmann_policy(mdp, shaped, param)).max()
            gap_m = np.abs(mce_policy(mdp, reward, param) - mce_policy(mdp, shaped, param)).max()
            worst = np.max([worst, gap_b, gap_m])  # np.max keeps a NaN gap
            count += 1
    if not worst < 1e-6:
        failures.append(f"worst policy gap {worst:.2e} is not below 1e-6")
    return f"{count} chain/parameter combinations, worst policy gap {worst:.2e}"


@criterion("temperature/weight rescaling identities")
def criterion_5(failures: list[str]) -> str:
    """Temperature/weight rescaling identities for Boltzmann and MCE."""
    worst = 0.0
    for i in range(50):
        mdp = random_mdp(10000 + i, 4, 3)
        reward = random_reward(11000 + i, 4, 3)
        for c in (0.5, 2.0, 10.0):
            gap_b = np.abs(boltzmann_policy(mdp, reward, 1.0) - boltzmann_policy(mdp, c * reward, 1.0 / c)).max()
            gap_m = np.abs(mce_policy(mdp, reward, 1.0) - mce_policy(mdp, c * reward, c)).max()
            worst = np.max([worst, gap_b, gap_m])  # np.max keeps a NaN gap
    if not worst < 1e-8:
        failures.append(f"worst policy gap {worst:.2e} is not below 1e-8")
    return f"50 instances x 3 scales, worst policy gap {worst:.2e}"


@criterion("discount-misspecification certificates", budget_s=10)
def criterion_6(failures: list[str]) -> str:
    """Discount-misspecification certificates: invisible at gamma1, opposite at gamma2."""
    mdps = [("chain", three_state_chain())]
    for i in range(10):
        mdps.append((f"random-{i}", random_mdp(12000 + i, 4, 3)))
    for gamma_1, gamma_2 in ((0.9, 0.95), (0.5, 0.9)):
        for name, mdp in mdps:
            cert = discount_counterexample(mdp, gamma_1, gamma_2, model_kind="boltzmann", beta=1.0)
            if cert.policy_gap >= 1e-6:
                failures.append(f"{name} ({gamma_1},{gamma_2}): gap {cert.policy_gap:.2e}")
            if abs(cert.distance - 1.0) > 1e-6:
                failures.append(f"{name} ({gamma_1},{gamma_2}): distance {cert.distance}")
            if not cert.verify():
                failures.append(f"{name}: certificate does not re-verify")
    return "22 certificates"


def _three_state_kernel_pair() -> tuple[TabularMdp, TabularMdp]:
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


@criterion("transition-misspecification certificates", budget_s=10)
def criterion_7(failures: list[str]) -> str:
    """Transition-misspecification certificates: 3-state pair and torus gridworld."""
    mdp_1, mdp_2 = _three_state_kernel_pair()
    for name, cert in (
        ("3-state", transition_counterexample(mdp_1, mdp_2, model_kind="boltzmann", beta=1.0)),
        ("gridworld", gridworld_demo(n=3)),
    ):
        if cert.policy_gap >= 1e-6:
            failures.append(f"{name}: gap {cert.policy_gap:.2e}")
        if cert.distance < 0.99:
            failures.append(f"{name}: distance {cert.distance}")
        if not cert.verify():
            failures.append(f"{name}: certificate does not re-verify")
    return "2 certificates"


@criterion("policy-perturbation certificates", budget_s=30)
def criterion_8(failures: list[str]) -> str:
    """Perturbation certificates: distance-1 pairs with arbitrarily close policies."""
    for i in range(10):
        mdp = random_mdp(13000 + i, 4, 3)
        for delta in (1e-1, 1e-2, 1e-3):
            cert = perturbation_counterexample(
                mdp, model_kind="boltzmann", beta=1.0, c=1.0, delta=delta, seed=i
            )
            if cert.policy_gap >= delta:
                failures.append(f"mdp {i}, delta {delta}: gap {cert.policy_gap:.2e}")
            if abs(cert.distance - 1.0) > 1e-6:
                failures.append(f"mdp {i}, delta {delta}: distance {cert.distance}")
    return "30 certificates"


@criterion("transformation-chain decomposition round trip")
def criterion_9(failures: list[str]) -> str:
    """Chain decomposition round trip and nudge-size bound (expected to fail).

    Recomposition is exact to 1e-8, but the nudge bound sin(2*arcsin(eps/2))
    is below the geometric minimum sin(2*arcsin(eps)) for every eps in (0,1),
    so the bound sub-check cannot pass; we report the failure honestly.
    """
    recompose_fail = bound_fail = confirm_fail = 0
    for i in range(100):
        mdp = random_mdp(14000 + i, 4, 2)
        r_1 = random_reward(15000 + i, 4, 2)
        r_2 = random_reward(16000 + i, 4, 2)
        try:
            chain = decompose_transformation(mdp, r_1, r_2)
        except RuntimeError as exc:
            recompose_fail += 1
            failures.append(f"pair {i}: {exc}")
            continue
        eps = starc_distance(mdp, r_1, r_2).distance + 1e-9
        ok, (probe,) = verify_transformation_bound(mdp, chain, [r_1], eps)
        bound_fail += not probe["nudge_ok"]
        confirm_fail += not ok
        if not ok:
            failures.append(f"pair {i}: nudge {probe['nudge_norm']:.3g}, bound {probe['nudge_bound']:.3g}, "
                            f"distance {probe['distance']:.3g}, eps {eps:.3g}")
    return (
        f"100 pairs: recompose failures {recompose_fail}, "
        f"nudge-bound failures {bound_fail}, verifier failures {confirm_fail} "
        "(bound failures are expected: the stated bound is below the "
        "geometric minimum nudge for any decomposition)"
    )


def _angle_rewards(mdp, angles, seed=0):
    """Unit-canonical rewards at prescribed mutual angles in a canonical 2-plane."""
    e_1 = standardize(mdp, random_reward(seed, mdp.n_states, mdp.n_actions))
    raw = random_reward(seed + 1, mdp.n_states, mdp.n_actions)
    c_2 = raw - project_invariant(mdp, raw)
    c_2 -= (c_2 * e_1).sum() * e_1
    e_2 = c_2 / np.linalg.norm(c_2)
    return [math.cos(t) * e_1 + math.sin(t) * e_2 for t in angles]


@criterion("robustness-checker fidelity")
def criterion_10(failures: list[str]) -> str:
    """Robustness-checker fidelity on hand-built model tables."""
    mdp = random_mdp(42, 4, 3)

    # (a) Four rewards placed so exactly one pair collides under f while far
    # apart: the checker must flag exactly one condition-2 violation.
    t_2 = 2 * math.asin(0.1)
    t_3 = t_2 + 2 * math.asin(0.9)
    t_4 = t_3 + 2 * math.asin(0.1)
    rewards = _angle_rewards(mdp, [0.0, t_2, t_3, t_4], seed=7)
    hyp = HypothesisSet(tuple((f"r{k}", r) for k, r in enumerate(rewards, start=1)))
    pi = [np.zeros((4, 3)) for _ in range(3)]
    pi[0][:, 0] = 1.0
    pi[1][:, 1] = 1.0
    pi[2][:, :] = 1.0 / 3.0
    f_table = ModelTable((("r1", pi[0]), ("r2", pi[1]), ("r3", pi[1]), ("r4", pi[2])))
    g_table = ModelTable((("r1", pi[0]), ("r2", pi[0]), ("r3", pi[2]), ("r4", pi[2])))
    verdict = check_epsilon_robust(f_table, g_table, hyp, mdp, epsilon=0.25)
    conds = sorted(v["condition"] for v in verdict.violations)
    if conds != [2]:
        failures.append(f"4-reward construction: violations {verdict.violations}")

    # (b) g permutes f's outputs along order-preserving reward relabelings
    # (scale-by-2 plus shaping), so every collision is at distance 0: robust
    # at epsilon = 0.  A *pure-shaping* relabeling would make g
    # indistinguishable from a Boltzmann f (condition 4 needs f != g), so the
    # relabeling includes a scale step, which Boltzmann policies do see.
    mdp_b = random_mdp(43, 4, 3)
    x = random_reward(44, 4, 3)
    x_2 = 2.0 * apply_potential_shaping(mdp_b, x, np.arange(4, dtype=float))
    hyp_b = HypothesisSet((("x", x), ("x2", x_2)))
    spec_b = BehavioralModelSpec("boltzmann", mdp_b, beta=1.0)
    f_b = materialize_model(spec_b, list(hyp_b.rewards))
    g_b = ModelTable((("x", f_b.policy("x2")), ("x2", f_b.policy("x"))))
    verdict_b = check_epsilon_robust(f_b, g_b, hyp_b, mdp_b, epsilon=0.0)
    if not verdict_b.robust:
        failures.append(f"relabeling case not robust at eps=0: {verdict_b.violations}")

    # (c) f = g must fail exactly condition 4.
    verdict_c = check_epsilon_robust(f_b, f_b, hyp_b, mdp_b, epsilon=1.0)
    conds_c = sorted(v["condition"] for v in verdict_c.violations)
    if conds_c != [4]:
        failures.append(f"f=g case: violations {verdict_c.violations}")

    # (d) Triangle lemma on the robust verdict from (b).
    if verdict_b.robust and not two_epsilon_lemma_check(f_b, g_b, hyp_b, mdp_b, epsilon=0.0):
        failures.append("2-epsilon lemma failed on robust verdict")
    return "4 hand-built cases"


@criterion("exact-optimality non-robustness witness")
def criterion_11(failures: list[str]) -> str:
    """Exact-optimality witness exists at 1x3 and provably not at 1x2."""
    mdp_3 = TabularMdp(
        transition=np.ones((1, 3, 1)), initial_dist=np.array([1.0]), discount=0.9
    )
    r_1, r_2 = optimality_nonrobustness_witness(mdp_3)
    gap = np.abs(optimal_policy_uniform(mdp_3, r_1) - optimal_policy_uniform(mdp_3, r_2)).max()
    dist = starc_distance(mdp_3, r_1, r_2).distance
    if gap >= 1e-6:
        failures.append(f"witness policies differ: gap {gap:.2e}")
    if dist <= 1e-3:
        failures.append(f"witness distance too small: {dist}")
    mdp_2 = TabularMdp(
        transition=np.ones((1, 2, 1)), initial_dist=np.array([1.0]), discount=0.9
    )
    try:
        optimality_nonrobustness_witness(mdp_2)
    except InvalidInstance:
        pass
    else:
        failures.append("1x2 exclusion did not raise")
    return "1x3 witness, 1x2 exclusion"


@criterion("soundness zero-case (distance vs regret)")
def criterion_12(failures: list[str]) -> str:
    """Zero distance forbids regret; negation attains normalized regret 1."""
    for i in range(20):
        mdp = random_mdp(17000 + i, 4, 2)
        r_1 = random_reward(18000 + i, 4, 2)
        r_2 = _random_shaped_equivalent(mdp, r_1, seed=19000 + i)
        d = starc_distance(mdp, r_1, r_2).distance
        if d < 1e-8:
            regret, _ = regret_witness_search(mdp, r_1, r_2)
            if regret >= 1e-8:
                failures.append(f"pair {i}: d={d:.1e} but regret={regret:.2e}")
        regret_neg, _ = regret_witness_search(mdp, r_1, -r_1)
        if abs(regret_neg - 1.0) > 1e-8:
            failures.append(f"pair {i}: negation regret {regret_neg}")
    return "20 instances"


CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6,
    criterion_7, criterion_8, criterion_9, criterion_10, criterion_11, criterion_12,
]


def status_line(index: int, result: dict) -> str:
    """The one printed line of criterion ``index``'s result."""
    status = "PASS" if result["passed"] else "FAIL"
    return f"[{status}] criterion {index:2d}: {result['name']} — {result['details']}"


def run_all(echo=print) -> list[dict]:
    """Run every criterion in order, echo its ``status_line``, and return the results."""
    results = []
    for i, run in enumerate(CRITERIA, start=1):
        results.append(run())
        echo(status_line(i, results[-1]))
    return results
