"""The benchmark's workloads: inputs made from a seed, timed calls, checks.

A workload is a sequence of rounds; a round is a fixed list of operations.
Each operation has three parts: ``prepare`` makes its inputs (not timed),
``run`` calls starclab (timed) and ``check`` compares the outputs with
independent computations from ``reference`` (not timed) and returns a list
of problems, empty when the outputs are correct.

starclab is always reached through module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
import starclab as sc
from starclab import reports

# Keys that keep the random streams of set-up, warm-up and timed rounds apart.
SETUP_KEY, WARMUP_KEY, ROUND_KEY = 0, 1, 2
# Inputs of the magnitude ladder do not depend on --seed (see Certificates).
LADDER_SEED, WARMUP_LADDER_SEED = 20240311, 20240312


@dataclass
class Op:
    kind: str
    prepare: Callable[[], tuple[Callable, Callable]]
    # Fails on today's code because of a known fault; its failure does not
    # make the run incorrect.
    known_fault: bool = False


def _rng(seed: int, key: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, key, index])


def _random_env(rng, n_states, n_actions):
    transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    return transition, rng.dirichlet(np.ones(n_states))


def _shaping(transition, discount, phi):
    return discount * phi[None, None, :] - phi[:, None, None] + np.zeros_like(transition)


def _redistribution(transition, noise):
    """Remove each (s, a) row's component along tau(s, a, .): zero conditional mean."""
    along = np.einsum("sat,sat->sa", noise, transition) / np.einsum("sat,sat->sa", transition, transition)
    return noise - along[:, :, None] * transition


def _equivalent(rng, transition, discount, reward, scale=1.0):
    n_s = transition.shape[0]
    shaped = reward + _shaping(transition, discount, rng.standard_normal(n_s))
    return scale * (shaped + _redistribution(transition, rng.standard_normal(reward.shape)))


class Workload:
    name = ""
    tail_pct = 90  # the op_tail_ms percentile; needs quota * (1 - tail_pct/100) >= 10
    quota = 100  # operations every run completes, in whole rounds; memory is read right after them

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def warmup(self) -> None:
        """One untimed round on inputs that no timed round reuses."""
        for op in self.ops(_rng(self.seed, WARMUP_KEY), warmup=True):
            run, _ = op.prepare()
            run()

    def round(self, index: int) -> list[Op]:
        return self.ops(_rng(self.seed, ROUND_KEY, index))

    def ops(self, rng, warmup=False) -> list[Op]:
        raise NotImplementedError


class RobustnessAudit(Workload):
    """The paper's pipeline: is model f epsilon-robust to data model g = f o sigma?

    Each operation draws an MDP (S=10, A=3, gamma=0.9) and 18 hypotheses: 10
    unit-scale base rewards, 5 order-equivalent variants (shaping plus
    redistribution, so f gives them the base reward's policy), 2 variants
    that are also rescaled, and one negation.  sigma swaps three disjoint
    pairs of base rewards, so the tightest epsilon is the largest distance
    between swapped rewards.
    """

    name = "robustness-audit"
    n_states, n_actions, discount = 10, 3, 0.9
    models = ({"kind": "boltzmann", "beta": 1.0}, {"kind": "mce", "alpha": 1.0})

    def ops(self, rng, warmup=False):
        return [Op("audit-" + model["kind"], functools.partial(self._make, rng, model)) for model in self.models]

    def _make(self, rng, model):
        n_s, n_a, gamma = self.n_states, self.n_actions, self.discount
        transition, initial = _random_env(rng, n_s, n_a)
        base = rng.standard_normal((10, n_s, n_a, n_s))
        rewards = {f"b{i}": base[i] for i in range(10)}
        planted_same = []
        for i in range(5):
            rewards[f"e{i}"] = _equivalent(rng, transition, gamma, base[i])
            planted_same.append((f"b{i}", f"e{i}"))
        for i in (5, 6):
            rewards[f"s{i}"] = _equivalent(rng, transition, gamma, base[i], scale=rng.uniform(0.5, 2.0))
            planted_same.append((f"b{i}", f"s{i}"))
        rewards["n7"] = -base[7]
        swapped = rng.permutation(10)[:6].reshape(3, 2)
        sigma = {rid: rid for rid in rewards}
        for i, j in swapped:
            sigma[f"b{i}"], sigma[f"b{j}"] = f"b{j}", f"b{i}"
        sigma_pairs = [(f"b{i}", f"b{j}") for i, j in swapped]
        hypotheses = list(rewards.items())
        relabelled = [(rid, rewards[sigma[rid]]) for rid in rewards]
        checked_pairs = planted_same + [("b7", "n7")] + sigma_pairs

        def run():
            mdp = sc.TabularMdp(transition=transition, initial_dist=initial, discount=gamma)
            spec = sc.BehavioralModelSpec(environment=mdp, **model)
            f = sc.materialize_model(spec, hypotheses)
            g = sc.materialize_model(spec, relabelled)
            hyp_set = sc.HypothesisSet(tuple(hypotheses))
            epsilon = sc.min_robust_epsilon(f, g, hyp_set, mdp)
            at = sc.check_epsilon_robust(f, g, hyp_set, mdp, epsilon)
            below = sc.check_epsilon_robust(f, g, hyp_set, mdp, epsilon - 1e-6)
            lemma = sc.two_epsilon_lemma_check(f, g, hyp_set, mdp, epsilon) if at.robust else None
            distances = [sc.starc_distance(mdp, rewards[a], rewards[b]).distance for a, b in checked_pairs]
            return epsilon, at.robust, below.robust, lemma, distances

        def check(out):
            epsilon, robust_at, robust_below, lemma, distances = out
            problems = []
            sigma_ref = [ref.distance(transition, gamma, rewards[a], rewards[b]) for a, b in sigma_pairs]
            for (a, b), d in zip(planted_same, distances):
                if not d < 1e-8:
                    problems.append(f"order-equivalent {a},{b} at distance {d!r}")
            if not abs(distances[len(planted_same)] - 1.0) < 1e-9:
                problems.append(f"negation at distance {distances[len(planted_same)]!r}")
            for (a, b), d, d_ref in zip(sigma_pairs, distances[len(planted_same) + 1 :], sigma_ref):
                if not abs(d - d_ref) < 1e-9:
                    problems.append(f"distance {a},{b} is {d!r}, independent canonicalizer gives {d_ref!r}")
            if not abs(epsilon - max(sigma_ref)) < 1e-9:
                problems.append(f"min_robust_epsilon {epsilon!r}, largest planted sigma distance {max(sigma_ref)!r}")
            if not robust_at or robust_below:
                problems.append(f"verdict robust at epsilon {robust_at}, just below {robust_below}")
            if lemma is not True:
                problems.append(f"two-epsilon lemma check returned {lemma!r}")
            return problems

        return run, check


class SolverSweep(Workload):
    """Fresh rewards on one fixed MDP (S=100, A=5, gamma=0.99): the Bellman solvers."""

    name = "solver-sweep"
    n_states, n_actions, discount = 100, 5, 0.99
    beta, alpha = 1.0, 1.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        transition, initial = _random_env(_rng(seed, SETUP_KEY), self.n_states, self.n_actions)
        self.mdp = sc.TabularMdp(transition=transition, initial_dist=initial, discount=self.discount)

    def ops(self, rng, warmup=False):
        return [Op("sweep", functools.partial(self._make, rng))]

    def _make(self, rng):
        mdp = self.mdp
        transition, initial, gamma = mdp.transition, mdp.initial_dist, mdp.discount
        reward = rng.standard_normal((self.n_states, self.n_actions, self.n_states))

        def run():
            policies = (
                sc.optimal_policy_uniform(mdp, reward),
                sc.boltzmann_policy(mdp, reward, self.beta),
                sc.mce_policy(mdp, reward, self.alpha),
            )
            return [(pi, sc.policy_return(mdp, reward, pi), sc.occupancy_measure(mdp, pi)) for pi in policies]

        def check(out):
            problems = []
            (opt, j_opt, _), _, (mce, _, _) = out
            residual, scale = ref.bellman_residual(transition, gamma, reward, opt)
            if not residual <= 1e-8 * (1.0 + scale):
                problems.append(f"Bellman residual of the optimal policy {residual!r}")
            for label, (pi, j, occupancy) in zip(("optimal", "boltzmann", "mce"), out):
                j_ref = ref.policy_return(transition, initial, gamma, reward, pi)
                if not abs(j - j_ref) <= 1e-9 * (1.0 + abs(j_ref)):
                    problems.append(f"{label} return {j!r}, independent {j_ref!r}")
                inner = float((occupancy * reward).sum())
                if not abs(inner - j) <= 1e-9 * (1.0 + abs(j)):
                    problems.append(f"{label} <occupancy, R> {inner!r} != return {j!r}")
                if label != "optimal" and not j_opt >= j - 1e-9 * (1.0 + abs(j)):
                    problems.append(f"{label} return {j!r} beats the optimal return {j_opt!r}")
            gap = ref.soft_greedy_gap(transition, gamma, reward, mce, self.alpha)
            if not gap <= 1e-7:
                problems.append(f"MCE policy is {gap!r} from its own soft-greedy policy")
            return problems

        return run, check


class Certificates(Workload):
    """reports.run_experiment over a rotation of experiment kinds, read back from JSON.

    Every kind but the ladder runs on fresh small MDPs (S=6, A=3).  The
    magnitude ladder compares (R, c*R) and (c*R, -c*R) for c from 1e-12 to
    1e12 on one MDP and reward that do not depend on --seed: the ladder
    steps with c <= 1e-9 fail on every run because ``metric.zero_tol`` is
    absolute, and are counted as failed.
    """

    name = "certificates"
    n_states, n_actions, discount = 6, 3, 0.9
    magnitudes = (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12)
    tail_pct = 99
    quota = 38 * (9 + 2 * len(magnitudes))  # 38 rounds

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ladder = self._ladder(LADDER_SEED, "ladder")
        self.warmup_ladder = self._ladder(WARMUP_LADDER_SEED, "warmup-ladder")

    def _path(self, name):
        return str(self.workdir / name)

    def _write_mdp(self, name, transition, initial):
        path = self._path(name)
        n_s, n_a, _ = transition.shape
        doc = {"n_states": n_s, "n_actions": n_a, "discount": self.discount,
               "mu0": initial.tolist(), "transition": transition.tolist()}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def _write_reward(self, name, reward):
        path = self._path(name)
        with open(path, "w") as fh:
            json.dump({"values": reward.tolist()}, fh)
        return path

    def _ladder(self, seed, tag):
        rng = np.random.default_rng(seed)
        transition, initial = _random_env(rng, self.n_states, self.n_actions)
        reward = rng.standard_normal(transition.shape)
        files = {"mdp": self._write_mdp(f"{tag}-mdp.json", transition, initial)}
        for c in self.magnitudes:
            files[c] = self._write_reward(f"{tag}-{c:g}.json", c * reward)
            files[-c] = self._write_reward(f"{tag}-{-c:g}.json", -c * reward)
        return files

    def ops(self, rng, warmup=False):
        ops = [
            Op("counterexample-gamma", self._gamma(rng, {"model_kind": "boltzmann"})),
            Op("counterexample-gamma", self._gamma(rng, {"model_kind": "mce"})),
            Op("counterexample-tau", self._tau(rng)),
            Op("counterexample-perturb", self._perturb(rng, 1e-2)),
            Op("counterexample-perturb", self._perturb(rng, 1e-3)),
            Op("counterexample-optimality", self._optimality(rng)),
            Op("gridworld-demo", self._experiment("gridworld-demo", lambda: {"n": 3}, self._check_transition_cert)),
            Op("same-order", self._same_order(rng, equivalent=True)),
            Op("same-order", self._same_order(rng, equivalent=False)),
        ]
        ladder = self.warmup_ladder if warmup else self.ladder
        for c in self.magnitudes:
            ops.append(Op("starc-distance", self._ladder_step(ladder, 1.0, c, 0.0), known_fault=c <= 1e-9))
            ops.append(Op("starc-distance", self._ladder_step(ladder, c, -c, 1.0), known_fault=c <= 1e-9))
        return ops

    def _experiment(self, kind, make_params, check_results):
        """An operation: run the experiment, emit it as JSON, read it back, re-verify."""
        report_path = self._path("report.json")

        def prepare():
            params = make_params()

            def run():
                report = reports.run_experiment(reports.ExperimentConfig(kind, params))
                reports.emit_report(report, "json", report_path)
                back = ref.strict_json_load(report_path)
                cert_doc = back["results"].get("certificate")
                cert = sc.CounterexampleCertificate.from_dict(cert_doc) if cert_doc else None
                return report, back, cert, cert.verify() if cert else None

            def check(out):
                report, back, cert, reverified = out
                problems = []
                if back["schema"] != report["schema"] or back["results"] != report["results"]:
                    problems.append("report read back from JSON differs from the report")
                if cert is not None and not (report["results"]["verified"] and reverified):
                    problems.append(f"certificate verified {report['results']['verified']}, re-verified {reverified}")
                return problems + check_results(params, back["results"], cert)

            return run, check

        return prepare

    def _fresh_mdp(self, rng, name):
        return self._write_mdp(name, *_random_env(rng, self.n_states, self.n_actions))

    def _gamma(self, rng, params):
        def make():
            return dict(params, mdp_file=self._fresh_mdp(rng, "mdp.json"), gamma_1=0.9, gamma_2=0.95,
                        seed=int(rng.integers(1 << 30)))

        def check(params, results, cert):
            problems = self._check_transition_cert(params, results, cert)
            if (cert.mdp_gen.discount, cert.mdp_eval.discount) != (params["gamma_1"], params["gamma_2"]):
                problems.append("certificate discounts differ from the requested ones")
            return problems

        return self._experiment("counterexample-gamma", make, check)

    def _tau(self, rng):
        def make():
            return {"mdp_1_file": self._fresh_mdp(rng, "mdp.json"), "mdp_2_file": self._fresh_mdp(rng, "mdp-2.json"),
                    "model_kind": "boltzmann"}

        return self._experiment("counterexample-tau", make, self._check_transition_cert)

    def _check_transition_cert(self, params, results, cert):
        """Policies within 1e-6 where the model looks, distance 1 where it does not."""
        problems = []
        if not cert.policy_gap < 1e-6:
            problems.append(f"policy gap {cert.policy_gap!r} is not below 1e-6")
        return problems + self._check_opposite(cert)

    def _check_opposite(self, cert):
        d_ref = ref.distance(cert.mdp_eval.transition, cert.mdp_eval.discount, cert.reward_1, cert.reward_2)
        if abs(cert.distance - 1.0) < 1e-6 and abs(d_ref - 1.0) < 1e-6:
            return []
        return [f"certificate distance {cert.distance!r}, independent {d_ref!r}; expected 1"]

    def _perturb(self, rng, delta):
        def make():
            return {"mdp_file": self._fresh_mdp(rng, "mdp.json"), "delta": delta, "model_kind": "boltzmann",
                    "seed": int(rng.integers(1 << 30))}

        def check(params, results, cert):
            problems = self._check_opposite(cert)
            mdp = cert.mdp_gen
            beta = cert.model["beta"]
            policies = [ref.softmax(beta * ref.optimal_q(mdp.transition, mdp.discount, r))
                        for r in (cert.reward_1, cert.reward_2)]
            gap_ref = float(np.linalg.norm(policies[0] - policies[1]))
            if not cert.policy_gap <= delta:
                problems.append(f"policy gap {cert.policy_gap!r} above delta {delta!r}")
            if not abs(gap_ref - cert.policy_gap) <= 1e-7:
                problems.append(f"policy gap {cert.policy_gap!r}, independent {gap_ref!r}")
            return problems

        return self._experiment("counterexample-perturb", make, check)

    def _optimality(self, rng):
        def make():
            return {"mdp_file": self._fresh_mdp(rng, "mdp.json"), "seed": int(rng.integers(1 << 30))}

        def check(params, results, cert):
            with open(params["mdp_file"]) as fh:
                doc = json.load(fh)
            transition, gamma = np.asarray(doc["transition"]), doc["discount"]
            r_1, r_2 = np.asarray(results["reward_1"]), np.asarray(results["reward_2"])
            supports = [ref.greedy_support(ref.optimal_q(transition, gamma, r)) for r in (r_1, r_2)]
            d_ref = ref.distance(transition, gamma, r_1, r_2)
            problems = []
            if not (supports[0] == supports[1]).all():
                problems.append("the two rewards have different optimal actions")
            if not (d_ref > 1e-3 and abs(d_ref - results["distance"]) < 1e-9):
                problems.append(f"witness distance {results['distance']!r}, independent {d_ref!r}")
            return problems

        return self._experiment("counterexample-optimality", make, check)

    def _same_order(self, rng, equivalent):
        def make():
            transition, initial = _random_env(rng, self.n_states, self.n_actions)
            reward = rng.standard_normal(transition.shape)
            other = (_equivalent(rng, transition, self.discount, reward, scale=rng.uniform(0.5, 2.0))
                     if equivalent else rng.standard_normal(transition.shape))
            return {"mdp_file": self._write_mdp("mdp.json", transition, initial),
                    "reward_1_file": self._write_reward("reward-1.json", reward),
                    "reward_2_file": self._write_reward("reward-2.json", other),
                    "seed": int(rng.integers(1 << 30))}

        def check(params, results, cert):
            if results["same_order"] is equivalent:
                return []
            return [f"same_order {results['same_order']!r} for a pair built to be {'' if equivalent else 'not '}equivalent"]

        return self._experiment("same-order", make, check)

    def _ladder_step(self, ladder, c_1, c_2, expected):
        def make():
            return {"mdp_file": ladder["mdp"], "reward_1_file": ladder[c_1], "reward_2_file": ladder[c_2]}

        def check(params, results, cert):
            if abs(results["distance"] - expected) < 1e-8:
                return []
            return [f"starc_distance({c_1:g}R, {c_2:g}R) = {results['distance']!r}, expected {expected}"]

        return self._experiment("starc-distance", make, check)


WORKLOADS = {w.name: w for w in (RobustnessAudit, SolverSweep, Certificates)}
