"""Robustness checking and counterexample construction for reward inference.

The central question: if policy data comes from behavioural model ``g`` but
inference assumes model ``f``, how far can the inferred reward be from the
true one?  This module provides:

- a four-condition checker for epsilon-robustness over finite hypothesis
  sets, plus the tightest epsilon it supports;
- verification and constructive decomposition of reward transformation
  chains whose only order-breaking step is a single bounded nudge;
- counterexample certificates showing non-robustness to misspecified
  discounts, misspecified transition kernels, small policy perturbations,
  and exact-optimality assumptions — each certificate a pair at distance 1
  (or refused) and re-verifiable from its stored inputs.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .mdp import COUNT, FINITE, NON_NEGATIVE, NUMBER, POSITIVE, Rule, check_number, check_object, seeded_rng
from .mdp import (
    ConvergenceError,
    InvalidInstance,
    TabularMdp,
    check_reward,
    finite_array,
    labelled_stack,
    occupancy_measure,
    random_reward,
    reward_stack,
)
from .metric import canonicalize, distance_table, pairwise_norms, standardize, starc_distance
from .models import MODEL_KINDS, BehavioralModelSpec, ModelTable, check_model_document, optimal_policy_uniform
from .transforms import (
    Nudge,
    Redistribution,
    Scale,
    Shaping,
    TRIVIAL_RTOL,
    TransformChain,
    apply_chain,
    apply_step,
    canonical_operator,
    invisible_reward_discount,
    invisible_reward_transition,
    is_trivial,
    shaping_tensor,
)

DEFAULT_ETA = 1e-6
DIST_TOL = 1e-8
NUDGE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HypothesisSet:
    """Ordered, uniquely-identified finite set of candidate rewards.

    The rewards must be finite 3-D arrays of one shape.  Instances are
    immutable (the rewards are copied into one locked float ``stack``, and
    ``rewards`` are its rows, labelled by ``ids``) and hashed by identity,
    so tables derived from the set can be cached: the STARC distance table
    is built once per MDP it is read on.
    """

    rewards: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        ids, stack = labelled_stack(self.rewards, 3, "hypothesis {!r}: reward", "reward")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "rewards", tuple(zip(ids, stack)))

    def reward(self, reward_id: str) -> np.ndarray:
        return dict(zip(self.ids, self.stack))[reward_id]


@dataclass(frozen=True)
class RobustnessVerdict:
    robust: bool
    epsilon_used: float
    eta: float
    violations: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "robust": self.robust,
            "epsilon_used": self.epsilon_used,
            "eta": self.eta,
            "violations": list(self.violations),
        }


@dataclass(frozen=True)
class PolicyMetricSpec:
    """Pseudometric on policy tables: 'l2', 'linf', or 'occupancy_l2'."""

    kind: str = "l2"

    def __post_init__(self):
        kinds = ("l2", "linf", "occupancy_l2")
        if self.kind not in kinds:
            raise InvalidInstance(f"policy_metric: must be one of {kinds}, got {self.kind!r}")

    def distance(self, mdp: TabularMdp, policy_1: np.ndarray, policy_2: np.ndarray) -> float:
        if self.kind == "l2":
            return float(np.linalg.norm(policy_1 - policy_2))
        if self.kind == "linf":
            return float(np.abs(policy_1 - policy_2).max())
        diff = occupancy_measure(mdp, policy_1) - occupancy_measure(mdp, policy_2)
        return float(np.linalg.norm(diff))


# Per hypothesis set, its distance table per evaluation MDP.  Both keys are
# held weakly, so the cache keeps neither alive, and a table is freed with
# either.
_DISTANCES: "weakref.WeakKeyDictionary[HypothesisSet, weakref.WeakKeyDictionary[TabularMdp, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)


def _pair_distances(mdp_eval: TabularMdp, hypotheses: HypothesisSet) -> np.ndarray:
    """(n, n) STARC distances between the hypotheses, in hypothesis order, read-only.

    Built once per hypothesis set and MDP, and kept while both live.
    """
    tables = _DISTANCES.setdefault(hypotheses, weakref.WeakKeyDictionary())
    table = tables.get(mdp_eval)
    if table is None:
        table = tables[mdp_eval] = distance_table(mdp_eval, hypotheses.stack)
        table.setflags(write=False)
    return table


def _policy_gaps(table_1: ModelTable, table_2: ModelTable) -> np.ndarray:
    """(n, n) sup-norm distances between the policies of two tables, row i from table_1."""
    return pairwise_norms(table_1.flat, table_2.flat, ord=np.inf)


@dataclass(frozen=True)
class _Tables:
    """Everything the four conditions read: distances and f/g policy-gap matrices."""

    ids: tuple[str, ...]
    dist: np.ndarray
    fg: np.ndarray
    ff: np.ndarray

    @classmethod
    def build(
        cls, f: ModelTable, g: ModelTable, hypotheses: HypothesisSet, mdp_eval: TabularMdp
    ) -> "_Tables":
        ids = hypotheses.ids
        if f.ids != ids or g.ids != ids:
            raise InvalidInstance("f, g, and the hypothesis set must share the same reward ids")
        shape = (mdp_eval.n_states, mdp_eval.n_actions)
        for name, table in (("f", f), ("g", g)):
            if table.policies.shape[1:] != shape:
                raise InvalidInstance(f"{name} policies have shape {table.policies.shape[1:]}, not mdp_eval's {shape}")
        return cls(ids, _pair_distances(mdp_eval, hypotheses), _policy_gaps(f, g), f.self_gaps)

    def violations(self, epsilon: float, eta: float) -> list[dict]:
        check_number(epsilon, NUMBER, "epsilon")
        check_number(eta, NON_NEGATIVE, "eta")
        ids, dist = self.ids, self.dist
        far = dist > epsilon + DIST_TOL
        violations = [
            {"condition": 1, "ids": [ids[i], ids[j]], "distance": float(dist[i, j])}
            for i, j in np.argwhere((self.fg <= eta) & far)
        ]
        violations += [
            {"condition": 2, "ids": [ids[i], ids[j]], "distance": float(dist[i, j])}
            for i, j in np.argwhere(np.triu((self.ff <= eta) & far, k=1))
        ]
        best = self.fg.min(axis=0)  # per g-policy, its closest f-policy
        violations += [
            {"condition": 3, "ids": [ids[j]], "policy_gap": float(best[j])}
            for j in np.flatnonzero(best > eta)
        ]
        max_fg_gap = float(np.diag(self.fg).max())
        if max_fg_gap <= eta:
            violations.append({"condition": 4, "ids": [], "policy_gap": max_fg_gap})
        return violations


def check_epsilon_robust(
    f: ModelTable,
    g: ModelTable,
    hypotheses: HypothesisSet,
    mdp_eval: TabularMdp,
    epsilon: float,
    eta: float = DEFAULT_ETA,
) -> RobustnessVerdict:
    """Check the four robustness conditions of model f against data model g.

    1. f/g policy collisions only between rewards within epsilon;
    2. f/f policy collisions only between rewards within epsilon;
    3. every g-policy is (within eta) some f-policy;
    4. f and g genuinely differ on some hypothesis.

    Policy equality is sup-norm closeness within ``eta``; distances get a
    1e-8 floating-point slack on top of ``epsilon``.
    """
    violations = _Tables.build(f, g, hypotheses, mdp_eval).violations(epsilon, eta)
    return RobustnessVerdict(
        robust=not violations,
        epsilon_used=epsilon,
        eta=eta,
        violations=tuple(violations),
    )


def min_robust_epsilon(
    f: ModelTable,
    g: ModelTable,
    hypotheses: HypothesisSet,
    mdp_eval: TabularMdp,
    eta: float = DEFAULT_ETA,
) -> float:
    """Tightest epsilon satisfying conditions 1-2; +inf if 3 or 4 fails."""
    tables = _Tables.build(f, g, hypotheses, mdp_eval)
    if tables.violations(math.inf, eta):  # at epsilon = inf only conditions 3 and 4 can fail
        return math.inf
    collide = (tables.fg <= eta) | (tables.ff <= eta)
    return float(tables.dist[collide].max(initial=0.0))


def nudge_bound(epsilon: float) -> float:
    """Allowed nudge-to-canonical-norm ratio for a chain at distance epsilon."""
    return math.sin(2.0 * math.asin(min(1.0, epsilon) / 2.0))


def verify_transformation_bound(
    mdp: TabularMdp,
    chain: TransformChain,
    probes: list[np.ndarray],
    epsilon: float,
) -> tuple[bool, list[dict]]:
    """Check that a chain's single nudge is small enough for distance epsilon.

    For each probe the nudge step must have norm at most
    ``|canonical(before)| * (sin(2*arcsin(epsilon/2)) + 1e-9)``, and the
    end-to-end distance between probe and transformed probe must be at most
    ``epsilon`` (plus 1e-8).  An empty probe list checks nothing and is refused.
    """
    check_number(epsilon, NON_NEGATIVE, "epsilon")
    if not len(probes):
        raise InvalidInstance("need at least one probe")
    if chain.nudge_count() > 1:
        raise InvalidInstance("chain has more than one nudge step")
    reports = []
    all_ok = True
    for i, probe in enumerate(probes):
        probe = check_reward(mdp, probe)
        current = probe
        nudge_norm = 0.0
        norm_before = None
        for step in chain.steps:
            if isinstance(step, Nudge):
                norm_before = canonicalize(mdp, current).norm
                nudge_norm = float(np.linalg.norm(step.delta))
            current = apply_step(mdp, current, step)
        if norm_before is None:
            norm_before = canonicalize(mdp, probe).norm
        bound = norm_before * (nudge_bound(epsilon) + NUDGE_TOL)
        distance = starc_distance(mdp, probe, current).distance
        nudge_ok = nudge_norm <= bound
        dist_ok = distance <= epsilon + DIST_TOL
        reports.append(
            {
                "probe": i,
                "nudge_norm": nudge_norm,
                "nudge_bound": bound,
                "nudge_ok": nudge_ok,
                "distance": distance,
                "distance_ok": dist_ok,
            }
        )
        all_ok = all_ok and nudge_ok and dist_ok
    return all_ok, reports


def _split_invariant(mdp: TabularMdp, tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write an invariance-subspace tensor as shaping(phi) + redistribution delta.

    phi is the potential of the closed-form canonicalization (the shaping
    whose conditional mean matches the tensor's), and delta is the
    remainder, which then has zero conditional mean.  The remainder's
    component along each transition row is roundoff of the tensor's size,
    not of delta's, so it is removed.
    """
    operator = canonical_operator(mdp)
    phi = operator.potentials(tensor[None])[0]
    return phi, operator.redistribution_part((tensor - shaping_tensor(mdp, phi))[None])[0]


def decompose_transformation(
    mdp: TabularMdp, reward: np.ndarray, reward_target: np.ndarray
) -> TransformChain:
    """Express the map from one reward to another as an explicit chain.

    The chain strips the source down to its unit canonical form via shaping,
    redistribution, and scaling, applies one nudge to rotate onto the
    target's canonical ray (the nudge lands at the foot of the perpendicular
    when the canonical directions are not too far apart, which minimizes the
    nudge norm), rescales, and re-adds the target's order-irrelevant part.
    """
    reward = check_reward(mdp, reward)
    reward_target = check_reward(mdp, reward_target)
    canon_1 = canonicalize(mdp, reward)
    canon_2 = canonicalize(mdp, reward_target)
    unit_1 = standardize(mdp, reward)
    unit_2 = standardize(mdp, reward_target)
    trivial_1 = not unit_1.any()
    trivial_2 = not unit_2.any()
    if trivial_2 and not trivial_1:
        raise InvalidInstance(
            "target reward is trivial while the source is not: the standardized "
            "target is the zero tensor, so no positive rescaling can reach it"
        )

    phi_1, delta_1 = _split_invariant(mdp, reward - canon_1.canonical)
    phi_2, delta_2 = _split_invariant(mdp, reward_target - canon_2.canonical)

    steps: list = [Shaping(-phi_1), Redistribution(-delta_1)]
    if trivial_1 and trivial_2:
        pass  # both canonical parts are zero; nothing to rotate
    elif trivial_1:
        steps.append(Nudge(unit_2.copy()))
        steps.append(Scale(canon_2.norm))
    else:
        steps.append(Scale(1.0 / canon_1.norm))
        cos_theta = float((unit_1 * unit_2).sum())
        if cos_theta >= 0.1:
            # Right-triangle landing: nudge perpendicular to the target ray,
            # arriving at cos(theta) * unit_2; ratio of nudge norm to the
            # canonical norm before the nudge is sin(theta), the minimum.
            steps.append(Nudge(cos_theta * unit_2 - unit_1))
            steps.append(Scale(canon_2.norm / cos_theta))
        else:
            steps.append(Nudge(unit_2 - unit_1))
            steps.append(Scale(canon_2.norm))
    steps.append(Shaping(phi_2))
    steps.append(Redistribution(delta_2))
    chain = TransformChain(tuple(steps))

    recomposed = apply_chain(mdp, reward, chain)
    err = np.linalg.norm(recomposed - reward_target)
    if err > 1e-8 * max(np.linalg.norm(reward), np.linalg.norm(reward_target)):
        raise RuntimeError(f"internal error: chain recomposition error {err:g}")
    return chain


SCENARIOS = ("discount", "transition", "perturbation", "optimality")


@dataclass(frozen=True)
class CounterexampleCertificate:
    """Self-contained, re-verifiable witness of a non-robustness scenario.

    ``scenario`` is one of ``SCENARIOS``.  The certificate stores the
    environments, the constructed reward pair, the behavioural model used to
    generate policies, the policy gap measured under the generating
    environment, and the reward distance measured under the evaluation
    environment.
    """

    scenario: str
    mdp_gen: TabularMdp
    mdp_eval: TabularMdp
    reward_1: np.ndarray
    reward_2: np.ndarray
    model: dict
    policy_metric: str
    policy_gap: float
    distance: float
    params: dict = field(default_factory=dict)

    def measure(self) -> tuple[float, float]:
        """Policy gap under ``mdp_gen`` and STARC distance under ``mdp_eval``, from the stored inputs."""
        spec = BehavioralModelSpec.from_dict(self.model, self.mdp_gen)
        policies = spec.policies(reward_stack(self.mdp_gen, (self.reward_1, self.reward_2)))
        gap = PolicyMetricSpec(self.policy_metric).distance(self.mdp_gen, *policies)
        return gap, starc_distance(self.mdp_eval, self.reward_1, self.reward_2).distance

    def verify(self, tol: float = DIST_TOL) -> bool:
        """Re-measure from the stored inputs and compare with the stored values."""
        gap, dist = self.measure()
        return abs(gap - self.policy_gap) <= tol and abs(dist - self.distance) <= tol

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "mdp_gen": self.mdp_gen.to_dict(),
            "mdp_eval": self.mdp_eval.to_dict(),
            "reward_1": self.reward_1.tolist(),
            "reward_2": self.reward_2.tolist(),
            "model": self.model,
            "policy_metric": self.policy_metric,
            "policy_gap": self.policy_gap,
            "distance": self.distance,
            "params": self.params,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CounterexampleCertificate":
        check_object(data, "certificate document", [f.name for f in fields(cls) if f.name != "params"])
        if data["scenario"] not in SCENARIOS:
            raise InvalidInstance(f"scenario: must be one of {SCENARIOS}, got {data['scenario']!r}")
        check_model_document(data["model"], "model")
        return cls(
            scenario=data["scenario"],
            mdp_gen=TabularMdp.from_dict(data["mdp_gen"]),
            mdp_eval=TabularMdp.from_dict(data["mdp_eval"]),
            reward_1=finite_array(data["reward_1"], "reward_1"),
            reward_2=finite_array(data["reward_2"], "reward_2"),
            model=data["model"],
            policy_metric=PolicyMetricSpec(data["policy_metric"]).kind,
            policy_gap=float(check_number(data["policy_gap"], FINITE, "policy_gap")),
            distance=float(check_number(data["distance"], FINITE, "distance")),
            params=check_object(data.get("params", {}), "params"),
        )


def _certificate(
    scenario: str,
    model: BehavioralModelSpec,
    mdp_eval: TabularMdp,
    reward_1: np.ndarray,
    reward_2: np.ndarray,
    policy_metric: str,
    params: dict,
) -> CounterexampleCertificate:
    """A certificate for a reward pair, measured by ``CounterexampleCertificate.measure``.

    The generating environment is the model's own.  Every scenario claims
    distance 1, so a pair farther than ``DIST_TOL`` from it is refused.
    """
    cert = CounterexampleCertificate(
        scenario, model.environment, mdp_eval, reward_1, reward_2, model.to_dict(), policy_metric,
        policy_gap=math.nan, distance=math.nan, params=params,
    )
    gap, dist = cert.measure()
    if abs(dist - 1.0) > DIST_TOL:
        raise InvalidInstance(f"the {scenario} pair measures distance {dist:g} under mdp_eval, not 1")
    return replace(cert, policy_gap=gap, distance=dist)


def discount_counterexample(
    mdp: TabularMdp,
    gamma_1: float = 0.9,
    gamma_2: float = 0.95,
    model_kind: str = "boltzmann",
    beta: float = 1.0,
    alpha: float = 1.0,
    seed: int = 0,
) -> CounterexampleCertificate:
    """Reward pair a gamma_1 model cannot tell apart but gamma_2 maximally separates.

    The pair is a pure-shaping reward (at discount gamma_1) and its negation:
    both give constant-per-state optimal Q-values, so any shaping-invariant
    model maps them to the same policy, yet under gamma_2 they induce exactly
    opposite policy orderings (distance 1).
    """
    r_dagger = invisible_reward_discount(mdp, gamma_1, gamma_2, seed=seed)
    model = BehavioralModelSpec(model_kind, mdp.with_discount(gamma_1), beta, alpha)
    params = {"gamma_1": gamma_1, "gamma_2": gamma_2, "seed": seed}
    return _certificate("discount", model, mdp.with_discount(gamma_2), r_dagger, -r_dagger, "linf", params)


def transition_counterexample(
    mdp_1: TabularMdp,
    mdp_2: TabularMdp,
    model_kind: str = "boltzmann",
    beta: float = 1.0,
    alpha: float = 1.0,
) -> CounterexampleCertificate:
    """Reward pair one transition kernel cannot tell apart but another separates.

    The pair is a zero-kernel-1-conditional-mean reward and its negation.
    """
    r_dagger = invisible_reward_transition(mdp_1, mdp_2)
    model = BehavioralModelSpec(model_kind, mdp_1, beta, alpha)
    return _certificate("transition", model, mdp_2, r_dagger, -r_dagger, "linf", {"gamma": mdp_1.discount})


def perturbation_counterexample(
    mdp: TabularMdp,
    model_kind: str = "boltzmann",
    beta: float = 1.0,
    alpha: float = 1.0,
    c: float = 1.0,
    delta: float = 1e-2,
    policy_metric: PolicyMetricSpec | None = None,
    seed: int = 0,
) -> CounterexampleCertificate:
    """Equal-norm reward pair at distance 1 whose policies differ by less than delta.

    The pair is ``eps*R + S`` and ``-eps*R + S`` where R is canonical with
    unit norm, S is a shaping reward (orthogonal to R by construction) sized
    so both rewards have norm c.  Their canonical parts have norm eps, so
    the triviality rule calls the pair trivial (distance 0) once eps is at
    most ``TRIVIAL_RTOL * c``.  eps is halved from c, but only above that
    floor, until the policy gap under a continuous behavioural model is at
    most delta; a delta no rung above the floor reaches is refused.  eps is
    then bisected upward so the gap lands in [delta/2, delta], or, for a
    delta below the gap's roundoff, until the bracket is two adjacent floats.
    """
    spec = BehavioralModelSpec(model_kind, mdp, beta, alpha)
    if MODEL_KINDS[model_kind].weight is None:
        raise InvalidInstance(f"perturbation counterexamples need a continuous model, not {model_kind!r}")
    check_number(c, POSITIVE, "c")
    check_number(delta, POSITIVE, "delta")
    metric = policy_metric or PolicyMetricSpec("l2")

    # The canonical space has dimension SA - S, so with A >= 2 a random
    # reward has a canonical part; with A = 1 every reward is trivial.
    unit = standardize(mdp, random_reward(seed, mdp.n_states, mdp.n_actions))
    if not unit.any():
        raise InvalidInstance("could not find a non-trivial canonical direction")
    shaping_dir = shaping_tensor(mdp, np.ones(mdp.n_states))
    shaping_unit = shaping_dir / np.linalg.norm(shaping_dir)
    # c and eps are brought to c in [0.5, 1) by one exact power of two, so the
    # squares neither overflow nor underflow, and an ordinary c keeps its bits.
    exponent = math.frexp(c)[1]
    c_scaled = math.ldexp(c, -exponent)

    def build(eps: float) -> tuple[np.ndarray, np.ndarray]:
        e = math.ldexp(eps, -exponent)
        s_part = math.ldexp(math.sqrt(max(c_scaled * c_scaled - e * e, 0.0)), exponent) * shaping_unit
        return eps * unit + s_part, -eps * unit + s_part

    def gaps(rungs: list[float]) -> list[float]:
        # One stacked solve of the rungs' reward pairs.  A pair's policies get
        # the bits of the N=2 solve that ``CounterexampleCertificate.measure``
        # makes, whatever else the stack holds.
        policies = spec.policies(reward_stack(mdp, [r for eps in rungs for r in build(eps)]))
        return [metric.distance(mdp, *policies[2 * i : 2 * i + 2]) for i in range(len(rungs))]

    hi = c * (1.0 - 1e-12)
    eps = hi
    [g] = gaps([eps])
    # Halve eps above the triviality floor until the gap is at most delta.
    # The halvings are solved as the rungs of one stack: up to one past the
    # rung where the last gap, halved per rung, would reach delta; a further
    # stack only if no rung qualifies.  The floor allows about 30 rungs.
    while g > delta:
        rungs = []
        while len(rungs) < math.log2(g / delta) + 1 and not is_trivial(eps / 2.0, c):
            eps /= 2.0
            rungs.append(eps)
        if not rungs:
            raise InvalidInstance(
                f"delta = {delta:g} needs eps at or below the triviality floor "
                f"TRIVIAL_RTOL * c = {TRIVIAL_RTOL * c:g}, where the pair is at distance 0"
            )
        try:
            ladder = gaps(rungs)
        except ConvergenceError as exc:
            # A rung past the answer must not fail the search: keep the rungs
            # before the first failing one, which then comes first in the next stack.
            if exc.item is None or exc.item < 2:
                raise
            rungs = rungs[: exc.item // 2]
            ladder = gaps(rungs)
        for eps, g in zip(rungs, ladder):
            if g <= delta:
                break
    # eps now gives gap <= delta; bisect upward so the gap lands in [delta/2, delta].
    lo, hi_b = eps, min(2.0 * eps, hi)
    while g < delta / 2.0:
        mid = 0.5 * (lo + hi_b)
        if mid in (lo, hi_b):
            # Adjacent floats: no eps between them.  Below roundoff delta the
            # gap is 0 at lo and above delta at hi_b, so the band is empty.
            break
        [g_mid] = gaps([mid])
        if g_mid <= delta:
            lo, g = mid, g_mid
        else:
            hi_b = mid
    eps = lo
    params = {"c": c, "delta": delta, "eps": eps, "seed": seed}
    return _certificate("perturbation", spec, mdp, *build(eps), metric.kind, params)


def separation_witness_search(
    model: BehavioralModelSpec,
    mdp: TabularMdp,
    policy_metric: PolicyMetricSpec,
    epsilon: float,
    delta: float,
    seed: int = 0,
    budget: int = 1000,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Search for rewards farther than epsilon whose policies are delta-close.

    A witness refutes the claim that the model separates distant rewards into
    distant policies; ``None`` is inconclusive, not a proof of separation.
    """
    check_number(budget, COUNT, "budget")
    check_number(delta, NON_NEGATIVE, "delta")
    if check_number(epsilon, NON_NEGATIVE, "epsilon") >= 1.0:
        return None  # distances never exceed 1
    rng = seeded_rng(seed)
    if delta > 0 and MODEL_KINDS[model.kind].weight is not None:
        try:
            cert = perturbation_counterexample(
                mdp, model.kind, model.beta, model.alpha, delta=delta, policy_metric=policy_metric, seed=seed
            )
        except InvalidInstance:
            pass
        else:
            if cert.distance > epsilon and cert.policy_gap <= delta:
                return cert.reward_1, cert.reward_2
    for _ in range(budget):
        r_1 = rng.standard_normal((mdp.n_states, mdp.n_actions, mdp.n_states))
        r_2 = rng.standard_normal((mdp.n_states, mdp.n_actions, mdp.n_states))
        if starc_distance(mdp, r_1, r_2).distance > epsilon:
            if policy_metric.distance(mdp, *model.policies(np.stack([r_1, r_2]))) <= delta:
                return r_1, r_2
    return None


def optimality_nonrobustness_witness(mdp: TabularMdp, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two rewards with identical uniform-over-optimal policies but positive distance.

    Shows that assuming exactly optimal behaviour collapses genuinely
    different rewards onto the same policy.  Impossible (by a counting
    argument) only when |S| = 1 and |A| = 2, or when |A| = 1.

    Reward 1 is drawn from ``seed``.  Lowering the reward of an action that
    is not optimal lowers only that action's Q*-value, so V* and the
    uniform-optimal policy stay while the ordering among suboptimal policies
    moves; reward 2 is the copy, lowered by 2 at one non-optimal (s, a),
    farthest from reward 1.
    """
    if mdp.n_states == 1 and mdp.n_actions == 2:
        raise InvalidInstance(
            "with one state and two actions every pair of rewards with the same "
            "strict optimum orders policies identically; no witness exists"
        )
    if mdp.n_actions == 1:
        raise InvalidInstance(
            "with a single action all rewards are order-equivalent; no witness exists"
        )
    reward_1 = seeded_rng(seed).standard_normal((mdp.n_states, mdp.n_actions, mdp.n_states))
    policy_1 = optimal_policy_uniform(mdp, reward_1)
    rows = np.flatnonzero(policy_1 < 1e-12)
    if rows.size:
        # Lowering row k = (s, a) by 2 moves only its row coordinate, by
        # -2 * sum(u_k), so each copy's canonical coordinates are reward 1's
        # plus the projection of that move: no copy is built to rank them.
        operator = canonical_operator(mdp)
        moves = np.zeros((rows.size, policy_1.size))
        moves[np.arange(rows.size), rows] = -2.0 * operator.units[rows].sum(axis=1)
        base = operator.coordinates(reward_1[None])
        copies = base + operator.project(moves)
        spread = np.linalg.norm(
            copies / np.linalg.norm(copies, axis=1, keepdims=True) - base / np.linalg.norm(base), axis=1
        )
        s, a = np.unravel_index(rows[np.argmax(spread)], policy_1.shape)
        reward_2 = reward_1.copy()
        reward_2[s, a] -= 2.0
        if starc_distance(mdp, reward_1, reward_2).distance > 1e-3 and (
            np.abs(optimal_policy_uniform(mdp, reward_2) - policy_1).max() < DEFAULT_ETA
        ):
            return reward_1, reward_2
    raise InvalidInstance(
        f"seed {seed}: no copy of the drawn reward lowered at a non-optimal action is "
        "farther than 1e-3 from it with the same uniform-optimal policy"
    )


def two_epsilon_lemma_check(
    f: ModelTable,
    g: ModelTable,
    hypotheses: HypothesisSet,
    mdp_eval: TabularMdp,
    epsilon: float,
    eta: float = DEFAULT_ETA,
) -> bool:
    """On a robust pair, verify g-policy collisions only join rewards within 2*epsilon."""
    tables = _Tables.build(f, g, hypotheses, mdp_eval)
    if tables.violations(epsilon, eta):
        raise InvalidInstance("precondition unmet: the model pair is not epsilon-robust")
    collide = np.triu(g.self_gaps <= eta, k=1)
    return not (tables.dist[collide] > 2.0 * epsilon + DIST_TOL).any()


GRID_SIDE = Rule("an integer of at least 2", lambda v: COUNT.valid(v) and v >= 2)


def torus_gridworld(n: int, gamma: float = 0.9, slippery: bool = False) -> TabularMdp:
    """N x N torus with four movement actions (up, down, left, right).

    In the slippery variant each action moves to the intended cell or to one
    of its two diagonal neighbours, each with probability 1/3 (an 'up' move
    lands up-left, up, or up-right).
    """
    check_number(n, GRID_SIDE, "n")
    states = np.arange(n * n)
    rows, cols = np.divmod(states[:, None, None], n)
    moves = np.array([(-1, 0), (1, 0), (0, -1), (0, 1)])  # up, down, left, right
    # Offsets (action, outcome, 2): a slip is one step across the move.
    slips = np.array([-1, 0, 1]) if slippery else np.array([0])
    offsets = moves[:, None] + slips[:, None] * np.abs(moves[:, None, ::-1])
    targets = (rows + offsets[..., 0]) % n * n + (cols + offsets[..., 1]) % n
    transition = np.zeros((n * n, 4, n * n))
    # On a 2-wide torus two slips can reach one cell: their probabilities add.
    np.add.at(transition, (states[:, None, None], np.arange(4)[:, None], targets), 1.0 / len(slips))
    initial = np.full(n * n, 1.0 / (n * n))
    return TabularMdp(transition=transition, initial_dist=initial, discount=gamma)


def _movement_schema_reward(n: int) -> np.ndarray:
    """Reward by displacement: rightward moves +1, leftward -1, vertical 0."""
    # Displacements in {-1, ..., n-2}; on a 2-wide torus right is also left, and reads -1.
    rows, cols = np.divmod(np.arange(n * n), n)
    d_row = (rows[None, :] - rows[:, None] + 1) % n - 1
    d_col = (cols[None, :] - cols[:, None] + 1) % n - 1
    value = np.where((np.abs(d_row) <= 1) & (np.abs(d_col) <= 1), d_col, 0).astype(float)
    return np.repeat(value[:, None, :], 4, axis=1)


def gridworld_demo(
    n: int = 3, gamma: float = 0.9, alpha: float = 1.0
) -> CounterexampleCertificate:
    """Torus-gridworld transition counterexample with a movement-schema reward.

    Reward 1 prefers rightward movement.  Reward 2 agrees with reward 1 in
    conditional mean under the slippery kernel (so maximal-causal-entropy
    policies there are identical) but negates it on every deterministic-kernel
    outcome, making the two rewards order policies oppositely under the
    deterministic kernel.
    """
    mdp_det = torus_gridworld(n, gamma, slippery=False)
    mdp_slip = torus_gridworld(n, gamma, slippery=True)
    reward_1 = _movement_schema_reward(n)

    # Per (s, a): negate the deterministic outcome's entry, then spread the
    # correction over the other slip outcomes so the slippery-kernel mean of
    # reward 2 equals that of reward 1 exactly (the minimum-norm completion
    # of the single mean constraint).
    slip = mdp_slip.transition
    s, a = np.indices((n * n, 4))
    det = mdp_det.transition.argmax(axis=2)
    flipped = -reward_1[s, a, det]
    residual = np.einsum("sat,sat->sa", slip, reward_1) - slip[s, a, det] * flipped
    weights = slip.copy()
    weights[s, a, det] = 0.0
    spread = residual[..., None] * weights / np.einsum("sat,sat->sa", weights, weights)[..., None]
    reward_2 = np.where(weights > 0, spread, 0.0)
    reward_2[s, a, det] = flipped

    model = BehavioralModelSpec("mce", mdp_slip, alpha=alpha)
    params = {"n": n, "gamma": gamma, "alpha": alpha, "demo": "torus-gridworld"}
    return _certificate("transition", model, mdp_det, reward_1, reward_2, "linf", params)
