"""Order-preserving reward transformations and their linear-algebraic structure.

Three transformation families act on reward tensors without changing which
policies are preferred: potential shaping (add ``gamma*phi(s') - phi(s)``),
successor redistribution (move reward across next states while keeping the
conditional mean under the transition kernel fixed), and positive scaling.
Shaping and redistribution together span a linear subspace per environment.
This module projects onto it in closed form (``canonical_operator``),
classifies reward pairs by how they differ, composes transformation chains,
and constructs "invisible" rewards — pure-shaping or pure-redistribution
rewards for one environment that remain meaningful in another.
Only the tests read the dense bases of ``invariance_basis``.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass

import numpy as np

from .mdp import InvalidInstance, TabularMdp, check_reward, expected_reward

SUBSPACE_TOL = 1e-9
MEMBERSHIP_TOL = 1e-8
NONTRIVIAL_TOL = 1e-6
MAX_POTENTIAL_ATTEMPTS = 100


def shaping_tensor(mdp: TabularMdp, phi: np.ndarray, discount: float | None = None) -> np.ndarray:
    """The reward tensor ``gamma*phi(s') - phi(s)``, broadcast over actions."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (mdp.n_states,):
        raise InvalidInstance(f"potential must have shape ({mdp.n_states},), got {phi.shape}")
    if not np.isfinite(phi).all():
        raise InvalidInstance("potential has non-finite entries")
    gamma = mdp.discount if discount is None else discount
    return (
        gamma * phi[None, None, :]
        - phi[:, None, None] * np.ones((mdp.n_states, mdp.n_actions, mdp.n_states))
    )


def apply_potential_shaping(
    mdp: TabularMdp, reward: np.ndarray, phi: np.ndarray, discount: float | None = None
) -> np.ndarray:
    return check_reward(mdp, reward) + shaping_tensor(mdp, phi, discount)


@dataclass(frozen=True, eq=False)
class CanonicalOperator:
    """Closed-form canonicalization for one environment.

    The orthogonal complement of the redistribution subspace is spanned by
    the unit transition rows ``u(s,a,.) = tau(s,a,.) / |tau(s,a)|``, so the
    part of a reward R that can matter has orthonormal coordinates
    ``y(s,a) = <R(s,a,.), u(s,a,.)>``.  Shaping with potential phi has
    coordinates ``B phi``, where row (s,a) of ``B`` is
    ``(gamma*tau(s,a,.) - e_s) / |tau(s,a)|``.  The canonical reward is the
    component of y orthogonal to B's columns, ``y - Q Q^T y`` with
    ``B = QT`` (QR), laid back along the unit rows; its norm is the norm of
    its coordinates.  B has full column rank because gamma < 1, and the
    potential of the least-squares shaping is ``phi = T^{-1} Q^T y``.

    This is the weighted least-squares problem ``min sum w (m - M phi)^2``
    (m the conditional-mean reward, ``w = 1/|tau|^2``, ``M = gamma*tau - E``)
    solved through QR rather than the normal equations, whose squared
    condition number costs digits at discounts near 1.  Building costs
    O(S^3 A); applying it costs O(S^2 A) per reward, the size of the reward.
    """

    units: np.ndarray  # u, (S*A, S)
    basis: np.ndarray  # Q, (S*A, S)
    gain: np.ndarray  # T^{-1} Q^T, (S, S*A)

    @classmethod
    def build(cls, mdp: TabularMdp) -> "CanonicalOperator":
        n_s, n_a = mdp.n_states, mdp.n_actions
        rows = mdp.transition.reshape(n_s * n_a, n_s)
        row_norms = np.linalg.norm(rows, axis=1)[:, None]
        shaping = (mdp.discount * rows - np.repeat(np.eye(n_s), n_a, axis=0)) / row_norms
        basis, tri = np.linalg.qr(shaping)
        arrays = (rows / row_norms, basis, np.linalg.solve(tri, basis.T))
        for arr in arrays:
            arr.setflags(write=False)
        return cls(*arrays)

    def _row_coordinates(self, rewards: np.ndarray) -> np.ndarray:
        return np.einsum("nkt,kt->nk", rewards.reshape((len(rewards),) + self.units.shape), self.units)

    def coordinates(self, rewards: np.ndarray) -> np.ndarray:
        """Canonical coordinates (n, S*A) of a stack of n rewards (n, S, A, S)."""
        y = self._row_coordinates(rewards)
        return y - (y @ self.basis) @ self.basis.T

    def potentials(self, rewards: np.ndarray) -> np.ndarray:
        """Potentials (n, S) of the least-squares shaping of each reward."""
        return self._row_coordinates(rewards) @ self.gain.T

    def tensor(self, coords: np.ndarray) -> np.ndarray:
        """Canonical rewards (n, S, A, S) from their coordinates (n, S*A)."""
        n_s = self.units.shape[1]
        return (coords[:, :, None] * self.units).reshape(len(coords), n_s, -1, n_s)

    def redistribution_part(self, rewards: np.ndarray) -> np.ndarray:
        """Each reward (n, S, A, S) minus its component along every transition row."""
        return rewards - self.tensor(self._row_coordinates(rewards))


_OPERATORS: "weakref.WeakKeyDictionary[TabularMdp, CanonicalOperator]" = weakref.WeakKeyDictionary()


def canonical_operator(mdp: TabularMdp) -> CanonicalOperator:
    """The environment's closed-form canonicalization, built once and kept while the MDP lives."""
    operator = _OPERATORS.get(mdp)
    if operator is None:
        operator = _OPERATORS[mdp] = CanonicalOperator.build(mdp)
    return operator


def apply_redistribution_noise(
    mdp: TabularMdp, reward: np.ndarray, seed: int, magnitude: float
) -> np.ndarray:
    """Add a seeded random zero-conditional-mean tensor of the given 2-norm.

    The tensor is a standard Gaussian with each row's component along
    ``tau(s, a, .)`` removed, rescaled: an isotropic direction in the
    redistribution subspace.
    """
    reward = check_reward(mdp, reward)
    if magnitude < 0:
        raise InvalidInstance("magnitude must be nonnegative")
    if magnitude == 0.0 or mdp.n_states == 1:  # one state: only the zero redistribution
        return reward.copy()
    noise = np.random.default_rng(seed).standard_normal(reward.shape)
    delta = canonical_operator(mdp).redistribution_part(noise[None])[0]
    return reward + (magnitude / np.linalg.norm(delta)) * delta


@dataclass(frozen=True)
class InvarianceBasis:
    """Bases for the shaping and redistribution subspaces of one environment.

    ``shaping_dirs`` has one tensor per state (indicator potentials);
    ``redistribution_dirs`` has S*A*(S-1) tensors; ``combined_orthonormal``
    is an orthonormal basis for the span of their union.  All are stacked
    along axis 0 with reward-shaped slices.  Kept only for the benchmark's tracer, with ``invariance_basis``.
    """

    shaping_dirs: np.ndarray
    redistribution_dirs: np.ndarray
    combined_orthonormal: np.ndarray


def invariance_basis(mdp: TabularMdp) -> InvarianceBasis:
    """Dense bases by an O((S^2 A)^3) SVD, built on each call: test ground truth, kept here for the tracer."""
    n_s, n_a = mdp.n_states, mdp.n_actions
    shape = (n_s, n_a, n_s)

    shaping = np.zeros((n_s,) + shape)
    for i in range(n_s):
        phi = np.zeros(n_s)
        phi[i] = 1.0
        shaping[i] = shaping_tensor(mdp, phi)

    # Per (s, a): orthonormal complement of the transition row within R^S.
    redist = np.zeros((n_s * n_a * (n_s - 1),) + shape)
    k = 0
    for s in range(n_s):
        for a in range(n_a):
            row = mdp.transition[s, a]
            # Null space of the 1 x S row via full SVD.
            _, _, vt = np.linalg.svd(row[None, :])
            for j in range(1, n_s):
                redist[k, s, a, :] = vt[j]
                k += 1

    stacked = np.concatenate([shaping, redist], axis=0).reshape(-1, n_s * n_a * n_s)
    if stacked.shape[0]:
        _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
        rank = int((svals > max(stacked.shape) * np.finfo(float).eps * svals[0]).sum())
        combined = vt[:rank].reshape((-1,) + shape)
    else:
        combined = np.zeros((0,) + shape)
    for arr in (shaping, redist, combined):
        arr.setflags(write=False)
    return InvarianceBasis(shaping, redist, combined)


def project_invariant(mdp: TabularMdp, tensor: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a reward-shaped tensor onto the invariance subspace."""
    tensor = np.asarray(tensor, dtype=float)
    operator = canonical_operator(mdp)
    return tensor - operator.tensor(operator.coordinates(tensor[None]))[0]


IDENTICAL = "identical"
SHAPING_AND_REDISTRIBUTION = "shaping_and_redistribution"
ALSO_POSITIVE_SCALING = "also_positive_scaling"
NEITHER = "neither"


def differ_by(mdp: TabularMdp, reward_1: np.ndarray, reward_2: np.ndarray) -> str:
    """Classify how two rewards differ with respect to the transformation group.

    Both tests are relative, so the verdict does not depend on the rewards'
    scale: the difference's canonical part is compared with the larger
    reward (the difference carries that reward's roundoff), and the two
    canonical directions are compared as unit vectors.
    """
    reward_1 = check_reward(mdp, reward_1)
    reward_2 = check_reward(mdp, reward_2)
    diff = reward_1 - reward_2
    diff_norm = np.linalg.norm(diff)
    if diff_norm == 0.0:
        return IDENTICAL
    operator = canonical_operator(mdp)
    coords = operator.coordinates(np.stack([diff, reward_1, reward_2]))
    residual, n1, n2 = np.linalg.norm(coords, axis=1)
    if residual < MEMBERSHIP_TOL * max(np.linalg.norm(reward_1), np.linalg.norm(reward_2)):
        return SHAPING_AND_REDISTRIBUTION
    if n1 > 0 and n2 > 0 and np.linalg.norm(coords[1] / n1 - coords[2] / n2) < MEMBERSHIP_TOL:
        return ALSO_POSITIVE_SCALING
    return NEITHER


def invisible_reward_discount(
    mdp: TabularMdp, gamma_1: float, gamma_2: float, seed: int = 0
) -> np.ndarray:
    """A pure-shaping reward under ``gamma_1`` that stays non-trivial under ``gamma_2``.

    Any behavioural model that ignores potential shaping at discount
    ``gamma_1`` treats this reward (and all its multiples, including its
    negation) identically, yet under ``gamma_2`` the reward still expresses a
    genuine preference.  Indicator potentials are tried first, then seeded
    random potentials, up to 100 attempts.
    """
    if gamma_1 == gamma_2:
        raise InvalidInstance("the two discounts must differ")
    if not (0.0 < gamma_1 < 1.0 and 0.0 < gamma_2 < 1.0):
        raise InvalidInstance("discounts must lie in (0, 1)")
    if np.ptp(mdp.transition, axis=1).max() <= 1e-9:
        raise InvalidInstance(
            "precondition violated: every state's actions share one next-state "
            "distribution, so shaping rewards stay trivial under any discount"
        )
    operator = canonical_operator(mdp.with_discount(gamma_2))
    rng = np.random.default_rng(seed)
    for attempt in range(MAX_POTENTIAL_ATTEMPTS):
        if attempt < mdp.n_states:
            phi = np.zeros(mdp.n_states)
            phi[attempt] = 1.0
        else:
            phi = rng.standard_normal(mdp.n_states)
        candidate = shaping_tensor(mdp, phi, discount=gamma_1)
        if np.linalg.norm(operator.coordinates(candidate[None])) > NONTRIVIAL_TOL:
            return candidate
    raise InvalidInstance(
        f"no potential yielded a non-trivial shaping reward after {MAX_POTENTIAL_ATTEMPTS} attempts"
    )


def invisible_reward_transition(mdp_1: TabularMdp, mdp_2: TabularMdp) -> np.ndarray:
    """A zero-conditional-mean reward under one kernel with unit mean under another.

    The reward is supported on a single (state, action) whose transition rows
    differ; on that row it is the minimum-norm solution of the two mean
    constraints (0 under the first kernel, 1 under the second).  A model that
    ignores redistribution under the first kernel cannot distinguish this
    reward from its negation, but under the second kernel they disagree.
    """
    if mdp_1.transition.shape != mdp_2.transition.shape:
        raise InvalidInstance("the two environments must share state and action sets")
    row_diff = np.abs(mdp_1.transition - mdp_2.transition).max(axis=2)
    s, a = np.unravel_index(row_diff.argmax(), row_diff.shape)
    if row_diff[s, a] <= 1e-9:
        raise InvalidInstance("the two transition kernels are identical")
    system = np.stack([mdp_1.transition[s, a], mdp_2.transition[s, a]])
    row, _, _, _ = np.linalg.lstsq(system, np.array([0.0, 1.0]), rcond=None)
    if np.abs(system @ row - np.array([0.0, 1.0])).max() > 1e-9:
        raise RuntimeError(
            "internal error: mean constraints unsolvable (rows parallel?)"
        )
    reward = np.zeros_like(mdp_1.transition)
    reward[s, a, :] = row
    return reward


@dataclass(frozen=True)
class Shaping:
    phi: np.ndarray


@dataclass(frozen=True)
class Redistribution:
    delta: np.ndarray


@dataclass(frozen=True)
class Scale:
    c: float


@dataclass(frozen=True)
class Nudge:
    delta: np.ndarray


TransformStep = Shaping | Redistribution | Scale | Nudge


@dataclass(frozen=True)
class TransformChain:
    """Ordered sequence of reward transformation steps."""

    steps: tuple[TransformStep, ...]

    def nudge_count(self) -> int:
        return sum(isinstance(step, Nudge) for step in self.steps)

    def to_json(self) -> str:
        tagged = []
        for step in self.steps:
            if isinstance(step, Shaping):
                tagged.append({"kind": "shaping", "phi": np.asarray(step.phi).tolist()})
            elif isinstance(step, Redistribution):
                tagged.append({"kind": "redistribution", "delta": np.asarray(step.delta).tolist()})
            elif isinstance(step, Scale):
                tagged.append({"kind": "scale", "c": step.c})
            else:
                tagged.append({"kind": "nudge", "delta": np.asarray(step.delta).tolist()})
        return json.dumps(tagged)

    @classmethod
    def from_json(cls, text: str) -> "TransformChain":
        steps: list[TransformStep] = []
        for item in json.loads(text):
            kind = item.get("kind")
            if kind == "shaping":
                steps.append(Shaping(np.asarray(item["phi"], dtype=float)))
            elif kind == "redistribution":
                steps.append(Redistribution(np.asarray(item["delta"], dtype=float)))
            elif kind == "scale":
                steps.append(Scale(float(item["c"])))
            elif kind == "nudge":
                steps.append(Nudge(np.asarray(item["delta"], dtype=float)))
            else:
                raise InvalidInstance(f"unknown transform step kind {kind!r}")
        return cls(tuple(steps))


def apply_step(mdp: TabularMdp, reward: np.ndarray, step: TransformStep) -> np.ndarray:
    if isinstance(step, Shaping):
        return apply_potential_shaping(mdp, reward, step.phi)
    if isinstance(step, Redistribution):
        delta = check_reward(mdp, step.delta)
        cond_mean = np.abs(expected_reward(mdp, delta)).max()
        # Relative to the step, so roundoff in a large step is not a violation.
        bound = SUBSPACE_TOL * max(1.0, np.abs(delta).max())
        if cond_mean > bound:
            raise InvalidInstance(
                f"redistribution step has conditional mean {cond_mean:g} > {bound:g}"
            )
        return reward + delta
    if isinstance(step, Scale):
        if step.c <= 0:
            raise InvalidInstance("scale factor must be positive")
        return step.c * reward
    if isinstance(step, Nudge):
        return reward + check_reward(mdp, step.delta)
    raise InvalidInstance(f"unknown transform step {step!r}")


def apply_chain(mdp: TabularMdp, reward: np.ndarray, chain: TransformChain) -> np.ndarray:
    reward = check_reward(mdp, reward)
    for step in chain.steps:
        reward = apply_step(mdp, reward, step)
    return reward
