"""Finite tabular MDPs and exact dynamic-programming solvers.

Rewards are plain float arrays of shape ``(n_states, n_actions, n_states)``,
policies are row-stochastic arrays of shape ``(n_states, n_actions)``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels

ROW_TOL = 1e-9
DEFAULT_DP_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000


class InvalidInstance(ValueError):
    """An MDP, reward, or policy violates a structural invariant."""


class ConvergenceError(RuntimeError):
    """A fixed-point solver failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class TabularMdp:
    """Finite environment: transition tensor, initial distribution, discount.

    Instances are immutable (arrays are locked) and hashed by identity so
    per-MDP derived quantities can be cached.
    """

    transition: np.ndarray
    initial_dist: np.ndarray
    discount: float

    def __post_init__(self):
        transition = np.array(self.transition, dtype=float)
        initial_dist = np.array(self.initial_dist, dtype=float)
        if transition.ndim != 3 or transition.shape[0] != transition.shape[2]:
            raise InvalidInstance(
                f"transition must have shape (S, A, S), got {transition.shape}"
            )
        n_states = transition.shape[0]
        if n_states < 1 or transition.shape[1] < 1:
            raise InvalidInstance("need at least one state and one action")
        if initial_dist.shape != (n_states,):
            raise InvalidInstance(
                f"initial_dist must have shape ({n_states},), got {initial_dist.shape}"
            )
        if not np.isfinite(transition).all():
            raise InvalidInstance("transition has non-finite entries")
        if (transition < 0).any():
            raise InvalidInstance("transition has negative entries")
        row_sums = transition.sum(axis=2)
        if np.abs(row_sums - 1.0).max() > ROW_TOL:
            s, a = np.unravel_index(np.abs(row_sums - 1.0).argmax(), row_sums.shape)
            raise InvalidInstance(
                f"transition row ({s}, {a}) sums to {row_sums[s, a]!r}, not 1"
            )
        if (initial_dist < 0).any():
            raise InvalidInstance("initial_dist has negative entries")
        if abs(initial_dist.sum() - 1.0) > ROW_TOL:
            raise InvalidInstance(f"initial_dist sums to {initial_dist.sum()!r}, not 1")
        if not 0.0 < self.discount < 1.0:
            raise InvalidInstance(f"discount must lie in (0, 1), got {self.discount!r}")
        transition.setflags(write=False)
        initial_dist.setflags(write=False)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "initial_dist", initial_dist)
        unreached = self._unreachable_states()
        if unreached:
            raise InvalidInstance(f"states {sorted(unreached)} are unreachable from the initial distribution")

    def _unreachable_states(self):
        # BFS over positive-probability edges, maximising over actions.
        reach = set(np.flatnonzero(self.initial_dist > 0.0).tolist())
        frontier = deque(reach)
        edge = self.transition.max(axis=1) > 0.0
        while frontier:
            s = frontier.popleft()
            for t in np.flatnonzero(edge[s]):
                if t not in reach:
                    reach.add(int(t))
                    frontier.append(int(t))
        return set(range(self.n_states)) - reach

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]

    def with_discount(self, discount: float) -> "TabularMdp":
        return dataclasses.replace(self, discount=discount)

    def to_dict(self) -> dict:
        return {
            "n_states": self.n_states,
            "n_actions": self.n_actions,
            "discount": self.discount,
            "mu0": self.initial_dist.tolist(),
            "transition": self.transition.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TabularMdp":
        for key in ("n_states", "n_actions", "discount", "mu0", "transition"):
            if key not in data:
                raise InvalidInstance(f"MDP document is missing field {key!r}")
        mdp = cls(
            transition=np.asarray(data["transition"], dtype=float),
            initial_dist=np.asarray(data["mu0"], dtype=float),
            discount=float(data["discount"]),
        )
        if mdp.n_states != int(data["n_states"]) or mdp.n_actions != int(data["n_actions"]):
            raise InvalidInstance("declared n_states/n_actions do not match the transition tensor")
        return mdp


def check_reward(mdp: TabularMdp, reward: np.ndarray) -> np.ndarray:
    reward = np.asarray(reward, dtype=float)
    shape = (mdp.n_states, mdp.n_actions, mdp.n_states)
    if reward.shape != shape:
        raise InvalidInstance(f"reward must have shape {shape}, got {reward.shape}")
    if not np.isfinite(reward).all():
        raise InvalidInstance("reward has non-finite entries")
    return reward


def check_policy(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    policy = np.asarray(policy, dtype=float)
    shape = (mdp.n_states, mdp.n_actions)
    if policy.shape != shape:
        raise InvalidInstance(f"policy must have shape {shape}, got {policy.shape}")
    if (policy < 0).any():
        raise InvalidInstance("policy has negative entries")
    if np.abs(policy.sum(axis=1) - 1.0).max() > ROW_TOL:
        raise InvalidInstance("policy rows must sum to 1")
    return policy


def expected_reward(mdp: TabularMdp, reward: np.ndarray) -> np.ndarray:
    """Conditional mean reward per (state, action): E_{s'~tau(s,a)}[R(s,a,s')]."""
    return np.einsum("sat,sat->sa", mdp.transition, reward)


def policy_evaluation(
    mdp: TabularMdp,
    reward: np.ndarray,
    policy: np.ndarray,
    tol: float = DEFAULT_DP_TOL,
) -> np.ndarray:
    """State values of a fixed policy, by direct linear solve."""
    reward = check_reward(mdp, reward)
    policy = check_policy(mdp, policy)
    er = expected_reward(mdp, reward)
    r_pi = (policy * er).sum(axis=1)
    p_pi = np.einsum("sa,sat->st", policy, mdp.transition)
    v = np.linalg.solve(np.eye(mdp.n_states) - mdp.discount * p_pi, r_pi)
    resid = np.abs(r_pi + mdp.discount * (p_pi @ v) - v).max()
    tol = _kernels.tolerance(tol, v)
    if resid > tol:
        raise ConvergenceError(
            f"policy evaluation residual {resid:g} exceeds tolerance {tol:g}", residual=resid
        )
    return v


def optimal_values(
    mdp: TabularMdp,
    reward: np.ndarray,
    tol: float = DEFAULT_DP_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal state values and Q-values by Howard policy iteration.

    ``tol`` bounds the Bellman residual; it is floored at the roundoff of the
    Q-values (``_kernels.tolerance``).  ``max_iters`` bounds the rounds.
    """
    reward = check_reward(mdp, reward)
    er = expected_reward(mdp, reward)
    v, q, rounds, resid = _kernels.value_iteration(er, mdp.transition, mdp.discount, tol, max_iters)
    tol = _kernels.tolerance(tol, q)
    if resid > tol:
        raise ConvergenceError(
            f"policy iteration did not converge in {rounds} rounds "
            f"(Bellman residual {resid:g} > {tol:g})",
            residual=resid,
        )
    return v, q


def policy_return(mdp: TabularMdp, reward: np.ndarray, policy: np.ndarray) -> float:
    """Expected discounted return from the initial distribution."""
    return float(mdp.initial_dist @ policy_evaluation(mdp, reward, policy))


def occupancy_measure(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Discounted expected visitation over (s, a, s') triples.

    Total mass is 1/(1-gamma); the inner product with any reward tensor
    equals the policy return.
    """
    policy = check_policy(mdp, policy)
    p_pi = np.einsum("sa,sat->st", policy, mdp.transition)
    state_visits = np.linalg.solve(
        np.eye(mdp.n_states) - mdp.discount * p_pi.T, mdp.initial_dist
    )
    return state_visits[:, None, None] * policy[:, :, None] * mdp.transition


def random_mdp(
    seed: int,
    n_states: int,
    n_actions: int,
    concentration: float = 1.0,
    discount: float = 0.9,
) -> TabularMdp:
    """Seeded random instance with Dirichlet transition rows and initial distribution."""
    if n_states < 1 or n_actions < 1:
        raise InvalidInstance("n_states and n_actions must be positive")
    if concentration <= 0:
        raise InvalidInstance("concentration must be positive")
    rng = np.random.default_rng(seed)
    alpha = np.full(n_states, concentration)
    transition = rng.dirichlet(alpha, size=(n_states, n_actions))
    initial_dist = rng.dirichlet(alpha)
    return TabularMdp(transition=transition, initial_dist=initial_dist, discount=discount)


def random_reward(seed: int, n_states: int, n_actions: int, scale: float = 1.0) -> np.ndarray:
    """Seeded i.i.d. Gaussian reward tensor."""
    if n_states < 1 or n_actions < 1:
        raise InvalidInstance("n_states and n_actions must be positive")
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n_states, n_actions, n_states))


def three_state_chain(discount: float = 0.9) -> TabularMdp:
    """Three-state chain: from s0 go to s1 or straight to s2; s2 absorbs.

    The canonical small environment for discount-misspecification examples.
    """
    transition = np.zeros((3, 2, 3))
    transition[0, 0, 1] = 1.0  # detour through s1
    transition[0, 1, 2] = 1.0  # straight to s2
    transition[1, :, 2] = 1.0
    transition[2, :, 2] = 1.0
    return TabularMdp(
        transition=transition, initial_dist=np.array([1.0, 0.0, 0.0]), discount=discount
    )


def load_mdp(path) -> TabularMdp:
    with open(path) as fh:
        data = json.load(fh)
    return TabularMdp.from_dict(data)


def save_mdp(mdp: TabularMdp, path) -> None:
    with open(path, "w") as fh:
        json.dump(mdp.to_dict(), fh)


def load_reward(path, mdp: TabularMdp | None = None) -> np.ndarray:
    with open(path) as fh:
        data = json.load(fh)
    if "values" not in data:
        raise InvalidInstance("reward document is missing field 'values'")
    reward = np.asarray(data["values"], dtype=float)
    if reward.ndim != 3 or reward.shape[0] != reward.shape[2]:
        raise InvalidInstance(f"reward values must have shape (S, A, S), got {reward.shape}")
    if not np.isfinite(reward).all():
        raise InvalidInstance("reward has non-finite entries")
    if mdp is not None:
        reward = check_reward(mdp, reward)
    return reward


def save_reward(reward: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        json.dump({"values": np.asarray(reward).tolist()}, fh)
