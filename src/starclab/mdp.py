"""Finite tabular MDPs and exact dynamic-programming solvers.

Rewards are plain float arrays of shape ``(n_states, n_actions, n_states)``,
policies are row-stochastic arrays of shape ``(n_states, n_actions)``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import DEFAULT_DP_TOL, DEFAULT_MAX_ITERS
from ._kernels import ConvergenceError  # noqa: F401  (re-exported; the solvers raise it)

ROW_TOL = 1e-9


class InvalidInstance(ValueError):
    """An MDP, reward, or policy violates a structural invariant."""


def is_finite_real(value) -> bool:
    """True for an int or float, not a bool, that a float holds finitely."""
    if isinstance(value, (int, np.integer)):
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, (float, np.floating)) and math.isfinite(value)


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
        # Level-synchronous BFS over positive-probability edges, maximising
        # over actions: each level is one boolean mask.
        edge = self.transition.max(axis=1) > 0.0
        reach = frontier = self.initial_dist > 0.0
        while frontier.any():
            frontier = edge[frontier].any(axis=0) & ~reach
            reach = reach | frontier
        return set(np.flatnonzero(~reach).tolist())

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


def reward_stack(mdp: TabularMdp, rewards) -> np.ndarray:
    """The (N, S, A, S) stack of N rewards, a new float array, checked as a whole.

    A stack that fails the check raises ``check_reward``'s error for its
    first bad reward.
    """
    try:
        stack = np.array(rewards, dtype=float)
    except (TypeError, ValueError):  # ragged, or entries that are not numbers
        stack = None
    shape = (mdp.n_states, mdp.n_actions, mdp.n_states)
    if stack is None or stack.shape[1:] != shape or not len(stack) or not np.isfinite(stack).all():
        return np.stack([check_reward(mdp, reward) for reward in rewards])
    return stack


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
    """Conditional mean reward per (state, action): E_{s'~tau(s,a)}[R(s,a,s')].

    ``reward`` may be a stack, (..., S, A, S); the result is then (..., S, A).
    """
    return np.einsum("sat,...sat->...sa", mdp.transition, reward)


def policy_evaluation(mdp: TabularMdp, reward: np.ndarray, policy: np.ndarray) -> np.ndarray:
    """State values of a fixed policy, by direct linear solve, its residual checked at ``DEFAULT_DP_TOL``."""
    reward = check_reward(mdp, reward)
    policy = check_policy(mdp, policy)
    er = expected_reward(mdp, reward)
    return _kernels.evaluate(mdp.transition, mdp.discount, policy[None], er[None])[0, :, 0]


def optimal_values_stack(mdp: TabularMdp, rewards: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal values (N, S) and Q-values (N, S, A) of a checked (N, S, A, S)
    reward stack, by one stacked Howard policy iteration.

    ``DEFAULT_DP_TOL`` bounds each item's Bellman residual; it is floored at
    the roundoff of that item's Q-values (``_kernels.tolerance``).
    ``DEFAULT_MAX_ITERS`` bounds the rounds.  The first item that misses its
    tolerance raises ConvergenceError, with its index as ``item``.
    """
    tol = DEFAULT_DP_TOL
    v, q, rounds, resid = _kernels.policy_iteration(
        expected_reward(mdp, rewards), mdp.transition, mdp.discount, DEFAULT_MAX_ITERS
    )
    _kernels.check_residual(resid, tol, q, lambda i: f"policy iteration did not converge in {rounds[i]} rounds")
    return v, q


def optimal_values(mdp: TabularMdp, reward: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal state values and Q-values: ``optimal_values_stack`` of one reward."""
    v, q = optimal_values_stack(mdp, check_reward(mdp, reward)[None])
    return v[0], q[0]


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
