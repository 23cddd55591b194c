"""Finite tabular MDPs and exact dynamic-programming solvers.

Rewards are plain float arrays of shape ``(n_states, n_actions, n_states)``,
policies are row-stochastic arrays of shape ``(n_states, n_actions)``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import stat
import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import DEFAULT_DP_TOL, DEFAULT_MAX_ITERS, ConvergenceError  # noqa: F401  (re-exported)

ROW_TOL = 1e-9


class InvalidInstance(ValueError):
    """An MDP, reward, or policy violates a structural invariant."""


def is_finite_real(value) -> bool:
    """True for an int or float, not a bool, that a float holds finitely."""
    if isinstance(value, (int, np.integer)):
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, (float, np.floating)) and math.isfinite(value)


class Rule(NamedTuple):
    """What a scalar parameter must be, in words, and the test of it."""

    what: str
    valid: Callable[[object], bool]


FINITE = Rule("a finite number", is_finite_real)
NUMBER = Rule("a number, not NaN", lambda v: is_finite_real(v) or isinstance(v, float | np.floating) and math.isinf(v))
NON_NEGATIVE = Rule("a finite non-negative number", lambda v: is_finite_real(v) and v >= 0)
POSITIVE = Rule("a finite positive number", lambda v: is_finite_real(v) and v > 0)
DISCOUNT = Rule("a number in (0, 1)", lambda v: is_finite_real(v) and 0 < v < 1)
# A seed must be an integer: ``None`` would draw an unseeded, unreproducible
# instance, and numpy refuses a negative one.
SEED = Rule("a non-negative integer", lambda v: isinstance(v, int | np.integer) and type(v) is not bool and v >= 0)
COUNT = Rule("a positive integer", lambda v: SEED.valid(v) and v > 0)
# A path must be a string that names a file: ``open`` reads an integer as a
# file descriptor, such as 0 for standard input.
PATH = Rule("a path string", lambda v: isinstance(v, str) and v != "" and "\0" not in v)


def check_number(value, rule: Rule, name: str):
    """The one check of an outside scalar: ``value`` if ``rule`` holds, else InvalidInstance naming ``name``."""
    if not rule.valid(value):
        raise InvalidInstance(f"{name}: must be {rule.what}, got {value!r}")
    return value


def seeded_rng(seed) -> np.random.Generator:
    """numpy's generator from ``seed``, which must be a ``SEED``: the one way the package draws."""
    return np.random.default_rng(check_number(seed, SEED, "seed"))


def check_object(data, what: str, fields=()) -> dict:
    """A JSON document ``data`` that must be an object holding ``fields``; else InvalidInstance naming ``what``."""
    if not isinstance(data, dict):
        raise InvalidInstance(f"{what} must be an object, got {type(data).__name__}")
    for key in fields:
        if key not in data:
            raise InvalidInstance(f"{what} is missing field {key!r}")
    return data


def _float_array(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, or an int beyond float range
        raise InvalidInstance(f"{what} is ragged or not numeric") from None


def finite_array(value, what: str) -> np.ndarray:
    """The one rule for an outside value that must be a finite float array.

    A float array comes back uncopied.  A ragged or non-numeric value, or a
    NaN or infinite entry, raises InvalidInstance naming ``what``.
    """
    array = _float_array(value, what)
    if not np.isfinite(array).all():
        raise InvalidInstance(f"{what} has non-finite entries")
    return array


def labelled_stack(pairs, ndim: int, label: str, noun: str) -> tuple[tuple, np.ndarray]:
    """The ids of (id, array) ``pairs``, and their arrays as one new, locked float stack.

    The arrays must be finite, ``ndim``-D and of one shape, and the ids
    unique.  All arrays are converted in one pass; only if that fails are
    they walked in order, to name the first bad one by ``label.format(id)``.
    """
    ids = tuple(rid for rid, _ in pairs)
    if not ids:
        raise InvalidInstance(f"need at least one {noun}")
    if len(set(ids)) != len(ids):
        raise InvalidInstance(f"{noun} ids must be unique, got {ids}")
    try:
        stack = np.array([array for _, array in pairs], dtype=float)
    except (TypeError, ValueError, OverflowError):
        stack = None
    if stack is None or stack.ndim != ndim + 1 or not np.isfinite(stack).all():
        for k, (rid, array) in enumerate(pairs):
            array = _float_array(array, label.format(rid))
            shape = array.shape if k == 0 else shape  # the first array's
            if array.ndim != ndim or array.shape != shape or not np.isfinite(array).all():
                raise InvalidInstance(
                    f"{label.format(rid)} must be finite and {ndim}-D, of the first {noun}'s shape {shape}; "
                    f"got shape {array.shape}"
                )
    stack.setflags(write=False)
    return ids, stack


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
        transition = finite_array(self.transition, "transition").copy()
        initial_dist = finite_array(self.initial_dist, "initial_dist").copy()
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
        check_number(self.discount, DISCOUNT, "discount")
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
        check_object(data, "MDP document", ("n_states", "n_actions", "discount", "mu0", "transition"))
        mdp = cls(transition=data["transition"], initial_dist=data["mu0"], discount=data["discount"])
        if (mdp.n_states, mdp.n_actions) != (data["n_states"], data["n_actions"]):
            raise InvalidInstance("declared n_states/n_actions do not match the transition tensor")
        return mdp


def check_reward(mdp: TabularMdp, reward: np.ndarray) -> np.ndarray:
    reward = finite_array(reward, "reward")
    shape = (mdp.n_states, mdp.n_actions, mdp.n_states)
    if reward.shape != shape:
        raise InvalidInstance(f"reward must have shape {shape}, got {reward.shape}")
    return reward


def reward_stack(mdp: TabularMdp, rewards) -> np.ndarray:
    """The (N, S, A, S) stack of N rewards, a new float array, checked as a whole.

    A stack that fails the check raises ``check_reward``'s error for its
    first bad reward.
    """
    try:
        stack = np.array(rewards, dtype=float)
    except (TypeError, ValueError, OverflowError):
        stack = None
    shape = (mdp.n_states, mdp.n_actions, mdp.n_states)
    if stack is None or stack.shape[1:] != shape or not len(stack) or not np.isfinite(stack).all():
        return np.stack([check_reward(mdp, reward) for reward in rewards])
    return stack


def check_policy(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    policy = finite_array(policy, "policy")
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

    The kernel accepts each item's Bellman residual at ``DEFAULT_DP_TOL``,
    floored at the roundoff of that item's Q-values (``_kernels.tolerance``).
    ``DEFAULT_MAX_ITERS`` bounds the rounds.  The first item that misses its
    tolerance raises ConvergenceError, with its index as ``item``.
    """
    return _kernels.policy_iteration(expected_reward(mdp, rewards), mdp.transition, mdp.discount, DEFAULT_MAX_ITERS)[:2]


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
    check_number(n_states, COUNT, "n_states")
    check_number(n_actions, COUNT, "n_actions")
    check_number(concentration, POSITIVE, "concentration")
    rng = seeded_rng(seed)
    alpha = np.full(n_states, float(concentration))
    transition = rng.dirichlet(alpha, size=(n_states, n_actions))
    initial_dist = rng.dirichlet(alpha)
    return TabularMdp(transition=transition, initial_dist=initial_dist, discount=discount)


def random_reward(seed: int, n_states: int, n_actions: int, scale: float = 1.0) -> np.ndarray:
    """Seeded i.i.d. Gaussian reward tensor."""
    check_number(n_states, COUNT, "n_states")
    check_number(n_actions, COUNT, "n_actions")
    rng = seeded_rng(seed)
    return check_number(scale, FINITE, "scale") * rng.standard_normal((n_states, n_actions, n_states))


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


def read_json(path):
    """The JSON document in the file at ``path``.

    A file that cannot be read, or that holds no valid JSON, raises
    InvalidInstance naming ``path``.
    """
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInstance(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError, or bytes that are not UTF-8
        raise InvalidInstance(f"{path} is not valid JSON: {exc}") from exc


def write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, rewriting an existing file in place.

    The file is opened without ``O_TRUNC``: on a filesystem that discards
    freed blocks, truncating a file that holds data to length 0 costs more
    than writing a small report.  The old tail is cut after the write
    instead, so the file holds exactly ``text``.  Only a regular file is
    cut: a device such as ``/dev/null`` refuses ``ftruncate``.  An existing
    file keeps its inode, mode, owner and links; a new one gets the mode
    that ``open(path, "w")`` gives under the umask.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode())
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def load_mdp(path) -> TabularMdp:
    return TabularMdp.from_dict(read_json(path))


def save_mdp(mdp: TabularMdp, path) -> None:
    write_file(path, json.dumps(mdp.to_dict(), allow_nan=False))


def _reward_values(values) -> np.ndarray:
    """The rule of a reward file's values: a finite (S, A, S) float array."""
    reward = finite_array(values, "reward")
    if reward.ndim != 3 or reward.shape[0] != reward.shape[2]:
        raise InvalidInstance(f"reward values must have shape (S, A, S), got {reward.shape}")
    return reward


def load_reward(path, mdp: TabularMdp | None = None) -> np.ndarray:
    data = check_object(read_json(path), "reward document", ("values",))
    reward = _reward_values(data["values"])
    return reward if mdp is None else check_reward(mdp, reward)


def save_reward(reward: np.ndarray, path) -> None:
    """Write ``reward`` as ``load_reward`` reads it; a reward it would refuse raises InvalidInstance, writing nothing."""
    write_file(path, json.dumps({"values": _reward_values(reward).tolist()}, allow_nan=False))
