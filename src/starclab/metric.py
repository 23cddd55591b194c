"""A pseudometric on reward functions that captures policy-ordering agreement.

Each reward is canonicalized — projected onto the orthogonal complement of
the shaping-plus-redistribution subspace, giving the minimum-norm member of
its order-equivalence class — then normalized to unit length (or zero, for
rewards under which all policies tie).  The distance between two rewards is
half the Euclidean distance between their standardized forms: 0 means the
rewards order policies identically, 1 means they order policies oppositely,
and distance from any non-trivial reward to a trivial one is 0.5.

Canonicalization is closed form (``transforms.CanonicalOperator``) and works
on stacks of rewards, so ``distance_table`` standardizes n rewards with one
operator product.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .mdp import TabularMdp, check_reward, reward_stack
from .oracles import regret_witness_search
from .transforms import CanonicalOperator, canonical_operator

# A reward is trivial when its canonical part is at most this fraction of
# the reward's own norm: below that it is roundoff of the projection, at any
# reward magnitude.
TRIVIAL_RTOL = 1e-9

# Elements in one row block of pairwise differences (2 MiB of float64), so a
# table of n by m rows of length d holds O(n*m + BLOCK_ELEMENTS) extra, not O(n*m*d).
BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class CanonicalReward:
    """Minimum-norm representative of a reward's order-equivalence class."""

    canonical: np.ndarray
    norm: float


@dataclass(frozen=True)
class MetricReport:
    """Distance between two rewards plus diagnostics."""

    distance: float
    canonical_norm_1: float
    canonical_norm_2: float
    cosine: float

    def to_dict(self) -> dict:
        return {
            "distance": self.distance,
            "canonical_norm_1": self.canonical_norm_1,
            "canonical_norm_2": self.canonical_norm_2,
            "cosine": self.cosine,
        }


def pairwise_norms(x: np.ndarray, y: np.ndarray, ord=None) -> np.ndarray:
    """The (n, m) table of ``np.linalg.norm(x[i] - y[j], ord)`` for rows x (n, d) and y (m, d).

    Each entry is taken from the difference itself, by broadcasting over
    blocks of rows of x that hold at most ``BLOCK_ELEMENTS`` differences
    (one row per block if a row alone holds more).
    """
    rows = max(1, BLOCK_ELEMENTS // max(1, y.size))
    return np.concatenate(
        [np.linalg.norm(x[i : i + rows, None] - y, ord=ord, axis=2) for i in range(0, len(x), rows)]
    )


def _standardized(
    operator: CanonicalOperator, rewards: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical coordinates of a reward stack, their norms, and unit coordinates.

    Coordinates are orthonormal, so norms and distances computed on them are
    those of the canonical tensors.  A trivial reward's unit coordinates are
    zero.
    """
    coords = operator.coordinates(rewards)
    norms = np.linalg.norm(coords, axis=1)
    trivial = norms <= TRIVIAL_RTOL * np.linalg.norm(rewards.reshape(len(rewards), -1), axis=1)
    units = np.zeros_like(coords)
    np.divide(coords, norms[:, None], out=units, where=~trivial[:, None])
    return coords, norms, units


def canonicalize(mdp: TabularMdp, reward: np.ndarray) -> CanonicalReward:
    operator = canonical_operator(mdp)
    coords, norms, _ = _standardized(operator, reward_stack(mdp, [reward]))
    return CanonicalReward(canonical=operator.tensor(coords)[0], norm=float(norms[0]))


def standardize(mdp: TabularMdp, reward: np.ndarray) -> np.ndarray:
    """Unit-norm canonical reward, or the zero tensor for trivial rewards."""
    operator = canonical_operator(mdp)
    _, _, units = _standardized(operator, reward_stack(mdp, [reward]))
    return operator.tensor(units)[0]


def is_trivial(mdp: TabularMdp, reward: np.ndarray) -> bool:
    return not standardize(mdp, reward).any()


def starc_distance(mdp: TabularMdp, reward_1: np.ndarray, reward_2: np.ndarray) -> MetricReport:
    _, norms, (unit_1, unit_2) = _standardized(canonical_operator(mdp), reward_stack(mdp, [reward_1, reward_2]))
    return MetricReport(
        distance=0.5 * float(np.linalg.norm(unit_1 - unit_2)),
        canonical_norm_1=float(norms[0]),
        canonical_norm_2=float(norms[1]),
        cosine=float(unit_1 @ unit_2),
    )


def distance_table(mdp: TabularMdp, rewards: Sequence[np.ndarray]) -> np.ndarray:
    """The (n, n) table of STARC distances between n rewards on one environment.

    The rewards are standardized together, with one operator product.  Each
    entry is taken from the difference of two standardized rewards, not from
    their cosine, so near-identical rewards stay accurate to roundoff.
    """
    _, _, units = _standardized(canonical_operator(mdp), reward_stack(mdp, rewards))
    return 0.5 * pairwise_norms(units, units)


def regret_gap(
    mdp: TabularMdp, reward_1: np.ndarray, reward_2: np.ndarray, cap: int = 4096
) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """Worst normalized regret under reward 1 among policy swaps reward 2 endorses.

    Maximizes (J1(pi_1) - J1(pi_2)) / (max J1 - min J1) over deterministic
    policy pairs with J2(pi_2) >= J2(pi_1).  Returns 0 with no witness when
    reward 1 is trivial on deterministic policies: their returns' range is
    within 1e-10 times the largest |return| (``oracles.SIGN_BAND``).
    """
    reward_1 = check_reward(mdp, reward_1)
    reward_2 = check_reward(mdp, reward_2)
    return regret_witness_search(mdp, reward_1, reward_2, cap=cap)
