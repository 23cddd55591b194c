"""A pseudometric on reward functions that captures policy-ordering agreement.

Each reward is canonicalized — projected onto the orthogonal complement of
the shaping-plus-redistribution subspace, giving the minimum-norm member of
its order-equivalence class — then normalized to unit length (or zero, for
rewards under which all policies tie).  The distance between two rewards is
half the Euclidean distance between their standardized forms: 0 means the
rewards order policies identically, 1 means they order policies oppositely,
and distance from any non-trivial reward to a trivial one is 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import TabularMdp, check_reward
from .transforms import project_invariant

# A reward is trivial when its canonical part is at most this fraction of
# the reward's own norm: below that it is roundoff of the projection, at any
# reward magnitude.
TRIVIAL_RTOL = 1e-9


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


def canonicalize(mdp: TabularMdp, reward: np.ndarray) -> CanonicalReward:
    reward = check_reward(mdp, reward)
    canonical = reward - project_invariant(mdp, reward)
    return CanonicalReward(canonical=canonical, norm=float(np.linalg.norm(canonical)))


def _unit(mdp: TabularMdp, reward: np.ndarray) -> tuple[CanonicalReward, np.ndarray]:
    """The canonical reward and its unit direction (zero for trivial rewards)."""
    canon = canonicalize(mdp, reward)
    if canon.norm <= TRIVIAL_RTOL * np.linalg.norm(reward):
        return canon, np.zeros_like(canon.canonical)
    return canon, canon.canonical / canon.norm


def standardize(mdp: TabularMdp, reward: np.ndarray) -> np.ndarray:
    """Unit-norm canonical reward, or the zero tensor for trivial rewards."""
    return _unit(mdp, reward)[1]


def is_trivial(mdp: TabularMdp, reward: np.ndarray) -> bool:
    return not standardize(mdp, reward).any()


def starc_distance(mdp: TabularMdp, reward_1: np.ndarray, reward_2: np.ndarray) -> MetricReport:
    canon_1, unit_1 = _unit(mdp, reward_1)
    canon_2, unit_2 = _unit(mdp, reward_2)
    distance = 0.5 * float(np.linalg.norm(unit_1 - unit_2))
    cosine = float((unit_1 * unit_2).sum())
    return MetricReport(
        distance=distance,
        canonical_norm_1=canon_1.norm,
        canonical_norm_2=canon_2.norm,
        cosine=cosine,
    )


def regret_gap(
    mdp: TabularMdp, reward_1: np.ndarray, reward_2: np.ndarray, cap: int = 4096
) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """Worst normalized regret under reward 1 among policy swaps reward 2 endorses.

    Maximizes (J1(pi_1) - J1(pi_2)) / (max J1 - min J1) over deterministic
    policy pairs with J2(pi_2) >= J2(pi_1).  Returns 0 with no witness when
    reward 1 is trivial on deterministic policies (range below 1e-12).
    """
    from .oracles import regret_witness_search

    reward_1 = check_reward(mdp, reward_1)
    reward_2 = check_reward(mdp, reward_2)
    return regret_witness_search(mdp, reward_1, reward_2, cap=cap)
