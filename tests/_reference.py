"""Slow, independent ground truth that the tests check the fast paths against.

Plain value iteration for the Bellman solvers, and the projection through
the dense invariance basis for the closed-form canonicalization.  Both are
only feasible on small instances.
"""

from __future__ import annotations

import numpy as np

from starclab.mdp import ConvergenceError, TabularMdp, check_reward
from starclab.transforms import invariance_basis


def value_iteration_oracle(
    mdp: TabularMdp,
    reward: np.ndarray,
    weight: float | None = None,
    tol: float = 1e-12,
    max_sweeps: int = 1_000_000,
) -> np.ndarray:
    """Plain value iteration: optimal values, or soft values at ``weight``.

    Sweeps the (soft) Bellman operator from zero until successive iterates
    differ by less than ``tol``; the values are then within
    ``tol * gamma / (1 - gamma)`` of the fixed point.
    """
    er = np.einsum("sat,sat->sa", mdp.transition, check_reward(mdp, reward))
    v = np.zeros(mdp.n_states)
    for _ in range(max_sweeps):
        q = er + mdp.discount * (mdp.transition @ v)
        v_new = q.max(axis=1)
        if weight is not None:
            v_new = v_new + weight * np.log(np.exp((q - v_new[:, None]) / weight).sum(axis=1))
        if np.abs(v_new - v).max() < tol:
            return v_new
        v = v_new
    raise ConvergenceError(f"value iteration did not settle in {max_sweeps} sweeps")


def dense_invariant_projection(mdp: TabularMdp, tensor: np.ndarray) -> np.ndarray:
    """Projection onto the invariance subspace through its explicit orthonormal basis.

    Builds the O((S^2 A)^3) SVD basis of ``invariance_basis``, so it is only
    feasible for small environments; it is the dense ground truth for the
    closed-form ``transforms.project_invariant``.
    """
    basis = invariance_basis(mdp).combined_orthonormal
    flat_basis = basis.reshape(basis.shape[0], -1)
    tensor = np.asarray(tensor, dtype=float)
    return ((flat_basis @ tensor.ravel()) @ flat_basis).reshape(tensor.shape)
