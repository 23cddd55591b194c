import numpy as np
import pytest

from starclab import TabularMdp, random_mdp, random_reward


@pytest.fixture
def mdp_4x3():
    return random_mdp(0, 4, 3)


@pytest.fixture
def reward_4x3():
    return random_reward(1, 4, 3)


@pytest.fixture
def one_state_mdp():
    def make(n_actions: int, discount: float = 0.9) -> TabularMdp:
        return TabularMdp(
            transition=np.ones((1, n_actions, 1)),
            initial_dist=np.array([1.0]),
            discount=discount,
        )

    return make


@pytest.fixture
def near_kernel_pair(mdp_4x3):
    """``mdp_4x3`` and a copy whose row (0, 0) has ``gap`` moved from its second entry to its first."""

    def make(gap: float) -> tuple[TabularMdp, TabularMdp]:
        transition = mdp_4x3.transition.copy()
        transition[0, 0, :2] += [gap, -gap]
        return mdp_4x3, TabularMdp(transition=transition, initial_dist=mdp_4x3.initial_dist, discount=mdp_4x3.discount)

    return make
