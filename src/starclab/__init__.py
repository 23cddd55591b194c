"""Tabular-MDP toolkit for reward-function distances, behavioural models,
and misspecification-robustness certificates."""

from .mdp import (
    ConvergenceError,
    InvalidInstance,
    TabularMdp,
    occupancy_measure,
    optimal_values,
    policy_evaluation,
    policy_return,
    random_mdp,
    random_reward,
    three_state_chain,
)
from .metric import (
    CanonicalReward,
    MetricReport,
    canonicalize,
    distance_table,
    regret_gap,
    standardize,
    starc_distance,
)
from .models import (
    BehavioralModelSpec,
    ModelTable,
    boltzmann_policy,
    materialize_model,
    mce_policy,
    optimal_policy_uniform,
)
from .oracles import (
    enumerate_deterministic_policies,
    monte_carlo_return,
    regret_witness_search,
    same_order_oracle,
)
from .robustness import (
    CounterexampleCertificate,
    HypothesisSet,
    PolicyMetricSpec,
    RobustnessVerdict,
    check_epsilon_robust,
    decompose_transformation,
    discount_counterexample,
    gridworld_demo,
    min_robust_epsilon,
    optimality_nonrobustness_witness,
    perturbation_counterexample,
    separation_witness_search,
    torus_gridworld,
    transition_counterexample,
    two_epsilon_lemma_check,
    verify_transformation_bound,
)
from .transforms import (
    TransformChain,
    apply_potential_shaping,
    apply_redistribution_noise,
    canonical_operator,
    differ_by,
    invisible_reward_discount,
    invisible_reward_transition,
    project_invariant,
)

__version__ = "0.1.0"
