"""Trans-dimensional MCMC with exact birth-or-death acceptance ratios."""

from .core import (
    BrokenKernelError,
    ChainOutput,
    ConfigurationError,
    IterationRecord,
    Move,
    VarDimState,
    mhg_accept,
    mixture_step,
    rng_stream,
    run_chain,
    select_move,
)
from .birthdeath import (
    BirthDeathSchedule,
    ComponentProposal,
    SortedRestriction,
    birth_propose_sorted,
    birth_propose_unsorted,
    bod_move_set,
    death_propose,
    move_log_ratio,
    pmf_component_proposal,
    uniform_component_proposal,
)
from .sinusoid import (
    PriorOnlyTarget,
    SinusoidPosterior,
    accelerated_poisson_pmf,
    design_matrix,
    frequency_update_move,
    quad_form,
    sample_delta2,
    sample_lambda,
    sinusoid_log_target,
    synthesize,
    truncated_poisson_pmf,
)
from .experiment import run_joint_chain
from .oracle import (
    DiscreteToySpec,
    build_transition_matrix,
    detailed_balance_residual,
    enumerate_states,
    normalized_target_vector,
    quadrature_posterior_k,
    random_toy_spec,
    stationary_distribution,
    tv_distance,
)

__version__ = "0.1.0"
