"""Chain driver for the full sinusoid model, with hyperparameter sampling.

One sweep composes invariant kernels: optional hyperparameter updates for the
component-count mean and the g-prior scale, one step of the birth-or-death
mixture (``core.mhg_step`` over ``bod_move_set``, whose remaining mass is the
reject-surely identity move "none"), and one within-model frequency update.
Each sweep produces one record, so iteration counts refer to sweeps.
"""
from __future__ import annotations

import math

import numpy as np

from .birthdeath import (
    BirthDeathSchedule,
    SortedRestriction,
    bod_move_set,
    uniform_component_proposal,
)
from .core import (
    BrokenKernelError,
    ChainOutput,
    ConfigurationError,
    IterationRecord,
    Rng,
    VarDimState,
    check_iteration_counts,
    mhg_accept,
    mhg_step,
)
from .sinusoid import (
    PriorOnlyTarget,
    SinusoidPosterior,
    frequency_update_move,
    log_truncated_poisson_normalizer,
    sample_delta2,
    sample_lambda,
)


def run_joint_chain(
    y,
    *,
    n_iter: int,
    burn_in: int,
    k_max: int = 32,
    c: float = 0.25,
    ratio_mode: str = "corrected",
    representation: str = "unsorted",
    lam: float | None = None,
    lambda_prior: tuple[float, float] | None = None,
    delta2: float | None = None,
    delta2_prior: tuple[float, float] | None = None,
    flat_likelihood: bool = False,
    rng: Rng,
) -> ChainOutput:
    """Run the sweep chain from the empty state; fully reproducible given the generator.

    Exactly one of ``lam`` / ``lambda_prior`` must be given (likewise for
    delta2).  With ``flat_likelihood`` the data never enter the density: the
    target is the (k, omega) prior alone, the frequency-update and g-prior
    moves are skipped, and ``y`` may be omitted.
    """
    if (lam is None) == (lambda_prior is None):
        raise ConfigurationError("give exactly one of lam / lambda_prior")
    if (delta2 is None) == (delta2_prior is None):
        raise ConfigurationError("give exactly one of delta2 / delta2_prior")
    for name, prior in (("lambda_prior", lambda_prior), ("delta2_prior", delta2_prior)):
        if prior is not None and not all(0.0 < v < math.inf for v in prior):
            raise ConfigurationError(f"{name} entries must be finite and positive")
    if delta2 is not None and not 0.0 <= delta2 < math.inf:
        raise ConfigurationError("delta2 must be finite and nonnegative")
    check_iteration_counts(n_iter, burn_in)
    if not flat_likelihood:
        if y is None:
            raise ConfigurationError("observations are required unless flat_likelihood is set")
        y = np.asarray(y, dtype=float)
        walk_sd = 0.25 / y.size
    else:
        walk_sd = 0.0

    lam_val = lam if lam is not None else lambda_prior[0] / (lambda_prior[1] + 1.0)
    if delta2 is not None:
        delta2_val = delta2
    else:
        shape, scale = delta2_prior
        delta2_val = scale / (shape - 1.0) if shape > 1.0 else scale

    proposal = uniform_component_proposal()
    sorted_rep = representation == "sorted"
    x = VarDimState()
    out = ChainOutput(config={
        "n_iter": n_iter, "burn_in": burn_in, "k_max": k_max,
        "c": c, "ratio_mode": ratio_mode, "representation": representation,
        "flat_likelihood": flat_likelihood,
    })
    posterior = None if flat_likelihood else SinusoidPosterior(y, lam_val, delta2_val, k_max)
    log_z = None if lambda_prior is None else log_truncated_poisson_normalizer(lam_val, k_max)

    for i in range(n_iter):
        if lambda_prior is not None:
            lam_val, log_z, acc = sample_lambda(lam_val, log_z, x.k, lambda_prior[0],
                                                lambda_prior[1], k_max, rng)
            out.tally("lambda", acc)
        if posterior is not None:
            if delta2_prior is not None:
                delta2_val, acc = sample_delta2(delta2_val, x, posterior, delta2_prior[0],
                                                delta2_prior[1], rng)
                out.tally("delta2", acc)
            posterior.set_hyperparameters(lam_val, delta2_val)

        base = posterior if posterior is not None else PriorOnlyTarget(lam_val, k_max)
        target = SortedRestriction(base) if sorted_rep else base
        sched = BirthDeathSchedule.green(lam_val, k_max, c, proposal=proposal,
                                         representation=representation,
                                         ratio_mode=ratio_mode)
        move, outcome, move_accepted = mhg_step(bod_move_set(target, sched), x, rng, out)
        if move_accepted:
            x = outcome.proposed

        if posterior is not None and x.k >= 1:
            outcome = frequency_update_move(x, target, rng, walk_sd)
            acc = mhg_accept(outcome.log_ratio, rng)
            out.tally("update", acc)
            if acc:
                x = outcome.proposed

        log_t = target.log_density(x)
        if math.isnan(log_t):
            raise BrokenKernelError(f"target returned NaN at sweep {i}, k={x.k}")
        out.records.append(IterationRecord(
            iteration=i, k=x.k, components=x.components, log_target=log_t,
            move=move, accepted=move_accepted, burn_in=i < burn_in,
            lam=lam_val, delta2=delta2_val))
    return out
