"""Chain driver for the full sinusoid model, with hyperparameter sampling.

One sweep composes invariant kernels: optional hyperparameter updates for the
component-count mean and the g-prior scale, one step of the birth-or-death
mixture (``core.mhg_step`` over ``bod_move_set``, whose remaining mass is the
reject-surely identity move "none"), and one within-model frequency update.
Each sweep produces one record, so iteration counts refer to sweeps.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .birthdeath import (
    RATIO_MODES,
    REPRESENTATIONS,
    BirthDeathSchedule,
    SortedRestriction,
    bod_move_set,
    uniform_component_proposal,
)
from .core import (
    BrokenKernelError,
    ChainOutput,
    ConfigurationError,
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


def check_sweep_settings(*, k_max: int, c: float, ratio_mode: str, representation: str,
                         lam: float | None, lambda_prior: tuple[float, float] | None,
                         delta2: float | None,
                         delta2_prior: tuple[float, float] | None) -> tuple[float, float]:
    """The starting (lambda, delta2) of run_joint_chain, or ConfigurationError.

    A sampled lambda starts at a/(b+1), a sampled delta2 at scale/(shape-1)
    or, for shape <= 1, at scale.  parse_config checks a config with it too,
    so the library and the CLI reject the same settings, before any draw.
    """
    if ratio_mode not in RATIO_MODES:
        raise ConfigurationError(f"unknown ratio mode {ratio_mode!r}")
    if representation not in REPRESENTATIONS:
        raise ConfigurationError(f"unknown representation {representation!r}")
    if not 0.0 < c <= 0.5:
        raise ConfigurationError(f"c={c} outside (0, 0.5]")
    if not (isinstance(k_max, numbers.Integral) and k_max >= 1):
        raise ConfigurationError(f"k_max={k_max!r} must be an integer of at least 1")
    if (lam is None) == (lambda_prior is None):
        raise ConfigurationError("give exactly one of lambda / lambda_prior")
    if (delta2 is None) == (delta2_prior is None):
        raise ConfigurationError("give exactly one of delta2 / delta2_prior")
    if lam is not None and not 0.0 < lam < math.inf:
        raise ConfigurationError(f"lambda={lam} must be finite and positive")
    if delta2 is not None and not 0.0 <= delta2 < math.inf:
        raise ConfigurationError(f"delta2={delta2} must be finite and nonnegative")
    for name, prior in (("lambda_prior", lambda_prior), ("delta2_prior", delta2_prior)):
        if prior is not None and not all(0.0 < v < math.inf for v in prior):
            raise ConfigurationError(f"{name} entries must be finite and positive")
    if lam is None:
        lam = lambda_prior[0] / (lambda_prior[1] + 1.0)
    if delta2 is None:
        shape, scale = delta2_prior
        delta2 = scale / (shape - 1.0) if shape > 1.0 else scale
    for name, prior, start in (("lambda_prior", lambda_prior, lam),
                               ("delta2_prior", delta2_prior, delta2)):
        if prior is not None and not 0.0 < start < math.inf:
            raise ConfigurationError(
                f"{name}={prior} gives the start value {start!r}, not finite and positive")
    return lam, delta2


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
    lam_val, delta2_val = check_sweep_settings(
        k_max=k_max, c=c, ratio_mode=ratio_mode, representation=representation, lam=lam,
        lambda_prior=lambda_prior, delta2=delta2, delta2_prior=delta2_prior)
    check_iteration_counts(n_iter, burn_in)
    if not flat_likelihood:
        if y is None:
            raise ConfigurationError("observations are required unless flat_likelihood is set")
        y = np.asarray(y, dtype=float)
        walk_sd = 0.25 / y.size
    else:
        walk_sd = 0.0

    proposal = uniform_component_proposal()
    sorted_rep = representation == "sorted"
    x = VarDimState()
    out = ChainOutput(config={"n_iter": n_iter, "burn_in": burn_in, "k_max": k_max})
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
        out.append(x.components, log_t, move, move_accepted, lam_val, delta2_val)
    return out
