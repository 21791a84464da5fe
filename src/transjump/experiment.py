"""The sweep of the full sinusoid model, with hyperparameter sampling, run by core's loop.

One sweep composes invariant kernels: optional hyperparameter updates for the
component-count mean and the g-prior scale, one step of the birth-or-death
mixture (``core.mixture_step`` over ``bod_move_set``, whose remaining mass is
the reject-surely identity move "none"), and one within-model frequency update.
The target, the schedule and that step are built once per run; the sweep
assigns a new lambda to the schedule and the base target, and a new delta2 to
the posterior, in place.  ``core.run_sweeps`` runs the sweeps and checks each
row, so iteration counts refer to sweeps.  The sweep carries log f(x) through
every kernel: it is evaluated at x once per sweep, after the hyperparameter
moves and only when lambda or delta2 is sampled, and otherwise only at proposals.
``ChainOutput.accept`` decides every proposal.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Sized

from .birthdeath import BirthDeathSchedule, SortedRestriction, bod_move_set
from .core import (
    ChainOutput,
    ConfigurationError,
    Draws,
    Rng,
    check_iteration_counts,
    mixture_step,
    run_sweeps,
)
from .sinusoid import (
    PriorOnlyTarget,
    SinusoidPosterior,
    frequency_update_move,
    log_truncated_poisson_normalizer,
    sample_delta2,
    sample_lambda,
)


def check_sweep_settings(*, n_iter: int, burn_in: int, k_max: int, c: float, ratio_mode: str,
                         representation: str, lam: float | None,
                         lambda_prior: tuple[float, float] | None, delta2: float | None,
                         delta2_prior: tuple[float, float] | None
                         ) -> tuple[BirthDeathSchedule, float]:
    """The start schedule (holding the starting lambda) and starting delta2 of
    run_joint_chain, or ConfigurationError.

    It checks the counts, the exactly-one rules, that each prior is a pair of
    finite positive real numbers, a fixed delta2 and the start values: a sampled
    lambda starts at a/(b+1), a sampled delta2 at scale/(shape-1) or, for
    shape <= 1, at scale.  Building the start schedule
    checks lambda, k_max, c, ratio mode and representation; a sweep needs k_max >= 1
    on top.  parse_config calls it too, so both reject a setting before any draw.
    """
    check_iteration_counts(n_iter, burn_in)
    if (lam is None) == (lambda_prior is None):
        raise ConfigurationError("give exactly one of lambda / lambda_prior")
    if (delta2 is None) == (delta2_prior is None):
        raise ConfigurationError("give exactly one of delta2 / delta2_prior")
    if delta2 is not None and not (isinstance(delta2, numbers.Real) and 0.0 <= delta2 < math.inf):
        raise ConfigurationError(f"delta2={delta2!r} must be a finite, nonnegative real number")
    for name, prior in (("lambda_prior", lambda_prior), ("delta2_prior", delta2_prior)):
        if prior is not None and not (isinstance(prior, Sized) and len(prior) == 2 and all(
                isinstance(v, numbers.Real) and 0.0 < v < math.inf for v in prior)):
            raise ConfigurationError(f"{name}={prior!r} must be a pair of finite positive entries")
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
    sched = BirthDeathSchedule.green(lam, k_max, c, representation=representation,
                                     ratio_mode=ratio_mode)
    if k_max < 1:
        raise ConfigurationError(f"k_max={k_max!r} must be an integer of at least 1")
    return sched, delta2


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
    rng: Rng,
) -> ChainOutput:
    """Run the sweep chain from the empty state; fully reproducible given the generator.

    Exactly one of ``lam`` / ``lambda_prior`` must be given (likewise for
    delta2).  With ``y=None`` the chain runs on the (k, omega) prior alone: the
    frequency-update and g-prior moves are skipped.  The kernels draw through a
    ``core.Draws`` of ``rng``, numpy's stream bit for bit; it skips the bit
    generator's lock, so no other thread may draw from ``rng`` during the run.
    """
    sched, delta2_val = check_sweep_settings(
        n_iter=n_iter, burn_in=burn_in, k_max=k_max, c=c, ratio_mode=ratio_mode,
        representation=representation, lam=lam, lambda_prior=lambda_prior,
        delta2=delta2, delta2_prior=delta2_prior)
    posterior = None if y is None else SinusoidPosterior(y, sched.lam, delta2_val, k_max)
    base = posterior if posterior is not None else PriorOnlyTarget(sched.lam, k_max)
    target = SortedRestriction(base) if representation == "sorted" else base
    draws = Draws(rng)
    bod_step = mixture_step(bod_move_set(target, sched), draws)
    log_z = None if lambda_prior is None else log_truncated_poisson_normalizer(sched.lam, k_max)
    resample = lambda_prior is not None or (posterior is not None and delta2_prior is not None)

    def sweep(x, log_t, out):
        nonlocal log_z, delta2_val
        if lambda_prior is not None:
            lam_new, log_ratio, log_z_new = sample_lambda(
                sched.lam, log_z, len(x), lambda_prior[0], lambda_prior[1], k_max, draws)
            if out.accept("lambda", log_ratio, draws):
                sched.lam = base.lam = lam_new
                log_z = log_z_new
        if posterior is not None and delta2_prior is not None:
            delta2_new, log_ratio = sample_delta2(delta2_val, x, posterior, delta2_prior[0],
                                                  delta2_prior[1], draws)
            if out.accept("delta2", log_ratio, draws):
                delta2_val = posterior.delta2 = delta2_new

        if resample:  # f moved with lambda or delta2: evaluate it at x once
            log_t = target.log_density(x)
        x, log_t, move, move_accepted, _, _ = bod_step(x, log_t, out)

        if posterior is not None and x:
            proposed, log_ratio, lt_new = frequency_update_move(x, log_t, target, draws,
                                                                0.25 / posterior.n_obs)
            if out.accept("update", log_ratio, draws):
                x, log_t = proposed, lt_new
        return x, log_t, move, move_accepted, sched.lam, delta2_val

    return run_sweeps(sweep, target, (), n_iter, burn_in, {"k_max": k_max})
