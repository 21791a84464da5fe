"""Named verification suites with exact or statistical pass thresholds.

Each suite returns CheckResult rows; the CLI ``validate`` subcommand prints
them and the acceptance tests assert them.  Every suite runs at the full
verification scale from the fixed seed DEFAULT_SEED.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .birthdeath import BirthDeathSchedule, birth_propose_unsorted
from .core import rng_stream
from .experiment import run_joint_chain
from .oracle import (
    build_transition_matrix,
    detailed_balance_residual,
    normalized_target_vector,
    quadrature_posterior_k,
    random_toy_spec,
    stationary_distribution,
    tv_distance,
)
from .sinusoid import (
    SinusoidPosterior,
    accelerated_poisson_pmf,
    quad_form,
    synthesize,
    truncated_poisson_pmf,
)

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    comparison: str  # "<" or ">"
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name}: value={self.value:.6g} "
                f"(required {self.comparison} {self.threshold:g})")


def _check(name: str, value: float, threshold: float, comparison: str = "<") -> CheckResult:
    passed = value < threshold if comparison == "<" else value > threshold
    return CheckResult(name, float(value), float(threshold), comparison, passed)


def toy_stationarity(n_specs: int = 20, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Exact stationarity and detailed balance of the corrected kernel on random toys."""
    rng = rng_stream(seed, 1)
    worst_tv = 0.0
    worst_db = 0.0
    for i in range(n_specs):
        spec = random_toy_spec(rng, m=3 if i % 2 == 0 else 4, k_max=2)
        matrix = build_transition_matrix(spec, "corrected")
        pi_exact = normalized_target_vector(spec)
        pi_hat = stationary_distribution(matrix)
        worst_tv = max(worst_tv, tv_distance(pi_hat, pi_exact))
        worst_db = max(worst_db, detailed_balance_residual(matrix, pi_exact))
    return [
        _check(f"stationary law TV vs normalized target (worst of {n_specs} toys)",
               worst_tv, 1e-10),
        _check(f"detailed balance cell residual (worst of {n_specs} toys)",
               worst_db, 1e-12),
    ]


def ratio_cancellation() -> list[CheckResult]:
    """Birth acceptance ratio equals its closed form on random configurations.

    The closed form (quad ratio)^(-N/2) / (1 + delta2) only emerges if the
    prior, proposal and schedule bookkeeping cancel exactly, so agreement
    verifies the assembled ratio end to end.
    """
    rng = rng_stream(DEFAULT_SEED, 2)
    n_configs = 1000
    n_obs = 32
    worst = 0.0
    done = 0
    while done < n_configs:
        k = int(rng.integers(0, 6))
        y = rng.standard_normal(n_obs)
        omega = tuple(np.sort(rng.uniform(0.05, math.pi - 0.05, size=k)))
        if k and min(np.diff(omega), default=1.0) < 1e-3:
            continue
        delta2 = float(np.exp(rng.uniform(math.log(0.1), math.log(1000.0))))
        lam = float(rng.uniform(0.5, 10.0))
        model = SinusoidPosterior(y, lam, delta2, k_max=8)
        sched = BirthDeathSchedule.green(lam, 8, 0.25)
        proposed, log_ratio, _ = birth_propose_unsorted(omega, model.log_density(omega), sched,
                                                        model, rng)
        if log_ratio == float("-inf"):
            continue  # numerically singular draw; resample
        lhs = math.exp(log_ratio)
        q_k = quad_form(y, omega, delta2)
        q_k1 = quad_form(y, proposed, delta2)
        rhs = (q_k1 / q_k) ** (-n_obs / 2.0) / (1.0 + delta2)
        worst = max(worst, abs(lhs - rhs) / rhs)
        done += 1
    return [
        _check(f"birth ratio vs closed form, max relative error over {n_configs} configs",
               worst, 1e-9),
    ]


def prior_only() -> list[CheckResult]:
    """Model-order law of prior-only chains: corrected vs legacy ratio mode.

    The chains are flat-likelihood run_joint_chain runs (delta2 is then never
    read).  The corrected chain must reproduce the truncated Poisson prior; the
    legacy chain lands on the sparser law proportional to lam^k/(k!)^2 instead,
    far from the Poisson it was meant to target.
    """
    lam, k_max = 5.0, 32
    freqs = {}
    for stream, mode in enumerate(("corrected", "legacy")):
        out = run_joint_chain(None, n_iter=20_000 + 200_000, burn_in=20_000, k_max=k_max,
                              lam=lam, delta2=1.0, flat_likelihood=True, ratio_mode=mode,
                              rng=rng_stream(DEFAULT_SEED, 3, stream))
        freqs[mode] = out.k_frequencies()
    poisson = truncated_poisson_pmf(lam, k_max)
    accelerated = accelerated_poisson_pmf(lam, k_max)
    return [
        _check("corrected chain TV vs truncated Poisson",
               tv_distance(freqs["corrected"], poisson), 0.02),
        _check("legacy chain TV vs accelerated law",
               tv_distance(freqs["legacy"], accelerated), 0.02),
        _check("legacy chain TV vs plain truncated Poisson",
               tv_distance(freqs["legacy"], poisson), 0.15, ">"),
    ]


def quadrature() -> list[CheckResult]:
    """Chain k-marginal against direct quadrature on a single-tone problem.

    The chain is run_joint_chain, the driver the CLI runs, with lambda and
    delta2 fixed: each sweep is one birth-or-death step and, at k >= 1, one
    frequency update.
    """
    y = synthesize((0.63,), (20.0,), 20.0, 32, rng_stream(DEFAULT_SEED, 4, 0))
    out = run_joint_chain(y, n_iter=500_000, burn_in=50_000, k_max=2, lam=1.0,
                          delta2=100.0, rng=rng_stream(DEFAULT_SEED, 4, 1))
    freqs = out.k_frequencies(2)
    pmf = quadrature_posterior_k(y, 100.0, 1.0, 2, 200)
    return [
        _check("chain vs quadrature k-posterior, max entry difference",
               float(np.abs(freqs - pmf).max()), 0.02),
    ]


def sorted_equivalence() -> list[CheckResult]:
    """Sorted and unsorted representations of one exchangeable target agree.

    Runs flat-likelihood run_joint_chain chains under both kernels; the
    k-marginals must match because the two acceptance ratios coincide for
    exchangeable densities.
    """
    freqs = {}
    for stream, representation in enumerate(("unsorted", "sorted")):
        out = run_joint_chain(None, n_iter=10_000 + 100_000, burn_in=10_000, k_max=32,
                              lam=3.0, delta2=1.0, flat_likelihood=True,
                              representation=representation,
                              rng=rng_stream(DEFAULT_SEED, 5, stream))
        freqs[representation] = out.k_frequencies()
    return [
        _check("TV between sorted and unsorted k-marginals",
               tv_distance(freqs["unsorted"], freqs["sorted"]), 0.03),
    ]


SUITES = {
    "toy-stationarity": toy_stationarity,
    "ratio-cancellation": ratio_cancellation,
    "prior-only": prior_only,
    "quadrature": quadrature,
    "sorted-equivalence": sorted_equivalence,
}
