"""Marginalised posterior for an unknown number of sinusoids in white Gaussian noise.

With a g-prior on the cosine/sine amplitudes and Jeffreys prior on the noise
variance, both integrate out analytically and the posterior over (k, omega)
reduces to a quadratic-form expression evaluated here, together with the
within-model frequency move, hyperparameter moves for the component-count mean
and the g-prior scale, and synthetic-signal generation.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .core import (
    NEG_INF,
    BrokenKernelError,
    ConfigurationError,
    ProposalOutcome,
    Rng,
    TargetDensity,
    VarDimState,
    mhg_accept,
)

OMEGA_LOW = 0.0
OMEGA_HIGH = math.pi


class SingularDesignError(RuntimeError):
    """The regression design is numerically singular (near-duplicate frequencies)."""


def design_matrix(omega, n_obs: int) -> np.ndarray:
    """N x 2k design with columns cos(w_j t), sin(w_j t), t = 0 .. N-1."""
    omega = np.asarray(omega, dtype=float)
    t = np.arange(n_obs, dtype=float)
    phases = np.outer(t, omega)
    d = np.empty((n_obs, 2 * omega.size))
    d[:, 0::2] = np.cos(phases)
    d[:, 1::2] = np.sin(phases)
    return d


NEAR_DUPLICATE_GAP = 1e-8


def _projection_norm2(y: np.ndarray, omega) -> float:
    """Squared norm of the whitened projection of y onto the design columns.

    Computed through a Cholesky factorisation of D^T D.  Near-duplicate
    frequencies (gap below ~1e-8, a posterior null set) and factorisation
    failures raise SingularDesignError.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.size > 1 and float(np.diff(np.sort(omega)).min()) < NEAR_DUPLICATE_GAP:
        raise SingularDesignError(f"near-duplicate frequencies in omega={tuple(omega)}")
    d = design_matrix(omega, y.size)
    gram = d.T @ d
    z = d.T @ y
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise SingularDesignError(f"design is singular at omega={tuple(omega)}")
    w = solve_triangular(chol, z, lower=True)
    return float(w @ w)


def quad_form(y, omega, delta2: float, *, s: float | None = None) -> float:
    """y^T P_k y with P_k the g-prior shrinkage projection; y^T y when k = 0.

    P_k is never formed: the quadratic form is y^T y minus the shrunk squared
    projection s, so the result always lies in [|y|^2 / (1 + delta2), |y|^2].
    A caller that already holds s = _projection_norm2(y, omega) passes it.
    A factorised projection above |y|^2 (inf included), which nearly
    coincident frequencies can produce, means the design is singular to
    working precision and raises SingularDesignError.
    """
    y = np.asarray(y, dtype=float)
    yty = float(y @ y)
    if len(omega) == 0 or delta2 == 0.0:
        return yty
    if s is None:
        s = _projection_norm2(y, omega)
    if not s <= yty:
        raise SingularDesignError(f"projection exceeds |y|^2 at omega={tuple(omega)}")
    return yty - delta2 / (1.0 + delta2) * s


def _in_support(omega, k_max: int) -> bool:
    """At most k_max components, each in (0, pi)."""
    return len(omega) <= k_max and all(OMEGA_LOW < w < OMEGA_HIGH for w in omega)


def sinusoid_log_target(y, omega, lam: float, delta2: float, k_max: int, *,
                        s: float | None = None) -> float:
    """Unnormalised log posterior of (k, omega) given the data.

    -(N/2) log(y^T P_k y) + k log(lam) - k log(pi) - log k! - k log(1+delta2),
    or -inf outside (0, pi)^k, above the truncation, or on a numerically
    singular design.  ``s`` is the projection norm, when the caller holds it
    (see quad_form).
    """
    y = np.asarray(y, dtype=float)
    k = len(omega)
    if not _in_support(omega, k_max):
        return NEG_INF
    try:
        q = quad_form(y, omega, delta2, s=s)
    except SingularDesignError:
        return NEG_INF
    n = y.size
    return (-0.5 * n * math.log(q) + k * math.log(lam) - k * math.log(math.pi)
            - math.lgamma(k + 1) - k * math.log1p(delta2))


# Component tuples memoised per SinusoidPosterior, oldest evicted first.
POSTERIOR_CACHE_SIZE = 64


def _remember(memo: dict, key: tuple, value: float) -> None:
    """Store into a FIFO memo bounded by POSTERIOR_CACHE_SIZE."""
    if len(memo) >= POSTERIOR_CACHE_SIZE:
        memo.pop(next(iter(memo)))
    memo[key] = value


class SinusoidPosterior:
    """Target density over (k, omega) for one data vector, with settable hyperparameters.

    Holds the observations y and |y|^2, the truncation k_max, and the current
    component-count mean lam and g-prior scale delta2, which a chain may
    change between sweeps through ``set_hyperparameters``.  Two memos, both
    keyed on the component tuple, save factorisations: the projection norm
    s(omega), which depends on neither hyperparameter and so lives as long as
    the posterior, and the log density at the current (lam, delta2), which
    is cleared when either changes.  Both store exactly what a fresh
    evaluation returns, so memoisation never changes a value.
    """

    def __init__(self, y, lam: float, delta2: float, k_max: int = 32):
        self.y = np.asarray(y, dtype=float)
        if self.y.ndim != 1 or self.y.size == 0:
            raise ConfigurationError("y must be a nonempty vector")
        if not (np.all(np.isfinite(self.y)) and np.any(self.y)):
            raise ConfigurationError("y must be finite and not all zero")
        if not (0.0 < lam < math.inf and 0.0 <= delta2 < math.inf and k_max >= 0):
            raise ConfigurationError("lam must be finite and positive; delta2 finite and "
                                     "nonnegative; k_max nonnegative")
        self.n_obs = self.y.size
        self.yty = float(self.y @ self.y)
        self.lam = float(lam)
        self.delta2 = float(delta2)
        self.k_max = int(k_max)
        self._norms: dict[tuple, float] = {}
        self._densities: dict[tuple, float] = {}

    def set_hyperparameters(self, lam: float, delta2: float) -> None:
        """Move to new (lam, delta2); the density memo is dropped if either changed."""
        if lam != self.lam or delta2 != self.delta2:
            self.lam = float(lam)
            self.delta2 = float(delta2)
            self._densities.clear()

    def projection_norm(self, omega: tuple) -> float:
        """s(omega) = _projection_norm2(y, omega), 0 at k = 0, inf on a singular design."""
        s = self._norms.get(omega)
        if s is None:
            try:
                s = _projection_norm2(self.y, omega) if omega else 0.0
            except SingularDesignError:
                s = math.inf
            _remember(self._norms, omega, s)
        return s

    def log_density(self, x: VarDimState) -> float:
        omega = x.components
        val = self._densities.get(omega)
        if val is None:
            # s is factorised only where quad_form reads it: inside the support
            # and at delta2 != 0.
            s = None
            if self.delta2 != 0.0 and _in_support(omega, self.k_max):
                s = self.projection_norm(omega)
            val = sinusoid_log_target(self.y, omega, self.lam, self.delta2, self.k_max, s=s)
            _remember(self._densities, omega, val)
        return val


@dataclass(frozen=True)
class PriorOnlyTarget:
    """The (k, omega) prior alone: truncated-Poisson order, i.i.d. uniform components.

    Used by the flat-likelihood switch; its exact k-marginal is the truncated
    Poisson law, which makes it the reference target for ratio diagnostics.
    """

    lam: float
    k_max: int

    def log_density(self, x: VarDimState) -> float:
        k = x.k
        if not _in_support(x.components, self.k_max):
            return NEG_INF
        return (k * math.log(self.lam) - k * math.log(OMEGA_HIGH - OMEGA_LOW)
                - math.lgamma(k + 1))


def frequency_update_move(x: VarDimState, target: TargetDensity, rng: Rng,
                          walk_sd: float) -> ProposalOutcome:
    """Within-model update of one frequency; never changes k.

    One index is picked uniformly; with probability 0.8 the proposal is a
    Gaussian random-walk step of std ``walk_sd``, otherwise an independent
    uniform draw on (0, pi).  Both branches have symmetric proposal ratio,
    so the log ratio is the log target difference (with -inf outside the
    domain).
    """
    if x.k == 0:
        raise BrokenKernelError("frequency update proposed at k=0")
    index = int(rng.integers(0, x.k))
    if rng.random() < 0.8:
        new = x.components[index] + walk_sd * rng.standard_normal()
    else:
        new = rng.uniform(OMEGA_LOW, OMEGA_HIGH)
    comps = list(x.components)
    comps[index] = float(new)
    proposed = VarDimState(tuple(comps))
    if not OMEGA_LOW < new < OMEGA_HIGH:
        return ProposalOutcome(proposed, NEG_INF)
    lt_new = target.log_density(proposed)
    if lt_new == NEG_INF:
        return ProposalOutcome(proposed, NEG_INF, proposed_log_density=lt_new)
    log_ratio = lt_new - target.log_density(x)
    return ProposalOutcome(proposed, log_ratio, proposed_log_density=lt_new)


@functools.lru_cache(maxsize=8)
def _order_terms(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(j, log j!) for j = 0 .. k_max, shared read-only by every caller."""
    j = np.arange(k_max + 1)
    log_fact = np.array([math.lgamma(v + 1) for v in j])
    j.flags.writeable = False
    log_fact.flags.writeable = False
    return j, log_fact


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite 1-D array, bit for bit as scipy.special.logsumexp.

    A transcription of scipy 1.17's algorithm for real input, without its
    array-API dispatch: the maxima are masked out of the shifted sum, which
    enters through log1p, and their count m through log(m).
    """
    a_max = a.max()
    is_max = a == a_max
    m = np.float64(np.count_nonzero(is_max))
    s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum()
    if s != 0.0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + a_max)


def log_truncated_poisson_normalizer(lam: float, k_max: int) -> float:
    """log sum_{j=0}^{k_max} lam^j / j!."""
    j, log_fact = _order_terms(k_max)
    return _logsumexp(j * math.log(lam) - log_fact)


def sample_lambda(current: float, log_z: float, k: int, shape: float, rate: float,
                  k_max: int, rng: Rng) -> tuple[float, float, bool]:
    """One MH update of the component-count mean given the current order k.

    Proposes from the untruncated conjugate Gamma(shape + k, rate + 1) and
    corrects for the truncated-Poisson normalizer, which leaves the
    conditional law invariant; the correction tends to 1 as k_max grows.
    ``log_z`` is log_truncated_poisson_normalizer(current, k_max), which the
    previous update returned, so each update evaluates one normaliser.
    Returns (new value, its log normaliser, accepted flag).
    """
    proposed = float(rng.gamma(shape + k, 1.0 / (rate + 1.0)))
    if proposed <= 0.0:
        return current, log_z, False
    log_z_prop = log_truncated_poisson_normalizer(proposed, k_max)
    log_ratio = (proposed - current) + log_z - log_z_prop
    if mhg_accept(log_ratio, rng):
        return proposed, log_z_prop, True
    return current, log_z, False


def sample_delta2(current: float, x: VarDimState, posterior: SinusoidPosterior,
                  shape: float, scale: float, rng: Rng) -> tuple[float, bool]:
    """One random-walk MH update of the g-prior scale, a N(0, 0.5^2) step on the log scale.

    Targets the conditional density proportional to
    IG(delta2; shape, scale) * (y^T P_k y)^(-N/2) * (1 + delta2)^(-k),
    with the log-scale Jacobian included.  The projection norm of x comes
    from the posterior's memo.  Returns (new value, accepted flag).
    """
    n = posterior.n_obs
    k = x.k
    yty = posterior.yty
    s = posterior.projection_norm(x.components)

    def log_cond(d2: float) -> float:
        quad = yty - d2 / (1.0 + d2) * s
        return (-(shape + 1.0) * math.log(d2) - scale / d2
                - 0.5 * n * math.log(quad) - k * math.log1p(d2))

    v = math.log(current)
    v_new = v + 0.5 * rng.standard_normal()
    proposed = math.exp(v_new)
    log_ratio = (log_cond(proposed) + v_new) - (log_cond(current) + v)
    if mhg_accept(log_ratio, rng):
        return proposed, True
    return current, False


def synthesize(omega, amp2, snr_db: float, n_obs: int, rng: Rng) -> np.ndarray:
    """Clean sinusoid mixture plus white noise scaled to the requested SNR.

    Each component's squared amplitude splits evenly between the cosine and
    sine terms.  The noise variance is |clean|^2 / (N * 10^(SNR/10)), so the
    realized SNR matches the request exactly by construction.
    """
    omega = tuple(float(w) for w in omega)
    amp2 = tuple(float(a) for a in amp2)
    if len(omega) != len(amp2):
        raise ConfigurationError("omega and amp2 must have matching lengths")
    if omega:
        amps = np.empty(2 * len(omega))
        amps[0::2] = np.sqrt(np.asarray(amp2) / 2.0)
        amps[1::2] = np.sqrt(np.asarray(amp2) / 2.0)
        clean = design_matrix(omega, n_obs) @ amps
    else:
        clean = np.zeros(n_obs)
    if math.isinf(snr_db) and snr_db > 0:
        return clean
    sigma2 = float(clean @ clean) / (n_obs * 10.0 ** (snr_db / 10.0))
    return clean + math.sqrt(sigma2) * rng.standard_normal(n_obs)


def _order_pmf(lam: float, k_max: int, power: int) -> np.ndarray:
    """pmf proportional to lam^j / (j!)^power on {0, ..., k_max}."""
    j, log_fact = _order_terms(k_max)
    log_w = j * math.log(lam) - power * log_fact
    return np.exp(log_w - _logsumexp(log_w))


def truncated_poisson_pmf(lam: float, k_max: int) -> np.ndarray:
    """Poisson(lam) truncated to {0, ..., k_max}."""
    return _order_pmf(lam, k_max, 1)


def accelerated_poisson_pmf(lam: float, k_max: int) -> np.ndarray:
    """pmf proportional to lam^k / (k!)^2 on {0, ..., k_max}.

    This is the model-order law implicitly imposed by the legacy erroneous
    birth ratio; it puts markedly more mass on sparse models than the plain
    Poisson with the same mean parameter.
    """
    return _order_pmf(lam, k_max, 2)
