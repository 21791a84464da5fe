"""Marginalised posterior for an unknown number of sinusoids in white Gaussian noise.

With a g-prior on the cosine/sine amplitudes and Jeffreys prior on the noise
variance, both integrate out analytically and the posterior over (k, omega)
reduces to a quadratic-form expression evaluated here, together with the
within-model frequency move, hyperparameter moves for the component-count mean
and the g-prior scale, and synthetic-signal generation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

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


def quad_form(y, omega, delta2: float) -> float:
    """y^T P_k y with P_k the g-prior shrinkage projection; y^T y when k = 0.

    P_k is never formed: the quadratic form is y^T y minus the shrunk squared
    projection, so the result always lies in [|y|^2 / (1 + delta2), |y|^2].
    A factorised projection above |y|^2, which nearly coincident frequencies
    can produce, means the design is singular to working precision and raises
    SingularDesignError.
    """
    y = np.asarray(y, dtype=float)
    yty = float(y @ y)
    omega = np.asarray(omega, dtype=float)
    if omega.size == 0 or delta2 == 0.0:
        return yty
    s = _projection_norm2(y, omega)
    if not s <= yty:
        raise SingularDesignError(f"projection exceeds |y|^2 at omega={tuple(omega)}")
    return yty - delta2 / (1.0 + delta2) * s


def sinusoid_log_target(y, omega, lam: float, delta2: float, k_max: int) -> float:
    """Unnormalised log posterior of (k, omega) given the data.

    -(N/2) log(y^T P_k y) + k log(lam) - k log(pi) - log k! - k log(1+delta2),
    or -inf outside (0, pi)^k, above the truncation, or on a numerically
    singular design.
    """
    y = np.asarray(y, dtype=float)
    k = len(omega)
    if k > k_max:
        return NEG_INF
    if any(not OMEGA_LOW < w < OMEGA_HIGH for w in omega):
        return NEG_INF
    try:
        q = quad_form(y, omega, delta2)
    except SingularDesignError:
        return NEG_INF
    n = y.size
    return (-0.5 * n * math.log(q) + k * math.log(lam) - k * math.log(math.pi)
            - math.lgamma(k + 1) - k * math.log1p(delta2))


# Component tuples memoised per SinusoidPosterior, oldest evicted first.
POSTERIOR_CACHE_SIZE = 64


class SinusoidPosterior:
    """Target density over (k, omega) for fixed hyperparameters.

    Holds the observations y, the g-prior scale delta2, the component-count
    mean lam and the truncation k_max.  Evaluations
    are memoised on the component tuple (the density is deterministic), which
    saves repeated factorisations of the current state during a sweep.
    """

    def __init__(self, y, lam: float, delta2: float, k_max: int = 32):
        self.y = np.asarray(y, dtype=float)
        if self.y.ndim != 1 or self.y.size == 0:
            raise ConfigurationError("y must be a nonempty vector")
        if lam <= 0 or delta2 < 0 or k_max < 0:
            raise ConfigurationError("lam must be positive; delta2, k_max nonnegative")
        self.n_obs = self.y.size
        self.lam = float(lam)
        self.delta2 = float(delta2)
        self.k_max = int(k_max)
        self._cache: dict[tuple, float] = {}

    def log_density(self, x: VarDimState) -> float:
        cached = self._cache.get(x.components)
        if cached is not None:
            return cached
        val = sinusoid_log_target(self.y, x.components, self.lam, self.delta2, self.k_max)
        if len(self._cache) >= POSTERIOR_CACHE_SIZE:
            self._cache.pop(next(iter(self._cache)))
        self._cache[x.components] = val
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
        if k > self.k_max:
            return NEG_INF
        if any(not OMEGA_LOW < w < OMEGA_HIGH for w in x.components):
            return NEG_INF
        return (k * math.log(self.lam) - k * math.log(OMEGA_HIGH - OMEGA_LOW)
                - math.lgamma(k + 1))


def frequency_update_move(x: VarDimState, target: TargetDensity, rng: Rng,
                          walk_sd: float, walk_prob: float = 0.8) -> ProposalOutcome:
    """Within-model update of one frequency; never changes k.

    One index is picked uniformly; with probability ``walk_prob`` the proposal
    is a Gaussian random-walk step of the given std, otherwise an independent
    uniform draw on (0, pi).  Both branches have symmetric proposal ratio,
    so the log ratio is the log target difference (with -inf outside the
    domain).
    """
    if x.k == 0:
        raise BrokenKernelError("frequency update proposed at k=0")
    index = int(rng.integers(0, x.k))
    if rng.random() < walk_prob:
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


def log_truncated_poisson_normalizer(lam: float, k_max: int) -> float:
    """log sum_{j=0}^{k_max} lam^j / j!."""
    j = np.arange(k_max + 1)
    return float(logsumexp(j * math.log(lam) - [math.lgamma(v + 1) for v in j]))


def sample_lambda(current: float, k: int, shape: float, rate: float, k_max: int,
                  rng: Rng) -> tuple[float, bool]:
    """One MH update of the component-count mean given the current order k.

    Proposes from the untruncated conjugate Gamma(shape + k, rate + 1) and
    corrects for the truncated-Poisson normalizer, which leaves the
    conditional law invariant; the correction tends to 1 as k_max grows.
    Returns (new value, accepted flag).
    """
    proposed = float(rng.gamma(shape + k, 1.0 / (rate + 1.0)))
    if proposed <= 0.0:
        return current, False
    log_ratio = ((proposed - current)
                 + log_truncated_poisson_normalizer(current, k_max)
                 - log_truncated_poisson_normalizer(proposed, k_max))
    if mhg_accept(log_ratio, rng):
        return proposed, True
    return current, False


def sample_delta2(current: float, x: VarDimState, y, shape: float, scale: float,
                  rng: Rng, walk_sd: float = 0.5) -> tuple[float, bool]:
    """One random-walk MH update of the g-prior scale on the log scale.

    Targets the conditional density proportional to
    IG(delta2; shape, scale) * (y^T P_k y)^(-N/2) * (1 + delta2)^(-k),
    with the log-scale Jacobian included.  Returns (new value, accepted flag).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    k = x.k
    yty = float(y @ y)
    s = _projection_norm2(y, x.components) if k > 0 else 0.0

    def log_cond(d2: float) -> float:
        quad = yty - d2 / (1.0 + d2) * s
        return (-(shape + 1.0) * math.log(d2) - scale / d2
                - 0.5 * n * math.log(quad) - k * math.log1p(d2))

    v = math.log(current)
    v_new = v + walk_sd * rng.standard_normal()
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
    j = np.arange(k_max + 1)
    log_w = j * math.log(lam) - power * np.array([math.lgamma(v + 1) for v in j])
    return np.exp(log_w - logsumexp(log_w))


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
