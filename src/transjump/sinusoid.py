"""Marginalised posterior for an unknown number of sinusoids in white Gaussian noise.

With a g-prior on the cosine/sine amplitudes and Jeffreys prior on the noise
variance, both integrate out analytically and the posterior over (k, omega)
reduces to a quadratic-form expression evaluated here, together with the
within-model frequency move, hyperparameter proposals for the component-count
mean and the g-prior scale, and synthetic-signal generation.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    NEG_INF,
    BrokenKernelError,
    ConfigurationError,
    Rng,
    TargetDensity,
    VarDimState,
    check_order_prior,
)

OMEGA_LOW = 0.0
OMEGA_HIGH = math.pi


def design_matrix(omega, n_obs: int) -> np.ndarray:
    """N x 2k design with columns cos(w_j t), sin(w_j t), t = 0 .. N-1.

    An (m, k) omega gives the (m, N, 2k) stack of its rows' designs, each
    bit for bit the design of that row alone.
    """
    omega = np.asarray(omega, dtype=float)
    t = np.arange(n_obs, dtype=float)
    phases = t[:, None] * omega[..., None, :]
    d = np.empty(phases.shape[:-1] + (2 * omega.shape[-1],))
    d[..., 0::2] = np.cos(phases)
    d[..., 1::2] = np.sin(phases)
    return d


NEAR_DUPLICATE_GAP = 1e-8


_dtrtrs = None  # scipy's LAPACK dtrtrs, bound at the first factorisation


def _projection_norm2(y: np.ndarray, omega) -> float:
    """Squared norm |w|^2 of the whitened projection of y onto the design columns.

    L w = z, with L the Cholesky factor of D^T D and z = D^T y, solved by
    the LAPACK dtrtrs call that scipy's solve_triangular makes; 0 at k = 0.
    A design singular to working precision gives inf: near-duplicate
    frequencies (gap below NEAR_DUPLICATE_GAP, a posterior null set) or a
    failed Cholesky.  A non-finite omega or y raises ValueError.  The first
    factorisation in a process imports scipy.linalg (~0.3 s and ~20 MB on a
    2-vCPU x86-64 host, most of it scipy's array-API layer), so a process
    that never factorises a scalar design, such as a prior-only chain,
    ``priors-plot`` or the oracles, never loads it.  The chain's norms all
    come through here, bit for bit.
    """
    global _dtrtrs
    omega = tuple(omega)
    if not omega:
        return 0.0
    if not all(map(math.isfinite, omega)):
        raise ValueError(f"non-finite frequency in omega={omega}")
    ordered = sorted(omega)
    if len(omega) > 1 and min(map(operator.sub, ordered[1:], ordered)) < NEAR_DUPLICATE_GAP:
        return math.inf
    d = design_matrix(omega, y.size)
    z = d.T @ y
    try:
        chol = np.linalg.cholesky(d.T @ d)
    except np.linalg.LinAlgError:
        return math.inf
    if _dtrtrs is None:
        from scipy.linalg.lapack import dtrtrs as _dtrtrs
    # chol is C-ordered, so its transpose is the Fortran-ordered upper factor.
    w, info = _dtrtrs(chol.T, z, lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed, info={info}")
    s = float(w @ w)
    # A non-finite z always gives a non-finite s, so z is checked only then.
    if not math.isfinite(s) and not np.isfinite(z).all():
        raise ValueError("y must be finite")
    return s


class FrequencyGrid:
    """A fixed set of frequencies, their design columns and their Gram table.

    ``table`` is design_matrix(points, n_obs), built once, so every design
    over grid points is a gather of its columns: the cos and sin of each
    point are computed once per grid, not once per design that holds it.
    ``gram`` is table^T table (2G x 2G), also built once, so every design's
    D^T D is a gather of its entries.
    """

    def __init__(self, points, n_obs: int):
        self.points = np.asarray(points, dtype=float)
        self.table = design_matrix(self.points, n_obs)
        self.gram = self.table.T @ self.table

    def projection_norms(self, y: np.ndarray, cells) -> np.ndarray:
        """_projection_norm2(y, points[row]) for each row of (m, k) integer cells.

        inf where the design is singular, as there; 0 at k = 0.  The scalar
        path's finite and near-duplicate checks run on points[cells].
        table^T y is formed once per call; each row that passes gathers its
        D^T D from ``gram`` and its D^T y from table^T y, the stack is
        factorised by one np.linalg.cholesky call and solved by one forward
        substitution over its 2k columns.  The values are not bit for bit the
        scalar ones: on rows whose gaps are at least 1e-3 they lie within
        1e-12 |y|^2 of them, and the inf rows are the scalar path's.  If the
        stacked factorisation fails, every regular row goes through
        _projection_norm2.  A non-finite y raises ValueError, as the scalar
        path does.  The stack holds
        m * 4k^2 doubles, so callers pass a bounded batch.
        """
        cells = np.asarray(cells, dtype=np.intp)
        m, k = cells.shape
        norms = np.zeros(m)
        if k == 0:
            return norms
        omegas = self.points[cells]
        if not np.isfinite(omegas).all():
            raise ValueError("non-finite frequency in omegas")
        regular = (np.diff(np.sort(omegas, axis=1), axis=1) >= NEAR_DUPLICATE_GAP).all(axis=1)
        norms[~regular] = math.inf
        columns = (2 * cells[regular, :, None] + (0, 1)).reshape(-1, 2 * k)
        gram = self.gram[columns[:, :, None], columns[:, None, :]]
        z = (self.table.T @ y)[columns]
        if not np.isfinite(z).all():
            raise ValueError("y must be finite")
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            norms[regular] = [_projection_norm2(y, row) for row in omegas[regular].tolist()]
            return norms
        # Forward substitution L w = z, one column of the whole stack at a time.
        w = np.empty_like(z)
        for j in range(2 * k):
            w[:, j] = (z[:, j] - np.einsum("ij,ij->i", chol[:, j, :j], w[:, :j])) / chol[:, j, j]
        norms[regular] = np.einsum("ij,ij->i", w, w)
        return norms


def quad_form(y, omega, delta2: float, *, s: float | None = None) -> float:
    """y^T P_k y with P_k the g-prior shrinkage projection; y^T y when k = 0.

    P_k is never formed: the quadratic form is y^T y minus the shrunk squared
    projection s, so a finite result always lies in [|y|^2 / (1 + delta2), |y|^2].
    A caller that already holds s = _projection_norm2(y, omega) passes it.
    A projection above |y|^2 (inf included), which nearly coincident
    frequencies can produce, means the design is singular to working
    precision: the result is inf.
    """
    y = np.asarray(y, dtype=float)
    yty = float(y @ y)
    if len(omega) == 0 or delta2 == 0.0:
        return yty
    if s is None:
        s = _projection_norm2(y, omega)
    if not s <= yty:
        return math.inf
    return yty - delta2 / (1.0 + delta2) * s


def _in_support(omega, k_max: int) -> bool:
    """At most k_max components, each in (0, pi)."""
    return len(omega) <= k_max and all(OMEGA_LOW < w < OMEGA_HIGH for w in omega)


def sinusoid_log_target(y, omega, lam: float, delta2: float, k_max: int, *,
                        s: float | None = None) -> float:
    """Unnormalised log posterior of (k, omega) given the data.

    -(N/2) log(y^T P_k y) + k log(lam) - k log(pi) - log k! - k log(1+delta2),
    or -inf outside (0, pi)^k and above the truncation.  On a design singular
    to working precision quad_form is inf, so -(N/2) log(inf) makes the value
    -inf too.  ``s`` is the projection norm, when the caller holds it (see
    quad_form).
    """
    y = np.asarray(y, dtype=float)
    k = len(omega)
    if not _in_support(omega, k_max):
        return NEG_INF
    q = quad_form(y, omega, delta2, s=s)
    n = y.size
    return (-0.5 * n * math.log(q) + k * math.log(lam) - k * math.log(math.pi)
            - math.lgamma(k + 1) - k * math.log1p(delta2))


def sinusoid_log_targets(y, omegas, s, lam: float, delta2: float, k_max: int) -> np.ndarray:
    """sinusoid_log_target(y, row, lam, delta2, k_max, s=s_row) for each row of (m, k) omegas.

    Each cell is bit for bit the scalar value, -inf included: the per-call
    constants come from math as there, the per-cell arithmetic runs in the
    scalar operation order, left to right, and each cell's log q is a
    math.log of its own.
    """
    y = np.asarray(y, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    m, k = omegas.shape
    vals = np.full(m, NEG_INF)
    if k > k_max:
        return vals
    valid = ((OMEGA_LOW < omegas) & (omegas < OMEGA_HIGH)).all(axis=1)
    yty = float(y @ y)
    if k == 0 or delta2 == 0.0:
        q = np.full(m, yty)
    else:
        s = np.asarray(s, dtype=float)
        valid &= s <= yty
        q = yty - delta2 / (1.0 + delta2) * s
    if valid.any():
        log_q = np.array(list(map(math.log, q[valid].tolist())))
        n = y.size
        vals[valid] = (-0.5 * n * log_q + k * math.log(lam) - k * math.log(math.pi)
                       - math.lgamma(k + 1) - k * math.log1p(delta2))
    return vals


# Component tuples memoised per SinusoidPosterior, least recently used evicted first.
POSTERIOR_CACHE_SIZE = 64


def check_posterior_settings(y, lam: float, delta2: float, k_max: int) -> np.ndarray:
    """y as a float vector; ConfigurationError on settings no posterior can evaluate.

    y must be a nonempty, finite, not all-zero vector and delta2 finite and
    nonnegative; lam and k_max go through core.check_order_prior.
    SinusoidPosterior and the quadrature oracle both check with it.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ConfigurationError("y must be a nonempty vector")
    if not (np.all(np.isfinite(y)) and np.any(y)):
        raise ConfigurationError("y must be finite and not all zero")
    if not 0.0 <= delta2 < math.inf:
        raise ConfigurationError(f"delta2={delta2!r} must be finite and nonnegative")
    check_order_prior(lam, k_max)
    return y


class SinusoidPosterior:
    """Target density over (k, omega) for one data vector, with settable hyperparameters.

    Holds the observations y and |y|^2, the truncation k_max, and the current
    component-count mean lam and g-prior scale delta2, which a chain may
    assign between sweeps.  The projection norm s(omega), which depends on
    neither hyperparameter, is memoised per component tuple by
    ``projection_norm``, which keeps the POSTERIOR_CACHE_SIZE most recently
    used tuples.  The memo stores exactly what a fresh evaluation returns, so
    memoisation never changes a value.  log_density itself is not memoised:
    a chain carries log f(x) from kernel to kernel instead.
    """

    def __init__(self, y, lam: float, delta2: float, k_max: int = 32):
        self.y = check_posterior_settings(y, lam, delta2, k_max)
        self.n_obs = self.y.size
        self.yty = float(self.y @ self.y)
        self.lam = float(lam)
        self.delta2 = float(delta2)
        self.k_max = int(k_max)
        # s(omega) = _projection_norm2(y, omega), memoised: 0 at k = 0, inf on a
        # singular design, each kept as any other value.  The partial holds y,
        # not self, so the memo makes no reference cycle.
        self.projection_norm = functools.lru_cache(POSTERIOR_CACHE_SIZE)(
            functools.partial(_projection_norm2, self.y))

    def log_density(self, x: VarDimState) -> float:
        # s is factorised only where quad_form reads it: inside the support
        # and at delta2 != 0.
        s = None
        if self.delta2 != 0.0 and _in_support(x, self.k_max):
            s = self.projection_norm(x)
        return sinusoid_log_target(self.y, x, self.lam, self.delta2, self.k_max, s=s)


@dataclass
class PriorOnlyTarget:
    """The (k, omega) prior alone: truncated-Poisson order, i.i.d. uniform components.

    run_joint_chain targets it when y is None; its exact k-marginal is the truncated
    Poisson law, the reference for ratio diagnostics.  lam and k_max obey check_order_prior.
    """

    lam: float
    k_max: int

    def __post_init__(self):
        check_order_prior(self.lam, self.k_max)

    def log_density(self, x: VarDimState) -> float:
        k = len(x)
        if not _in_support(x, self.k_max):
            return NEG_INF
        return (k * math.log(self.lam) - k * math.log(OMEGA_HIGH - OMEGA_LOW)
                - math.lgamma(k + 1))


def frequency_update_move(x: VarDimState, log_fx: float, target: TargetDensity, rng: Rng,
                          walk_sd: float) -> tuple[VarDimState, float, float]:
    """Within-model update of one frequency; never changes k.

    One index is picked uniformly; with probability 0.8 the proposal is a
    Gaussian random-walk step of std ``walk_sd``, otherwise an independent
    uniform draw on (0, pi).  Both branches have symmetric proposal ratio,
    so the log ratio is the log target difference, from the given log f(x)
    and one evaluation at the proposal.  A target is -inf outside
    its support (TargetDensity), here outside (0, pi)^k, on an unsorted state
    of a sorted restriction and on a singular design, so such a proposal has
    log ratio -inf and is rejected surely.
    """
    if not x:
        raise BrokenKernelError("frequency update proposed at k=0")
    i = int(rng.integers(0, len(x)))
    if rng.random() < 0.8:
        new = x[i] + walk_sd * rng.standard_normal()
    else:
        new = rng.uniform(OMEGA_LOW, OMEGA_HIGH)
    if math.isnan(new):
        raise BrokenKernelError("frequency update proposed NaN")
    proposed = x[:i] + (float(new),) + x[i + 1:]
    lt_new = target.log_density(proposed)
    return proposed, lt_new - log_fx, lt_new


def _order_terms(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(j, log j!) for j = 0 .. k_max."""
    j = np.arange(k_max + 1)
    return j, np.array([math.lgamma(v + 1) for v in j])


def logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a nonempty 1-D array of finite or -inf entries.

    Bit for bit as scipy's logsumexp: a transcription of scipy 1.17's
    algorithm for real input, without its array-API dispatch.  The maxima
    are masked out of the shifted sum, which enters through log1p, and their
    count m through log(m); all -inf gives -inf, as scipy's fallback does.
    """
    a_max = a.max()
    if a_max == NEG_INF:
        return NEG_INF
    is_max = a == a_max
    m = np.float64(np.count_nonzero(is_max))
    s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum()
    if s != 0.0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + a_max)


def log_truncated_poisson_normalizer(lam: float, k_max: int) -> float:
    """log sum_{j=0}^{k_max} lam^j / j!.

    Below lam = k_max + 1 this is lam + log1p(-P), where P = P(k_max + 1, lam)
    is the regularised lower incomplete gamma function, summed from its power
    series e^-lam lam^a / a! * sum_n lam^n / ((a+1)...(a+n)) with a = k_max + 1.
    The terms shrink at least geometrically, by lam / (a + 1) < 1.  At and
    above k_max + 1 the terms are summed by logsumexp.
    """
    a = k_max + 1
    if lam >= a:
        j, log_fact = _order_terms(k_max)
        return logsumexp(j * math.log(lam) - log_fact)
    term = series = 1.0
    n = a
    while term > series * 2.0 ** -53:
        n += 1
        term *= lam / n
        series += term
    p = math.exp(-lam + a * math.log(lam) - math.lgamma(a + 1)) * series
    return lam + math.log1p(-p)


def sample_lambda(current: float, log_z: float, k: int, shape: float, rate: float,
                  k_max: int, rng: Rng) -> tuple[float, float, float]:
    """The MH proposal for the component-count mean given the current order k.

    Proposes from the untruncated conjugate Gamma(shape + k, rate + 1), whose
    MH ratio corrects for the truncated-Poisson normalizer, so accepting it
    leaves the conditional law invariant; the correction tends to 1 as k_max
    grows.  ``log_z`` is log_truncated_poisson_normalizer(current, k_max), as
    returned with current when it was proposed, so each proposal evaluates one
    normaliser.  Returns (lam', log ratio, log normaliser at lam'); a lam' <= 0
    has zero density, log ratio -inf and no normaliser (-inf).
    """
    proposed = float(rng.gamma(shape + k, 1.0 / (rate + 1.0)))
    if proposed <= 0.0:
        return proposed, NEG_INF, NEG_INF
    log_z_prop = log_truncated_poisson_normalizer(proposed, k_max)
    return proposed, (proposed - current) + log_z - log_z_prop, log_z_prop


def sample_delta2(current: float, x: VarDimState, posterior: SinusoidPosterior,
                  shape: float, scale: float, rng: Rng) -> tuple[float, float]:
    """The random-walk MH proposal for the g-prior scale, a N(0, 0.5^2) step on the log scale.

    Its ratio targets the conditional density proportional to
    IG(delta2; shape, scale) * (y^T P_k y)^(-N/2) * (1 + delta2)^(-k),
    with the log-scale Jacobian included.  The projection norm of x comes
    from the posterior's memo.  A proposal whose exp overflows or underflows
    to 0 lies outside (0, inf), where the density is zero: its log ratio is
    -inf, which rejects it surely with no uniform drawn.  Returns (delta2',
    log ratio).
    """
    n = posterior.n_obs
    k = len(x)
    yty = posterior.yty
    s = posterior.projection_norm(x)

    def log_cond(d2: float) -> float:
        quad = yty - d2 / (1.0 + d2) * s
        return (-(shape + 1.0) * math.log(d2) - scale / d2
                - 0.5 * n * math.log(quad) - k * math.log1p(d2))

    v = math.log(current)
    v_new = v + 0.5 * rng.standard_normal()
    try:
        proposed = math.exp(v_new)
    except OverflowError:
        proposed = math.inf
    if 0.0 < proposed < math.inf:
        return proposed, (log_cond(proposed) + v_new) - (log_cond(current) + v)
    return proposed, NEG_INF


def check_truth_settings(omega, amp2, n_obs: int) -> None:
    """Raise ConfigurationError on a truth that synthesize cannot scale to an SNR.

    The noise variance is a share of the clean signal's power, so the truth
    must not be silent and its frequencies must be finite.  parse_config
    checks a config's truth with it too.
    """
    if len(omega) != len(amp2):
        raise ConfigurationError("omega and amp2 must have matching lengths")
    if not all(math.isfinite(w) for w in omega):
        raise ConfigurationError("omega entries must be finite")
    if not (all(0.0 <= a < math.inf for a in amp2) and any(a > 0.0 for a in amp2)):
        raise ConfigurationError("amp2 entries must be finite and nonnegative, "
                                 "with at least one positive entry")
    if not (isinstance(n_obs, numbers.Integral) and n_obs >= 1):
        raise ConfigurationError(f"n_obs={n_obs!r} must be an integer of at least 1")


def synthesize(omega, amp2, snr_db: float, n_obs: int, rng: Rng) -> np.ndarray:
    """Clean sinusoid mixture plus white noise scaled to the requested SNR.

    Each component's squared amplitude splits evenly between the cosine and
    sine terms.  The noise variance is |clean|^2 / (N * 10^(SNR/10)), so the
    realized SNR matches the request exactly by construction; snr_db = +inf
    returns the clean signal.
    """
    omega = tuple(float(w) for w in omega)
    amp2 = tuple(float(a) for a in amp2)
    check_truth_settings(omega, amp2, n_obs)
    amps = np.empty(2 * len(omega))
    amps[0::2] = np.sqrt(np.asarray(amp2) / 2.0)
    amps[1::2] = np.sqrt(np.asarray(amp2) / 2.0)
    clean = design_matrix(omega, n_obs) @ amps
    if math.isinf(snr_db) and snr_db > 0:
        return clean
    try:
        sigma2 = float(clean @ clean) / (n_obs * 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10^(SNR/10) overflows or underflows to 0
        sigma2 = math.nan
    if not math.isfinite(sigma2):
        raise ConfigurationError(f"snr_db={snr_db} gives no finite noise variance")
    return clean + math.sqrt(sigma2) * rng.standard_normal(n_obs)


def _order_pmf(lam: float, k_max: int, power: int) -> np.ndarray:
    """pmf proportional to lam^j / (j!)^power on {0, ..., k_max}; check_order_prior first."""
    check_order_prior(lam, k_max)
    j, log_fact = _order_terms(k_max)
    log_w = j * math.log(lam) - power * log_fact
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
