"""Birth-or-Death proposal kernels on variable-dimensional vectors.

Two representations are supported: unsorted vectors, where a birth inserts the
new component at a uniformly chosen slot, and sorted vectors, where it is
inserted at the unique slot that keeps the vector nondecreasing.  Each kernel
comes with the exact acceptance ratio and with a deliberately erroneous
"legacy" mode that differs by a factor 1/(k+1) on births (and k on deaths),
kept for comparison experiments.
"""
from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from typing import Callable

from .core import (
    NEG_INF,
    BrokenKernelError,
    ConfigurationError,
    Move,
    Rng,
    TargetDensity,
    VarDimState,
    check_order_prior,
)

REPRESENTATIONS = ("unsorted", "sorted")
RATIO_MODES = ("corrected", "legacy")


def is_sorted(x: VarDimState) -> bool:
    """Whether the components of x are nondecreasing."""
    return all(x[i] <= x[i + 1] for i in range(len(x) - 1))


@dataclass(frozen=True)
class ComponentProposal:
    """Proposal distribution q on the component space: paired sampler and density.

    ``log_density`` must return the density actually used by ``sample``.
    """

    sample: Callable[[Rng], float]
    log_density: Callable[[float], float]


def uniform_component_proposal() -> ComponentProposal:
    """Uniform proposal on the open interval (0, pi)."""
    log_dens = -math.log(math.pi)

    def log_density(v: float) -> float:
        return log_dens if 0.0 < v < math.pi else NEG_INF

    return ComponentProposal(
        sample=lambda rng: math.pi * rng.random(),  # rng.uniform(0.0, pi), bit for bit
        log_density=log_density,
    )


def pmf_component_proposal(points, probabilities) -> ComponentProposal:
    """Proposal over finitely many finite, distinct points with finite nonnegative
    weights (discrete surrogate of q); a repeated point would be sampled with
    more mass than its log_density reads."""
    pts = tuple(float(p) for p in points)
    probs = [float(p) for p in probabilities]
    if len(pts) != len(probs) or not all(0.0 <= p < math.inf for p in probs):
        raise ConfigurationError("pmf proposal needs one finite nonnegative weight per point")
    if len(set(pts)) != len(pts) or not all(map(math.isfinite, pts)):
        raise ConfigurationError("pmf proposal points must be finite and distinct")
    total = sum(probs)
    if total <= 0:
        raise ConfigurationError("pmf proposal weights sum to zero")
    probs = [p / total for p in probs]
    log_p = {v: (math.log(p) if p > 0 else NEG_INF) for v, p in zip(pts, probs)}

    def sample(rng: Rng) -> float:
        return pts[int(rng.choice(len(pts), p=probs))]

    return ComponentProposal(
        sample=sample,
        log_density=lambda v: log_p.get(v, NEG_INF),
    )


@dataclass
class BirthDeathSchedule:
    """Birth/death selection probabilities plus the component proposal q.

    Uses the c*min{1, prior ratio} schedule against a truncated Poisson(lam)
    prior on k, which guarantees p_d(k+1)/p_b(k) = (k+1)/lam for all k < k_max
    while leaving 1 - p_b - p_d mass for within-model moves.  p_d(0) = 0 and
    p_b(k_max) = 0 are forced.  Construction is the one check of c, a real number in
    (0, 0.5], the representation and the ratio mode; lam and k_max obey check_order_prior.
    """

    lam: float
    k_max: int
    c: float
    proposal: ComponentProposal
    representation: str = "unsorted"
    ratio_mode: str = "corrected"

    def __post_init__(self):
        if not (isinstance(self.c, numbers.Real) and 0.0 < self.c <= 0.5):
            raise ConfigurationError(f"schedule constant c={self.c!r} outside (0, 0.5]")
        check_order_prior(self.lam, self.k_max)
        if self.representation not in REPRESENTATIONS:
            raise ConfigurationError(f"unknown representation {self.representation!r}")
        if self.ratio_mode not in RATIO_MODES:
            raise ConfigurationError(f"unknown ratio mode {self.ratio_mode!r}")

    # The conditional expressions below are min(1.0, r) without the call; the
    # probabilities are evaluated several times per iteration.
    def p_birth(self, x: VarDimState) -> float:
        k = len(x)
        if k >= self.k_max:
            return 0.0
        r = self.lam / (k + 1)
        return self.c * (r if r < 1.0 else 1.0)

    def p_death(self, x: VarDimState) -> float:
        k = len(x)
        if k == 0:
            return 0.0
        r = k / self.lam
        return self.c * (r if r < 1.0 else 1.0)

    @classmethod
    def green(cls, lam: float, k_max: int, c: float = 0.25,
              proposal: ComponentProposal | None = None,
              representation: str = "unsorted",
              ratio_mode: str = "corrected") -> "BirthDeathSchedule":
        """The schedule with q uniform on (0, pi) unless a proposal is given."""
        return cls(lam, k_max, c,
                   proposal if proposal is not None else uniform_component_proposal(),
                   representation, ratio_mode)


def move_log_ratio(x: VarDimState, log_fx: float, x_new: VarDimState, log_q: float,
                   sched: BirthDeathSchedule, target: TargetDensity) -> tuple[float, float]:
    """(log MHG ratio, log f(x')) of a birth or death x -> x' under the schedule's
    representation and mode.

    ``log_fx`` is log f(x), which the caller holds; only f(x') is evaluated.
    Order k' = k + 1 is a birth of s*, k' = k - 1 a death of s*, and any other
    pair a broken kernel; ``log_q`` is log q(s*).  A birth is chosen with
    probability p_b(x) and undone by a death chosen with p_d(x'), so its ratio
    is log f(x') - log f(x) + log p_d(x') - log p_b(x) - log q(s*); a death is
    the exact negation with the roles swapped, and the uniform
    location-selection terms 1/(k+1) cancel.  A death is not computed as a
    negated reverse-birth call: that would add the terms in another order and
    round differently.  The sorted representation (target f~ = k! f for an
    exchangeable f, insertion slot probabilities cancelling) and the legacy
    mode each add -log(k+1) to a birth and +log(k) to a death; a legacy chain
    targets f_k / k!.  A NaN log f(x) or f(x'), and a sorted schedule on an
    unsorted state, raise.

    This is the single code path: only the proposal kernels call it, and the
    exact transition-matrix oracle runs those kernels, so it exercises the
    implemented draws and ratio, not a reimplementation.
    """
    if sched.representation == "sorted" and not (is_sorted(x) and is_sorted(x_new)):
        raise BrokenKernelError("sorted ratio evaluated on an unsorted state")
    k, k_new = len(x), len(x_new)
    if math.isnan(log_fx):
        raise BrokenKernelError(f"log f(x) is NaN at k={k}")
    if k_new == k + 1:
        if log_q == NEG_INF:
            raise BrokenKernelError(
                "proposal density is zero at the sampled component; "
                "sampler and density evaluator disagree")
        kind, p_go, p_back, sign, fix = (
            "birth", sched.p_birth, sched.p_death, 1.0, -math.log(k + 1))
    elif k_new == k - 1:
        kind, p_go, p_back, sign, fix = (
            "death", sched.p_death, sched.p_birth, -1.0, math.log(k))
    else:
        raise BrokenKernelError(
            f"orders k={k} -> k'={k_new} are neither a birth nor a death")
    go = p_go(x)
    if go <= 0.0:
        raise BrokenKernelError(f"{kind} proposed at k={k} where p_{kind} = 0")
    lt_new = target.log_density(x_new)
    if math.isnan(lt_new):
        raise BrokenKernelError(f"target returned NaN at k={k_new}")
    if lt_new == NEG_INF:
        return NEG_INF, lt_new
    back = p_back(x_new)
    if back <= 0.0 or log_q == NEG_INF:
        return NEG_INF, lt_new
    n_fix = (sched.representation == "sorted") + (sched.ratio_mode == "legacy")
    ratio = (lt_new - log_fx + math.log(back) - math.log(go)
             - sign * log_q + n_fix * fix)
    return ratio, lt_new


def _draw_component(proposal: ComponentProposal, rng: Rng) -> tuple[float, float]:
    """s* ~ q and log q(s*); a NaN draw or one outside q's support is a broken sampler."""
    s_star = float(proposal.sample(rng))
    if math.isnan(s_star):
        raise BrokenKernelError("proposal sampler returned NaN")
    log_q = proposal.log_density(s_star)
    if log_q == NEG_INF:
        raise BrokenKernelError(
            f"proposal sampler returned {s_star!r}, outside the support of its density")
    return s_star, log_q


def birth_propose_unsorted(x: VarDimState, log_fx: float, sched: BirthDeathSchedule,
                           target: TargetDensity, rng: Rng) -> tuple[VarDimState, float, float]:
    """Draw s* ~ q and insert it at a uniformly chosen slot of x."""
    s_star, log_q = _draw_component(sched.proposal, rng)
    i = int(rng.integers(0, len(x) + 1))
    proposed = x[:i] + (s_star,) + x[i:]
    return (proposed, *move_log_ratio(x, log_fx, proposed, log_q, sched, target))


def birth_propose_sorted(x: VarDimState, log_fx: float, sched: BirthDeathSchedule,
                         target: TargetDensity, rng: Rng) -> tuple[VarDimState, float, float]:
    """Draw s* ~ q and insert it at the unique slot keeping x nondecreasing.

    An exact tie with an existing component is a null event for an atomless
    proposal; in floating point it is still possible and yields a
    reject-surely proposal, with log f(x') = -inf left unevaluated.
    """
    if not is_sorted(x):
        raise BrokenKernelError("sorted birth proposed from an unsorted state")
    s_star, log_q = _draw_component(sched.proposal, rng)
    i = bisect.bisect_left(x, s_star)
    proposed = x[:i] + (s_star,) + x[i:]
    if s_star in x:
        return proposed, NEG_INF, NEG_INF
    return (proposed, *move_log_ratio(x, log_fx, proposed, log_q, sched, target))


def death_propose(x: VarDimState, log_fx: float, sched: BirthDeathSchedule,
                  target: TargetDensity, rng: Rng) -> tuple[VarDimState, float, float]:
    """Remove a uniformly chosen component (both representations)."""
    if not x:
        raise BrokenKernelError("death proposed at k=0; schedule must prevent this")
    i = int(rng.integers(0, len(x)))
    proposed = x[:i] + x[i + 1:]
    log_q = sched.proposal.log_density(x[i])
    return (proposed, *move_log_ratio(x, log_fx, proposed, log_q, sched, target))


@dataclass(frozen=True)
class SortedRestriction:
    """Restriction of an exchangeable target to nondecreasing vectors.

    Each order-k density is rescaled by k! so the restriction carries the same
    mass as the exchangeable original; unsorted states get density zero.
    """

    base: TargetDensity

    def log_density(self, x: VarDimState) -> float:
        if not is_sorted(x):
            return NEG_INF
        return math.lgamma(len(x) + 1) + self.base.log_density(x)


def bod_move_set(target: TargetDensity, sched: BirthDeathSchedule) -> tuple[Move, ...]:
    """Mixture (birth, death, none) for the given schedule.

    Move selection weights are p_b(x), p_d(x) and the remainder, which goes to
    the identity move "none": it rejects surely and so keeps the chain in place.
    """
    if sched.representation == "sorted":
        birth = lambda x, log_fx, rng: birth_propose_sorted(x, log_fx, sched, target, rng)
    else:
        birth = lambda x, log_fx, rng: birth_propose_unsorted(x, log_fx, sched, target, rng)

    def death(x, log_fx, rng):
        return death_propose(x, log_fx, sched, target, rng)

    # Never negative: p_b and p_d are at most c <= 0.5, and rounding is monotone.
    def rest_weight(x):
        return 1.0 - sched.p_birth(x) - sched.p_death(x)

    return (
        Move("birth", sched.p_birth, birth),
        Move("death", sched.p_death, death),
        Move("none", rest_weight, lambda x, log_fx, rng: (x, NEG_INF, log_fx)),
    )
