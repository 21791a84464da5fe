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
from dataclasses import dataclass
from typing import Callable

from .core import (
    NEG_INF,
    BrokenKernelError,
    ConfigurationError,
    Move,
    MoveSet,
    ProposalOutcome,
    Rng,
    TargetDensity,
    VarDimState,
)

REPRESENTATIONS = ("unsorted", "sorted")
RATIO_MODES = ("corrected", "legacy")


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
        sample=lambda rng: rng.uniform(0.0, math.pi),
        log_density=log_density,
    )


def pmf_component_proposal(points, probabilities) -> ComponentProposal:
    """Proposal over finitely many labelled points (discrete surrogate of q)."""
    pts = tuple(float(p) for p in points)
    probs = [float(p) for p in probabilities]
    if len(pts) != len(probs) or any(p < 0 for p in probs):
        raise ConfigurationError("pmf proposal needs one nonnegative weight per point")
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


@dataclass(frozen=True)
class BoDDetail:
    """Bookkeeping attached to a birth or death proposal.

    ``log_q`` is the proposal log-density of the inserted (or removed)
    component, evaluated once at proposal time so the ratio is guaranteed to
    use the density consistent with the sampler.
    """

    kind: str  # "birth" | "death"
    index: int  # 0-based slot
    value: float
    log_q: float


@dataclass(frozen=True)
class BirthDeathSchedule:
    """Birth/death selection probabilities plus the component proposal q.

    Uses the c*min{1, prior ratio} schedule against a truncated Poisson(lam)
    prior on k, which guarantees p_d(k+1)/p_b(k) = (k+1)/lam for all k < k_max
    while leaving 1 - p_b - p_d mass for within-model moves.  p_d(0) = 0 and
    p_b(k_max) = 0 are forced.
    """

    lam: float
    k_max: int
    c: float
    proposal: ComponentProposal
    representation: str = "unsorted"
    ratio_mode: str = "corrected"

    def __post_init__(self):
        if not 0.0 < self.c <= 0.5:
            raise ConfigurationError(f"schedule constant c={self.c} outside (0, 0.5]")
        if not 0.0 < self.lam < math.inf:
            raise ConfigurationError(f"schedule mean lam={self.lam} must be finite and positive")
        if self.representation not in REPRESENTATIONS:
            raise ConfigurationError(f"unknown representation {self.representation!r}")
        if self.ratio_mode not in RATIO_MODES:
            raise ConfigurationError(f"unknown ratio mode {self.ratio_mode!r}")

    # The conditional expressions below are min(1.0, r) without the call; the
    # probabilities are evaluated several times per iteration.
    def p_birth(self, x: VarDimState) -> float:
        k = len(x.components)
        if k >= self.k_max:
            return 0.0
        r = self.lam / (k + 1)
        return self.c * (r if r < 1.0 else 1.0)

    def p_death(self, x: VarDimState) -> float:
        k = len(x.components)
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


def _checked_log_density(target: TargetDensity, x: VarDimState) -> float:
    lt = target.log_density(x)
    if math.isnan(lt):
        raise BrokenKernelError(f"target returned NaN at k={x.k}")
    return lt


def _log_ratio(x, x_new, detail, sched, target) -> tuple[float, float]:
    """(log MHG ratio, log f(x')) of a birth or death; see move_log_ratio.

    A birth is chosen with probability p_b(x) and undone by a death chosen
    with p_d(x'); a death the other way round.  A death is not computed as a
    negated reverse-birth call: that would add the terms in another order and
    round differently.
    """
    if detail.kind == "birth":
        if detail.log_q == NEG_INF:
            raise BrokenKernelError(
                "proposal density is zero at the sampled component; "
                "sampler and density evaluator disagree")
        p_go, p_back, sign, fix = sched.p_birth, sched.p_death, 1.0, -math.log(x.k + 1)
    else:
        if x.k == 0:
            raise BrokenKernelError("death proposed at k=0; schedule must prevent this")
        p_go, p_back, sign, fix = sched.p_death, sched.p_birth, -1.0, math.log(x.k)
    go = p_go(x)
    if go <= 0.0:
        raise BrokenKernelError(
            f"{detail.kind} proposed at k={x.k} where p_{detail.kind} = 0")
    lt_new = _checked_log_density(target, x_new)
    if lt_new == NEG_INF:
        return NEG_INF, lt_new
    back = p_back(x_new)
    if back <= 0.0 or detail.log_q == NEG_INF:
        return NEG_INF, lt_new
    lt_cur = _checked_log_density(target, x)
    n_fix = (sched.representation == "sorted") + (sched.ratio_mode == "legacy")
    ratio = (lt_new - lt_cur + math.log(back) - math.log(go)
             - sign * detail.log_q + n_fix * fix)
    return ratio, lt_new


def move_log_ratio(x: VarDimState, x_new: VarDimState, detail: BoDDetail,
                   sched: BirthDeathSchedule, target: TargetDensity) -> float:
    """Log MHG ratio for a birth/death move under the schedule's representation and mode.

    For a birth from order k this is log f(x') - log f(x) + log p_d(x')
    - log p_b(x) - log q(s*); a death is the exact negation with the roles
    swapped, and the uniform location-selection terms 1/(k+1) cancel.  The
    sorted representation (target f~ = k! f for an exchangeable f, insertion
    slot probabilities cancelling) and the legacy mode each add -log(k+1) to a
    birth and +log(k) to a death; a legacy chain targets f_k / k!.

    This is the single code path the proposal functions use; exact
    transition-matrix oracles call it so they exercise the implemented ratio,
    not a reimplementation.
    """
    if sched.representation == "sorted" and not (x.is_sorted() and x_new.is_sorted()):
        raise BrokenKernelError("sorted ratio evaluated on an unsorted state")
    return _log_ratio(x, x_new, detail, sched, target)[0]


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


def birth_propose_unsorted(x: VarDimState, sched: BirthDeathSchedule,
                           target: TargetDensity, rng: Rng) -> ProposalOutcome:
    """Draw s* ~ q and insert it at a uniformly chosen slot of x."""
    s_star, log_q = _draw_component(sched.proposal, rng)
    index = int(rng.integers(0, x.k + 1))
    proposed = x.insert(index, s_star)
    detail = BoDDetail("birth", index, s_star, log_q)
    log_ratio, lt_new = _log_ratio(x, proposed, detail, sched, target)
    return ProposalOutcome(proposed, log_ratio, detail, lt_new)


def birth_propose_sorted(x: VarDimState, sched: BirthDeathSchedule,
                         target: TargetDensity, rng: Rng) -> ProposalOutcome:
    """Draw s* ~ q and insert it at the unique slot keeping x nondecreasing.

    An exact tie with an existing component is a null event for an atomless
    proposal; in floating point it is still possible and yields a
    reject-surely outcome.
    """
    if not x.is_sorted():
        raise BrokenKernelError("sorted birth proposed from an unsorted state")
    s_star, log_q = _draw_component(sched.proposal, rng)
    index = bisect.bisect_left(x.components, s_star)
    proposed = x.insert(index, s_star)
    detail = BoDDetail("birth", index, s_star, log_q)
    if s_star in x.components:
        return ProposalOutcome(proposed, NEG_INF, detail)
    log_ratio, lt_new = _log_ratio(x, proposed, detail, sched, target)
    return ProposalOutcome(proposed, log_ratio, detail, lt_new)


def death_propose(x: VarDimState, sched: BirthDeathSchedule,
                  target: TargetDensity, rng: Rng) -> ProposalOutcome:
    """Remove a uniformly chosen component (both representations)."""
    if x.k == 0:
        raise BrokenKernelError("death proposed at k=0; schedule must prevent this")
    index = int(rng.integers(0, x.k))
    value = x.components[index]
    proposed = x.remove(index)
    detail = BoDDetail("death", index, value, sched.proposal.log_density(value))
    log_ratio, lt_new = _log_ratio(x, proposed, detail, sched, target)
    return ProposalOutcome(proposed, log_ratio, detail, lt_new)


@dataclass(frozen=True)
class SortedRestriction:
    """Restriction of an exchangeable target to nondecreasing vectors.

    Each order-k density is rescaled by k! so the restriction carries the same
    mass as the exchangeable original; unsorted states get density zero.
    """

    base: TargetDensity

    def log_density(self, x: VarDimState) -> float:
        if not x.is_sorted():
            return NEG_INF
        return math.lgamma(x.k + 1) + self.base.log_density(x)


def bod_move_set(target: TargetDensity, sched: BirthDeathSchedule) -> MoveSet:
    """Mixture move set {birth, death, none} for the given schedule.

    Move selection weights are p_b(x), p_d(x) and the remainder, which goes to
    the identity move "none": it rejects surely and so keeps the chain in place.
    """
    if sched.representation == "sorted":
        birth = lambda x, rng: birth_propose_sorted(x, sched, target, rng)
    else:
        birth = lambda x, rng: birth_propose_unsorted(x, sched, target, rng)

    def death(x, rng):
        return death_propose(x, sched, target, rng)

    def rest_weight(x):
        return max(0.0, 1.0 - sched.p_birth(x) - sched.p_death(x))

    return MoveSet([
        Move("birth", "death", sched.p_birth, birth),
        Move("death", "birth", sched.p_death, death),
        Move("none", "none", rest_weight, lambda x, rng: ProposalOutcome(x, NEG_INF)),
    ])
