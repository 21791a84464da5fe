"""Generic Metropolis-Hastings-Green machinery on variable-dimensional state spaces.

A state is a pair (k, s) with s a vector of k components.  A proposal kernel is
a mixture: a tuple of elementary moves, each with a state-dependent selection
probability and a proposal whose ratio accounts for its own reverse move.  All
ratio arithmetic is done in the log domain; -inf is a legitimate "reject
surely" value while NaN always signals a broken kernel.
"""
from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Protocol

import numpy as np

Rng = np.random.Generator

NEG_INF = float("-inf")


class ConfigurationError(ValueError):
    """Inconsistent sampler or experiment configuration."""


class BrokenKernelError(RuntimeError):
    """A kernel produced NaN or was invoked outside its domain.

    This is a bug in the kernel wiring, never a zero-density event, so it is
    raised instead of being silently turned into a rejection.
    """


def rng_stream(base_seed: int, *path: int) -> Rng:
    """Derive an independent generator from a base seed and a stream path.

    Stream (i, j, ...) is seeded with the entropy sequence
    [base_seed, i, j, ...], so replications and sub-streams are reproducible
    and non-overlapping.
    """
    return np.random.default_rng([int(base_seed), *(int(p) for p in path)])


@dataclass(frozen=True)
class VarDimState:
    """A point x = (k, s) of the union over k of {k} x S^k.

    The model order k is the length of ``components``; k = 0 is the empty
    state.  Instances are immutable so they can be shared across chains.
    """

    components: tuple[float, ...] = ()

    @property
    def k(self) -> int:
        return len(self.components)

    def insert(self, index: int, value: float) -> "VarDimState":
        """Return a new state with ``value`` inserted at slot ``index`` (0-based)."""
        if not 0 <= index <= self.k:
            raise IndexError(f"insertion slot {index} out of range for k={self.k}")
        s = self.components
        return VarDimState(s[:index] + (value,) + s[index:])

    def remove(self, index: int) -> "VarDimState":
        """Return a new state with the component at ``index`` removed."""
        if not 0 <= index < self.k:
            raise IndexError(f"removal index {index} out of range for k={self.k}")
        s = self.components
        return VarDimState(s[:index] + s[index + 1:])

    def is_sorted(self) -> bool:
        s = self.components
        return all(s[i] <= s[i + 1] for i in range(len(s) - 1))


class TargetDensity(Protocol):
    """Contract for an unnormalised target density on the variable-dimensional space.

    ``log_density`` must be deterministic and return -inf exactly on states
    outside the support.
    """

    def log_density(self, x: VarDimState) -> float: ...


@dataclass(frozen=True)
class ProposalOutcome:
    """A proposed state together with its fully assembled log acceptance ratio.

    ``proposed_log_density`` caches the target evaluation made while
    assembling the ratio so the chain driver does not have to recompute it on
    acceptance.
    """

    proposed: VarDimState
    log_ratio: float
    proposed_log_density: float | None = None


@dataclass(frozen=True)
class Move:
    """An elementary move of a mixture: selection weight j(x, m) and proposal procedure."""

    label: str
    weight: Callable[[VarDimState], float]
    propose: Callable[[VarDimState, Rng], ProposalOutcome]


def select_move(moves: tuple[Move, ...], x: VarDimState, rng: Rng) -> Move:
    """Draw a move with probability j(x, m), using a single uniform draw.

    Each weight is read once; its running sum is both the total that must
    be 1 and the threshold the uniform is compared with.
    """
    thresholds = []
    total = 0.0
    last = None
    for m in moves:
        w = m.weight(x)
        if w < 0.0:
            raise ConfigurationError(f"negative move selection probability at k={x.k}")
        total += w
        thresholds.append(total)
        if w > 0.0:
            last = m
    if not abs(total - 1.0) <= 1e-12:  # a NaN weight makes the total NaN
        raise ConfigurationError(
            f"move selection probabilities sum to {total!r} at k={x.k}, expected 1")
    u = rng.random()
    for move, threshold in zip(moves, thresholds):
        if u < threshold:
            return move
    # u landed in the final rounding sliver; return the last selectable move.
    if last is None:
        raise ConfigurationError("no move has positive selection probability")
    return last


def mhg_accept(log_ratio: float, rng: Rng) -> bool:
    """Accept with probability min{1, exp(log_ratio)}.

    log_ratio >= 0 accepts surely, -inf rejects surely, NaN is a hard error.
    """
    if math.isnan(log_ratio):
        raise BrokenKernelError("NaN acceptance ratio: kernel is broken")
    if log_ratio >= 0.0:
        return True
    if log_ratio == NEG_INF:
        return False
    u = rng.random()
    if u == 0.0:
        return True
    return math.log(u) < log_ratio


def check_iteration_counts(n_iter: int, burn_in: int) -> None:
    """Require integers 0 <= burn_in < n_iter, or an empty run with no burn-in."""
    if not (isinstance(n_iter, numbers.Integral) and isinstance(burn_in, numbers.Integral)
            and (0 <= burn_in < n_iter or n_iter == burn_in == 0)):
        raise ConfigurationError(f"invalid iteration counts: n_iter={n_iter}, burn_in={burn_in}")


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """State after one transition (or sweep); ``move`` is the mixture move attempted.

    A record's iteration is its index in ``ChainOutput.records``.  ``lam`` and
    ``delta2`` hold the hyperparameter values of sweeps that sample or fix
    them, and stay None for plain chains.
    """

    k: int
    components: tuple[float, ...]
    log_target: float
    move: str
    accepted: bool
    burn_in: bool
    lam: float | None = None
    delta2: float | None = None


class ChainOutput:
    """Per-iteration columns plus per-move tallies and the run's lengths.

    Row i is the state after iteration i: ``k[i]``, ``log_target[i]``, the
    move attempted ``move[i]`` and ``accepted[i]``, and for sweep chains
    ``lam[i]`` and ``delta2[i]`` (plain chains leave those columns empty).
    The rows' components lie end to end in the flat ``components`` array, so
    row i's start at the sum of the earlier k.  ``config`` holds ``n_iter``
    and ``burn_in``, and ``k_max`` for sweep chains.  The first ``burn_in``
    rows are burn-in; summary helpers exclude them, and their ``k_max``
    defaults to ``config["k_max"]``.
    """

    def __init__(self, config: dict | None = None):
        self.config = {} if config is None else config
        self.proposals: dict[str, int] = {}
        self.acceptances: dict[str, int] = {}
        self.k = array("q")
        self.components = array("d")
        self.log_target = array("d")
        self.move: list[str] = []
        self.accepted = array("b")
        self.lam = array("d")
        self.delta2 = array("d")

    def tally(self, label: str, accepted: bool) -> None:
        self.proposals[label] = self.proposals.get(label, 0) + 1
        if accepted:
            self.acceptances[label] = self.acceptances.get(label, 0) + 1

    def append(self, components: tuple[float, ...], log_target: float, move: str,
               accepted: bool, lam: float | None = None, delta2: float | None = None) -> None:
        """Add one iteration's row; sweep chains give ``lam`` and ``delta2`` on every row."""
        self.k.append(len(components))
        self.components.extend(components)
        self.log_target.append(log_target)
        self.move.append(move)
        self.accepted.append(accepted)
        if lam is not None:
            self.lam.append(lam)
            self.delta2.append(delta2)

    @property
    def records(self) -> list[IterationRecord]:
        """The rows as ``IterationRecord`` values, built from the columns on each read."""
        burn_in = self.config.get("burn_in", 0)
        hyper = zip(self.lam, self.delta2) if self.lam else repeat((None, None))
        comps = self.components
        rows = []
        end = 0
        for i, (k, log_t, move, accepted, (lam, delta2)) in enumerate(zip(
                self.k, self.log_target, self.move, self.accepted, hyper)):
            start, end = end, end + k
            rows.append(IterationRecord(k, tuple(comps[start:end]), log_t, move,
                                        bool(accepted), i < burn_in, lam, delta2))
        return rows

    def k_counts(self, k_max: int | None = None) -> np.ndarray:
        if k_max is None:
            k_max = self.config["k_max"]
        kept = np.frombuffer(self.k, dtype=np.int64)[self.config.get("burn_in", 0):]
        if kept.size and kept.max() > k_max:
            raise IndexError(f"a kept row has k={kept.max()}, above k_max={k_max}")
        return np.bincount(kept, minlength=k_max + 1)

    def k_frequencies(self, k_max: int | None = None) -> np.ndarray:
        counts = self.k_counts(k_max)
        total = counts.sum()
        return counts / total if total else np.zeros(counts.size)


def mhg_step(moves: tuple[Move, ...], x: VarDimState, rng: Rng,
             out: ChainOutput) -> tuple[str, ProposalOutcome, bool]:
    """One MHG transition of the mixture kernel, tallied into ``out``.

    Selects a move, proposes and accepts with probability min{1, r}; the
    caller moves to ``outcome.proposed`` when ``accepted`` is true.
    """
    move = select_move(moves, x, rng)
    outcome = move.propose(x, rng)
    # A move that keeps x proposes nothing new to scan.
    if outcome.proposed is not x and any(math.isnan(c) for c in outcome.proposed.components):
        raise BrokenKernelError(f"move {move.label!r} proposed a state with NaN components")
    accepted = mhg_accept(outcome.log_ratio, rng)
    out.tally(move.label, accepted)
    return move.label, outcome, accepted


def run_chain(
    target: TargetDensity,
    moves: tuple[Move, ...],
    init: VarDimState,
    n_iter: int,
    burn_in: int,
    rng: Rng,
) -> ChainOutput:
    """Run the Metropolis-Hastings-Green chain for ``n_iter`` iterations.

    Each iteration is one :func:`mhg_step`; a rejection keeps the current
    state.  The run is fully reproducible given the generator state.
    """
    check_iteration_counts(n_iter, burn_in)
    log_t = target.log_density(init)
    if math.isnan(log_t):
        raise BrokenKernelError("target returned NaN at the initial state")
    if log_t == NEG_INF:
        raise ConfigurationError("initial state has zero target density")

    x = init
    out = ChainOutput(config={"n_iter": n_iter, "burn_in": burn_in})
    for _ in range(n_iter):
        label, outcome, accepted = mhg_step(moves, x, rng, out)
        if accepted and outcome.proposed is not x:
            x = outcome.proposed
            if outcome.proposed_log_density is not None:
                log_t = outcome.proposed_log_density
            else:
                log_t = target.log_density(x)
        out.append(x.components, log_t, label, accepted)
    return out
