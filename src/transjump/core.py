"""Generic Metropolis-Hastings-Green machinery on variable-dimensional state spaces.

A state is a pair (k, s) with s a vector of k components.  Proposal kernels are
organised as a mixture of elementary moves, each with a state-dependent
selection probability and a declared reverse move.  All ratio arithmetic is
done in the log domain; -inf is a legitimate "reject surely" value while NaN
always signals a broken kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    ``detail`` carries move-specific bookkeeping (e.g. insertion slot and the
    proposal log-density evaluated at proposal time).  ``proposed_log_density``
    caches the target evaluation made while assembling the ratio so the chain
    driver does not have to recompute it on acceptance.
    """

    proposed: VarDimState
    log_ratio: float
    detail: object | None = None
    proposed_log_density: float | None = None


@dataclass(frozen=True)
class Move:
    """An elementary move: selection weight j(x, m), proposal procedure, reverse label."""

    label: str
    reverse_label: str
    weight: Callable[[VarDimState], float]
    propose: Callable[[VarDimState, Rng], ProposalOutcome]


class MoveSet:
    """A mixture of elementary moves with state-dependent selection probabilities.

    The reverse-move pairing must be an involution on the labels in the set,
    and the selection probabilities must sum to one at every reachable state.
    """

    def __init__(self, moves: list[Move]):
        labels = [m.label for m in moves]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"duplicate move labels: {labels}")
        by_label = {m.label: m for m in moves}
        for m in moves:
            rev = by_label.get(m.reverse_label)
            if rev is None:
                raise ConfigurationError(
                    f"move {m.label!r} declares unknown reverse {m.reverse_label!r}")
            if rev.reverse_label != m.label:
                raise ConfigurationError(
                    f"reverse pairing is not an involution: "
                    f"{m.label!r} -> {m.reverse_label!r} -> {rev.reverse_label!r}")
        self.moves = list(moves)
        self.by_label = by_label


def select_move(moves: MoveSet, x: VarDimState, rng: Rng) -> str:
    """Draw a move label with probability j(x, m), using a single uniform draw."""
    weights = [m.weight(x) for m in moves.moves]
    total = 0.0
    for w in weights:
        if w < 0.0:
            raise ConfigurationError(f"negative move selection probability at k={x.k}")
        total += w
    if abs(total - 1.0) > 1e-12:
        raise ConfigurationError(
            f"move selection probabilities sum to {total!r} at k={x.k}, expected 1")
    u = rng.random()
    acc = 0.0
    for move, w in zip(moves.moves, weights):
        acc += w
        if u < acc:
            return move.label
    # u landed in the final rounding sliver; return the last selectable move.
    for move, w in zip(reversed(moves.moves), reversed(weights)):
        if w > 0.0:
            return move.label
    raise ConfigurationError("no move has positive selection probability")


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
    """Require 0 <= burn_in < n_iter, or an empty run with no burn-in."""
    if not (0 <= burn_in < n_iter or n_iter == burn_in == 0):
        raise ConfigurationError(f"invalid iteration counts: n_iter={n_iter}, burn_in={burn_in}")


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """State after one transition (or sweep); ``move`` is the mixture move attempted.

    ``lam`` and ``delta2`` hold the hyperparameter values of sweeps that sample
    or fix them, and stay None for plain chains.
    """

    iteration: int
    k: int
    components: tuple[float, ...]
    log_target: float
    move: str
    accepted: bool
    burn_in: bool
    lam: float | None = None
    delta2: float | None = None


@dataclass
class ChainOutput:
    """Per-iteration records plus per-move tallies and a config echo.

    Burn-in records are kept (flagged) so diagnostics can inspect them;
    summary helpers exclude them, and their ``k_max`` defaults to
    ``config["k_max"]`` when the driver records one.
    """

    records: list[IterationRecord] = field(default_factory=list)
    proposals: dict[str, int] = field(default_factory=dict)
    acceptances: dict[str, int] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def tally(self, label: str, accepted: bool) -> None:
        self.proposals[label] = self.proposals.get(label, 0) + 1
        if accepted:
            self.acceptances[label] = self.acceptances.get(label, 0) + 1

    def k_counts(self, k_max: int | None = None) -> np.ndarray:
        if k_max is None:
            k_max = self.config["k_max"]
        counts = np.zeros(k_max + 1, dtype=np.int64)
        for r in self.records:
            if not r.burn_in:
                counts[r.k] += 1
        return counts

    def k_frequencies(self, k_max: int | None = None) -> np.ndarray:
        counts = self.k_counts(k_max)
        total = counts.sum()
        return counts / total if total else np.zeros(counts.size)

    def mean_k(self, k_max: int | None = None) -> float:
        freqs = self.k_frequencies(k_max)
        return float(freqs @ np.arange(freqs.size))


def mhg_step(moves: MoveSet, x: VarDimState, rng: Rng,
             out: ChainOutput) -> tuple[str, ProposalOutcome, bool]:
    """One MHG transition of the mixture kernel, tallied into ``out``.

    Selects a move, proposes and accepts with probability min{1, r}; the
    caller moves to ``outcome.proposed`` when ``accepted`` is true.
    """
    label = select_move(moves, x, rng)
    outcome = moves.by_label[label].propose(x, rng)
    if any(math.isnan(c) for c in outcome.proposed.components):
        raise BrokenKernelError(f"move {label!r} proposed a state with NaN components")
    accepted = mhg_accept(outcome.log_ratio, rng)
    out.tally(label, accepted)
    return label, outcome, accepted


def run_chain(
    target: TargetDensity,
    moves: MoveSet,
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
    for i in range(n_iter):
        label, outcome, accepted = mhg_step(moves, x, rng, out)
        if accepted and outcome.proposed is not x:
            x = outcome.proposed
            if outcome.proposed_log_density is not None:
                log_t = outcome.proposed_log_density
            else:
                log_t = target.log_density(x)
        out.records.append(IterationRecord(
            iteration=i, k=x.k, components=x.components, log_target=log_t,
            move=label, accepted=accepted, burn_in=i < burn_in))
    return out


def move_stats(out: ChainOutput) -> list[tuple[str, int, float]]:
    """Per-move (label, proposal count, acceptance rate) rows, sorted by label."""
    rows = []
    for label in sorted(out.proposals):
        n = out.proposals[label]
        a = out.acceptances.get(label, 0)
        rows.append((label, n, a / n if n else 0.0))
    return rows
