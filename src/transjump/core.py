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
from functools import partial
from itertools import repeat
from typing import Callable, Protocol

import numpy as np

Rng = np.random.Generator

# A state x = (k, s) is the tuple s of its components, k = len(s); () is the empty state.
VarDimState = tuple

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


class Draws:
    """The draws a chain's kernels make, from ``gen``'s bit generator as ``gen`` makes them.

    ``random`` and ``integers`` call the bit generator through numpy's public ctypes
    interface: ``random`` is its ``next_double``, and ``integers`` is numpy's bounded
    draw (Lemire's method, ``buffered_bounded_lemire_uint32``) on its ``next_uint32``.
    So the values, the draw count and ``gen``'s state afterwards are numpy's own; the
    other draws are ``gen``'s bound methods.  The calls skip ``gen``'s lock, so no
    other thread may draw from ``gen`` while a ``Draws`` of it is in use.
    """

    # The bound methods keep ``gen``, and with it the state the ctypes calls point at, alive.
    __slots__ = ("random", "standard_normal", "gamma", "choice", "_next32")

    def __init__(self, gen: Rng):
        ct = gen.bit_generator.ctypes
        self.random = partial(ct.next_double, ct.state)
        self._next32 = partial(ct.next_uint32, ct.state)
        self.standard_normal = gen.standard_normal
        self.gamma = gen.gamma
        self.choice = gen.choice

    def integers(self, low: int, high: int) -> int:
        """``gen.integers(low, high)`` for 1 <= high - low <= 2**32, as a Python int."""
        n = high - low
        if not 1 < n <= 0x100000000:
            if n == 1:
                return low  # numpy draws nothing for a one-value range
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got low={low!r}, "
                             f"high={high!r}")
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return low + (m >> 32)


class TargetDensity(Protocol):
    """Contract for an unnormalised target density on the variable-dimensional space.

    ``log_density`` must be deterministic and return -inf exactly on states
    outside the support.
    """

    def log_density(self, x: VarDimState) -> float: ...


@dataclass(frozen=True)
class Move:
    """An elementary move of a mixture: selection weight j(x, m) and proposal procedure.

    ``propose(x, log f(x), rng)`` returns (x', log MHG ratio, log f(x')).  The chain
    carries log f(x), so no move evaluates the target at x; it carries log f(x') on
    acceptance.  A reject-surely proposal that never evaluates the target gives
    -inf, the identity move x's own value.
    """

    label: str
    weight: Callable[[VarDimState], float]
    propose: Callable[[VarDimState, float, Rng], tuple[VarDimState, float, float]]


def select_move(moves: tuple[Move, ...], x: VarDimState, rng: Rng) -> Move:
    """Draw a move with probability j(x, m), using a single uniform draw.

    One pass reads each weight once; its running sum is both the total that
    must be 1 and the threshold the uniform is compared with.
    """
    u = rng.random()
    total = 0.0
    chosen = last = None
    for m in moves:
        w = m.weight(x)
        if w < 0.0:
            raise ConfigurationError(f"negative move selection probability at k={len(x)}")
        total += w
        if w > 0.0:
            last = m
            if chosen is None and u < total:
                chosen = m
    if not abs(total - 1.0) <= 1e-12:  # a NaN weight makes the total NaN
        raise ConfigurationError(
            f"move selection probabilities sum to {total!r} at k={len(x)}, expected 1")
    # If u landed in the final rounding sliver, return the last selectable move.  The
    # weights sum to 1, so one is positive and ``last`` is set.
    return chosen if chosen is not None else last


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


def check_order_prior(lam: float, k_max: int) -> None:
    """The one rule for a Poisson(lam) order law truncated to {0, ..., k_max}, which the
    schedule, both targets and the order pmfs check: lam a real number, finite and > 0, and
    k_max an int >= 0."""
    if not (isinstance(lam, numbers.Real) and 0.0 < lam < math.inf
            and isinstance(k_max, numbers.Integral) and k_max >= 0):
        raise ConfigurationError(f"order prior needs lam finite and > 0 and k_max an "
                                 f"integer >= 0, got lam={lam!r}, k_max={k_max!r}")


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

    def accept(self, label: str, log_ratio: float, rng: Rng) -> bool:
        """The one accept step: decide a proposal by mhg_accept and tally it under ``label``."""
        accepted = mhg_accept(log_ratio, rng)
        self.proposals[label] = self.proposals.get(label, 0) + 1
        if accepted:
            self.acceptances[label] = self.acceptances.get(label, 0) + 1
        return accepted

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


def mixture_step(moves: tuple[Move, ...], rng: Rng) -> Callable:
    """The sweep that makes one MHG transition of the mixture ``moves``, tallied into ``out``.

    It returns the row (x', log f(x'), move label, accepted, None, None).  An
    accepted proposal's log f is the log f(x') its move returned; a rejection
    keeps x and the log f(x) it was given.
    """
    def step(x: VarDimState, log_t: float, out: ChainOutput) -> tuple:
        move = select_move(moves, x, rng)
        proposed, log_ratio, lt_new = move.propose(x, log_t, rng)
        # A move that keeps x proposes nothing new to scan.
        if proposed is not x and any(map(math.isnan, proposed)):
            raise BrokenKernelError(f"move {move.label!r} proposed a state with NaN components")
        accepted = out.accept(move.label, log_ratio, rng)
        if accepted:
            x, log_t = proposed, lt_new
        return x, log_t, move.label, accepted, None, None
    return step


def run_sweeps(sweep: Callable, target: TargetDensity, init: VarDimState, n_iter: int,
               burn_in: int, config: dict | None = None) -> ChainOutput:
    """The one chain loop: ``n_iter`` sweeps from ``init``, one row each.

    ``sweep(x, log_t, out)`` tallies its moves into ``out`` and returns the row (x,
    log_t, move, accepted, lam, delta2); plain chains give None for lam and delta2.
    ``init`` needs a finite log target under ``target``, and a NaN on any row is a
    BrokenKernelError.  ``config`` adds keys beside n_iter and burn_in.
    """
    check_iteration_counts(n_iter, burn_in)
    log_t = target.log_density(init)
    if math.isnan(log_t):
        raise BrokenKernelError("target returned NaN at the initial state")
    if log_t == NEG_INF:
        raise ConfigurationError("initial state has zero target density")
    x = init
    out = ChainOutput(config={"n_iter": n_iter, "burn_in": burn_in, **(config or {})})
    for i in range(n_iter):
        x, log_t, move, accepted, lam, delta2 = sweep(x, log_t, out)
        if math.isnan(log_t):
            raise BrokenKernelError(f"target returned NaN at iteration {i}, k={len(x)}")
        out.append(x, log_t, move, accepted, lam, delta2)
    return out


def run_chain(target: TargetDensity, moves: tuple[Move, ...], init: VarDimState, n_iter: int,
              burn_in: int, rng: Rng) -> ChainOutput:
    """Run the MHG chain of the mixture ``moves``: :func:`run_sweeps` over one
    :func:`mixture_step` per iteration, reproducible given the generator state.  The
    kernels draw through a :class:`Draws` of ``rng``, numpy's stream bit for bit; it
    skips the bit generator's lock, so no other thread may draw from ``rng`` during the run."""
    return run_sweeps(mixture_step(moves, Draws(rng)), target, init, n_iter, burn_in)
