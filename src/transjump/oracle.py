"""Exact and brute-force verification tools.

Finite discrete surrogates of the variable-dimensional space make the full
transition matrix of the birth-or-death sampler computable, so stationarity
and detailed balance can be checked to floating-point accuracy.  Small
sinusoid problems are cross-checked against direct quadrature of the target.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .birthdeath import (
    BirthDeathSchedule,
    bod_move_set,
    is_sorted,
    pmf_component_proposal,
)
from .core import NEG_INF, BrokenKernelError, ConfigurationError, Rng, VarDimState
from .sinusoid import (
    FrequencyGrid,
    check_posterior_settings,
    logsumexp,
    sinusoid_log_target,
    sinusoid_log_targets,
)


@dataclass
class DiscreteToySpec:
    """A finite surrogate: M labelled points, truncated order, tabulated target.

    ``weights`` maps component tuples (including the empty tuple) to finite
    nonnegative target weights; tuples with repeated entries implicitly get
    weight zero, mirroring the null diagonal of an atomless component space.
    Construction checks the weights and builds the schedule once, so lam,
    k_max, c, the points and q and the representation are checked by their
    owners before any state is listed.  ``q`` must then sum to 1 within 1e-12:
    it is the stated pmf, which the kernels draw from once
    ``pmf_component_proposal`` has normalised it.
    """

    points: tuple[float, ...]
    k_max: int
    weights: dict[tuple[float, ...], float]
    q: tuple[float, ...]
    lam: float = 1.0
    c: float = 0.25
    representation: str = "unsorted"

    def __post_init__(self):
        if not all(0.0 <= w < math.inf for w in self.weights.values()):
            raise ConfigurationError("target weights must be finite and nonnegative")
        if not any(w > 0 for w in self.weights.values()):
            raise ConfigurationError("target weights must not all vanish")
        self.schedule()
        if not abs(sum(self.q) - 1.0) <= 1e-12:
            raise ConfigurationError(f"q sums to {sum(self.q)!r}; it must be a pmf (1 +/- 1e-12)")

    def schedule(self, ratio_mode: str = "corrected") -> BirthDeathSchedule:
        return BirthDeathSchedule.green(
            self.lam, self.k_max, self.c,
            proposal=pmf_component_proposal(self.points, self.q),
            representation=self.representation,
            ratio_mode=ratio_mode)

    def log_density(self, x: VarDimState) -> float:
        """Log of the tabulated target weight; the toy spec is its own target."""
        if len(x) > self.k_max:
            return NEG_INF
        if len(set(x)) != len(x):
            return NEG_INF
        if self.representation == "sorted" and not is_sorted(x):
            return NEG_INF
        w = self.weights.get(x, 0.0)
        return math.log(w) if w > 0.0 else NEG_INF


def enumerate_states(spec: DiscreteToySpec) -> list[VarDimState]:
    """All states with distinct components up to k_max, in canonical order.

    Orders ascend by k, then lexicographically; the empty state comes first.
    Sorted specs enumerate combinations, unsorted ones ordered arrangements.
    """
    count = math.comb if spec.representation == "sorted" else math.perm
    n_states = sum(count(len(spec.points), k) for k in range(spec.k_max + 1))
    if n_states >= 10_000:
        raise ConfigurationError(f"state space too large to enumerate ({n_states})")
    pts = tuple(sorted(spec.points))
    arrange = (itertools.combinations if spec.representation == "sorted"
               else itertools.permutations)
    states = [()]
    for k in range(1, spec.k_max + 1):
        states.extend(arrange(pts, k))
    return states


def normalized_target_vector(spec: DiscreteToySpec, legacy: bool = False) -> np.ndarray:
    """The exact stationary law: normalized weights, or weights / k! in legacy mode.

    A chain driven by the legacy ratio is exactly the corrected chain for the
    reweighted target f_k / k!, so its fixed point is known in closed form.
    """
    states = enumerate_states(spec)
    w = np.array([spec.weights.get(s, 0.0) for s in states], dtype=float)
    if legacy:
        w = w / np.array([math.factorial(len(s)) for s in states], dtype=float)
    total = w.sum()
    if total <= 0:
        raise ConfigurationError("toy target has zero total mass")
    return w / total


class _PathRng:
    """Stand-in generator that follows one path of a proposal's discrete draws.

    Draw i of ``integers`` or ``choice`` returns ``path[i]``.  A draw past the
    end of the path takes the first outcome of positive probability and pushes
    onto ``stack`` a path for each other such outcome.  ``prob`` is the product
    of the probabilities of the outcomes taken.  Any other draw is continuous,
    which a toy cannot enumerate, so it raises rather than guess.
    """

    def __init__(self, path: list[int], stack: list[list[int]]):
        self.path, self.stack, self.drawn, self.prob = path, stack, 0, 1.0

    def _draw(self, probs) -> int:
        if self.drawn == len(self.path):
            first, *rest = (i for i, p in enumerate(probs) if p > 0.0)
            self.stack.extend(self.path + [i] for i in rest)
            self.path.append(first)
        outcome = self.path[self.drawn]
        self.drawn += 1
        self.prob *= probs[outcome]
        return outcome

    def integers(self, low: int, high: int) -> int:
        return low + self._draw([1.0 / (high - low)] * (high - low))

    def choice(self, n: int, p) -> int:
        return self._draw(p)

    def __getattr__(self, name):
        raise BrokenKernelError(f"toy proposal made the continuous draw rng.{name}")


def build_transition_matrix(spec: DiscreteToySpec,
                            ratio_mode: str = "corrected") -> np.ndarray:
    """Exact one-step transition matrix of the birth-or-death sampler.

    Each row runs the mixture the chain runs, ``bod_move_set``: every move of
    positive weight j(x, m) proposes once per path of its discrete draws (see
    ``_PathRng``), so the rows come from the kernels' own slot, q and death
    draws and their own ratio.  A path of probability p adds j p min(1, r) to
    its proposed state and the rest to the diagonal, where the identity move
    lands whole.  The target is evaluated once at each state, as the chain
    carries it.  A NaN ratio, a continuous draw, an accepted proposal outside
    the enumerated states or a row sum off one by more than 1e-12 is a
    ``BrokenKernelError``.
    """
    states = enumerate_states(spec)
    index = {s: i for i, s in enumerate(states)}
    moves = bod_move_set(spec, spec.schedule(ratio_mode))
    matrix = np.zeros((len(states), len(states)))

    for xi, x in enumerate(states):
        log_fx = spec.log_density(x)
        for move in moves:
            weight = move.weight(x)
            stack = [[]] if weight > 0.0 else []
            while stack:
                rng = _PathRng(stack.pop(), stack)
                proposed, log_r, _ = move.propose(x, log_fx, rng)
                if math.isnan(log_r):
                    raise BrokenKernelError(f"NaN {move.label} ratio at x={x}")
                alpha = math.exp(min(0.0, log_r))
                yi = index.get(proposed)
                if yi is None:
                    # A proposal outside the enumerated states (a repeated
                    # component) must be rejected surely by its zero density.
                    if alpha != 0.0:
                        raise BrokenKernelError(
                            f"accepting proposal into unenumerated state {proposed}")
                    yi = xi
                prob = weight * rng.prob
                matrix[xi, yi] += prob * alpha
                matrix[xi, xi] += prob * (1.0 - alpha)

    row_err = np.abs(matrix.sum(axis=1) - 1.0).max()
    if row_err > 1e-12:
        raise BrokenKernelError(f"transition rows sum to 1 +/- {row_err:.3e}")
    return matrix


def stationary_distribution(matrix: np.ndarray) -> np.ndarray:
    """Left fixed point of a row-stochastic matrix by GTH state reduction.

    Grassmann, Taksar and Heyman (Operations Research 33(5), 1985) censor the
    chain onto states 0..k-1 for k = n-1 down to 1, then rebuild the law
    upwards.  Only sums and products of nonnegative entries occur and the
    diagonal is never read, so the result is accurate to rounding level even
    when the chain is nearly reducible.  A matrix that is not square, has a
    non-finite or negative entry, or a row sum off 1 by more than 1e-12 is a
    ValueError, raised before any work.  The reduction keeps the first state
    to the end, so that must be a state every state reaches: the first such
    state, found from the reachability closure of matrix > 0, is moved there
    and back.  Transient states then get exactly 0.  A chain with no such
    state has more than one closed class and no unique law: a RuntimeError.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("transition matrix must be square, 2-D and nonempty, "
                         f"got shape {a.shape}")
    if not np.isfinite(a).all() or (a < 0.0).any():
        raise ValueError("transition matrix entries must be finite and nonnegative")
    row_err = float(np.abs(a.sum(axis=1) - 1.0).max())
    if row_err > 1e-12:
        raise ValueError(f"transition rows sum to 1 +/- {row_err:.3e}")
    n = a.shape[0]
    reach = ((a > 0.0) | np.eye(n, dtype=bool)).astype(float)
    while not ((wider := (reach @ reach > 0.0).astype(float)) == reach).all():
        reach = wider
    roots = np.flatnonzero(reach.all(axis=0))
    if roots.size == 0:
        raise RuntimeError("no state is reachable from every state: "
                           "the chain has more than one closed class")
    order = np.r_[roots[0], np.delete(np.arange(n), roots[0])]
    a = a[np.ix_(order, order)]
    for k in range(n - 1, 0, -1):
        s = a[k, :k].sum()
        if not s > 0.0:  # only underflow can empty a row once state 0 is a root
            raise RuntimeError(f"state reduction underflowed at step {k}")
        a[:k, k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.empty(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    law = np.empty(n)
    law[order] = pi / pi.sum()
    return law


def detailed_balance_residual(matrix: np.ndarray, pi: np.ndarray) -> float:
    """max over cells of |pi_x P(x,x') - pi_x' P(x',x)|."""
    flow = pi[:, None] * matrix
    return float(np.abs(flow - flow.T).max())


def _frequency_partition(y, lam: float, delta2: float, k_max: int,
                         grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Riemann partition of (0, pi) that resolves narrow likelihood peaks.

    A uniform coarse pass over grid_size // 2 cells evaluates each cell's
    midpoint; the five highest scoring coarse cells (by their own midpoint
    value or a neighbour's, so a peak hiding at a cell boundary is still
    caught) are each cut into (grid_size - grid_size // 2) // 5 cells.
    Returns cell midpoints and log cell widths: grid_size // 2 - 5 coarse
    cells plus the refined ones, 195 points at grid_size 200.  The coarse
    pass spends grid_size // 2 density evaluations of its own.
    """
    n_coarse, n_refine = grid_size // 2, 5
    sub = (grid_size - n_coarse) // n_refine
    width = math.pi / n_coarse
    mids = (np.arange(n_coarse) + 0.5) * width
    vals = _order1_log_targets(y, FrequencyGrid(mids, y.size), lam, delta2, k_max)
    padded = np.concatenate(([NEG_INF], vals, [NEG_INF]))
    scores = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
    refine = set(np.argsort(scores)[::-1][:n_refine].tolist())

    points: list[float] = []
    log_widths: list[float] = []
    for i in range(n_coarse):
        left = i * width
        if i in refine:
            points.extend(left + (np.arange(sub) + 0.5) * width / sub)
            log_widths.extend([math.log(width / sub)] * sub)
        else:
            points.append(mids[i])
            log_widths.append(math.log(width))
    return np.array(points), np.array(log_widths)


PAIR_BATCH = 2048  # order-2 cells per stacked projection-norm call


def _order1_log_targets(y, grid: FrequencyGrid, lam: float, delta2: float,
                        k_max: int) -> np.ndarray:
    """sinusoid_log_target at each one-tone state (w,), w in grid.points."""
    cells = np.arange(len(grid.points))[:, None]
    norms = grid.projection_norms(y, cells)
    return sinusoid_log_targets(y, grid.points[cells], norms, lam, delta2, k_max)


def quadrature_posterior_k(y, delta2: float, lam: float, k_max: int,
                           grid_size: int = 200) -> np.ndarray:
    """Posterior law of the model order by Riemann sums over (0, pi)^k grids.

    Only small problems (0 <= k_max <= 2, grid_size an integer of at least
    100) are supported.  The order-1 sum runs over the G points of the
    peak-resolving partition above.  The target is exchangeable and the
    diagonal cells of the G x G tensor product are singular, so the order-2
    sum runs over the pairs i < j only, in batches of at most PAIR_BATCH,
    and adds log 2.  All sums are max-log shifted so no overflow can occur.
    With the empty model and the partition's coarse pass, one call evaluates
    1 + grid_size // 2 + G + G(G - 1)/2 densities: 19211 at grid_size 200,
    where G = 195.  A sinusoid.FrequencyGrid holds the cos/sin columns of
    the G points and their Gram table; each batch's projection norms are
    gathered from it and solved as one stack, and sinusoid_log_targets turns
    them into densities.  The norms lie within 1e-12 |y|^2 of the scalar
    path's (see FrequencyGrid.projection_norms), so the law is not bit for
    bit a cell by cell sinusoid_log_target sum.  The settings are checked as
    SinusoidPosterior checks them, before any evaluation.
    """
    if not 0 <= k_max <= 2:
        raise ConfigurationError("quadrature oracle supports 0 <= k_max <= 2 only")
    if not (isinstance(grid_size, numbers.Integral) and grid_size >= 100):
        raise ConfigurationError("grid_size must be an integer of at least 100")
    y = check_posterior_settings(y, lam, delta2, k_max)

    log_mass = [sinusoid_log_target(y, (), lam, delta2, k_max)]
    if k_max >= 1:
        points, log_widths = _frequency_partition(y, lam, delta2, k_max, grid_size)
        grid = FrequencyGrid(points, y.size)
        vals = _order1_log_targets(y, grid, lam, delta2, k_max)
        log_mass.append(logsumexp(vals + log_widths))
    if k_max >= 2:
        pairs = np.column_stack(np.triu_indices(len(points), 1))
        vals2 = np.empty(len(pairs))
        for lo in range(0, len(pairs), PAIR_BATCH):
            cells = pairs[lo:lo + PAIR_BATCH]
            norms = grid.projection_norms(y, cells)
            vals2[lo:lo + len(cells)] = (
                sinusoid_log_targets(y, points[cells], norms, lam, delta2, k_max)
                + log_widths[cells].sum(axis=1))
        log_mass.append(logsumexp(vals2) + math.log(2.0))

    log_mass = np.array(log_mass)
    shifted = np.exp(log_mass - log_mass.max())
    return shifted / shifted.sum()


def tv_distance(p, q) -> float:
    """Total variation distance between two laws on the same finite support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"support size mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def random_toy_spec(rng: Rng, m: int = 3, k_max: int = 2,
                    representation: str = "unsorted") -> DiscreteToySpec:
    """A randomized toy: random target weights, proposal pmf and schedule constants.

    Weights are bounded away from zero so every randomized chain is
    well-conditioned for exact stationarity checks.
    """
    points = tuple(np.linspace(0.4, 2.8, m))
    arrange = (itertools.combinations if representation == "sorted"
               else itertools.permutations)
    weights: dict[tuple[float, ...], float] = {(): float(rng.uniform(0.1, 1.0))}
    for k in range(1, k_max + 1):
        for tup in arrange(points, k):
            weights[tup] = float(rng.uniform(0.1, 1.0))
    q = rng.uniform(0.2, 1.0, size=m)
    return DiscreteToySpec(
        points=points,
        k_max=k_max,
        weights=weights,
        q=tuple(q / q.sum()),
        lam=float(rng.uniform(0.8, 3.0)),
        c=float(rng.uniform(0.15, 0.5)),
        representation=representation,
    )
