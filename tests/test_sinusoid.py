"""Sinusoid target math, hyperparameter moves, signal synthesis, order pmfs."""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import gamma, invgamma

from transjump.birthdeath import SortedRestriction, is_sorted
from transjump.core import (
    BrokenKernelError,
    ChainOutput,
    ConfigurationError,
    mhg_accept,
    rng_stream,
)
from transjump.oracle import _frequency_partition
from transjump.sinusoid import (
    POSTERIOR_CACHE_SIZE,
    FrequencyGrid,
    PriorOnlyTarget,
    SinusoidPosterior,
    _projection_norm2,
    accelerated_poisson_pmf,
    design_matrix,
    frequency_update_move,
    log_truncated_poisson_normalizer,
    logsumexp,
    quad_form,
    sample_delta2,
    sample_lambda,
    sinusoid_log_target,
    sinusoid_log_targets,
    synthesize,
    truncated_poisson_pmf,
)

NEG_INF = float("-inf")

# Gaps of 2e-8 pass the 1e-8 duplicate guard, but D^T D is not positive
# definite to working precision at N = 16, 32 and 64: the Cholesky fails.
CHOLESKY_FAILS = (1.0, 1.0 + 2e-8, 1.0 + 4e-8)
# Tones ~2e-4 apart: the Cholesky succeeds, but on the reference signal the
# factorised projection exceeds |y|^2.
INACCURATE_PROJECTION = (0.62, 0.6203, 0.6206, 0.6208)


class TestDesignMatrix:
    def test_quarter_period_columns(self):
        d = design_matrix((math.pi / 2,), 4)
        np.testing.assert_allclose(d[:, 0], [1, 0, -1, 0], atol=1e-15)
        np.testing.assert_allclose(d[:, 1], [0, 1, 0, -1], atol=1e-15)

    def test_gram_matches_brute_force(self):
        """D^T D entries against a direct O(N k^2) summation."""
        rng = rng_stream(60)
        omega = rng.uniform(0.2, 3.0, size=3)
        n = 17
        d = design_matrix(omega, n)
        gram = d.T @ d

        def col(j, t):
            w = omega[j // 2]
            return math.cos(w * t) if j % 2 == 0 else math.sin(w * t)

        for a in range(6):
            for b in range(6):
                brute = sum(col(a, t) * col(b, t) for t in range(n))
                assert gram[a, b] == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_shape(self):
        assert design_matrix((0.5, 1.0), 10).shape == (10, 4)


class TestQuadForm:
    def test_projection_annihilated_for_orthogonal_y(self):
        """y orthogonal to both columns leaves y^T y untouched for any delta2."""
        y = np.ones(4)
        for delta2 in (0.5, 10.0, 1000.0):
            assert quad_form(y, (math.pi / 2,), delta2) == pytest.approx(4.0, rel=1e-12)

    def test_zero_delta2_returns_energy(self):
        rng = rng_stream(61)
        y = rng.standard_normal(16)
        for omega in ((0.4,), (0.4, 1.1), (0.7, 0.71)):
            assert quad_form(y, omega, 0.0) == float(y @ y)

    def test_matches_dense_projection_matrix(self):
        """Never forms P_k; must still equal the dense y^T P_k y computation."""
        rng = rng_stream(62)
        for _ in range(50):
            n = int(rng.integers(8, 40))
            k = int(rng.integers(1, 4))
            omega = np.sort(rng.uniform(0.1, math.pi - 0.1, size=k))
            if k > 1 and np.diff(omega).min() < 5e-2:
                continue
            y = rng.standard_normal(n)
            delta2 = float(np.exp(rng.uniform(math.log(0.01), math.log(1000))))
            d = design_matrix(omega, n)
            p = np.eye(n) - delta2 / (1 + delta2) * d @ np.linalg.inv(d.T @ d) @ d.T
            assert quad_form(y, omega, delta2) == pytest.approx(float(y @ p @ y), rel=1e-9)

    def test_lower_bound(self):
        """quad >= |y|^2/(1+delta2): the projection can never remove more."""
        rng = rng_stream(63)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            omega = np.sort(rng.uniform(0.1, math.pi - 0.1, size=k))
            y = rng.standard_normal(32)
            delta2 = float(np.exp(rng.uniform(math.log(0.01), math.log(1e4))))
            q = quad_form(y, omega, delta2)
            if q == math.inf:
                continue
            assert q >= float(y @ y) / (1 + delta2) * (1 - 1e-9)

    def test_duplicate_frequencies_signal_singular(self):
        y = rng_stream(64).standard_normal(16)
        for omega in ((0.8, 0.8), CHOLESKY_FAILS):
            assert quad_form(y, omega, 10.0) == math.inf


def _reference_projection_norm2(y, omega) -> float:
    """The projection norm through scipy's checked solve_triangular wrapper;
    inf on near-duplicate frequencies or a failed Cholesky."""
    omega = np.asarray(omega, dtype=float)
    if omega.size > 1 and float(np.diff(np.sort(omega)).min()) < 1e-8:
        return math.inf
    d = design_matrix(omega, y.size)
    try:
        chol = np.linalg.cholesky(d.T @ d)
    except np.linalg.LinAlgError:
        return math.inf
    w = solve_triangular(chol, d.T @ y, lower=True)
    return float(w @ w)


def _outcome(f, *args):
    """The float f returns, or the class of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


NON_FINITE_OMEGAS = [(math.nan,), (math.inf,), (-math.inf,), (0.3, math.nan),
                     (math.nan, 0.3), (0.3, math.inf), (-math.inf, 0.3),
                     (math.inf, math.inf), (0.3, math.nan, 0.3 + 5e-9),
                     (0.3, 0.3 + 5e-9, math.nan)]


class TestProjectionNorm:
    REFERENCE = synthesize((0.63, 0.68, 0.73), (20.0, 6.32, 20.0), 7.0, 64, rng_stream(5))

    def test_matches_checked_solve_bit_for_bit(self):
        """The same float as the reference computation at 5600 random states."""
        y = self.REFERENCE
        rng = rng_stream(74)
        for k in range(1, 9):
            for _ in range(700):
                omega = tuple(float(w) for w in rng.uniform(0.0, math.pi, size=k))
                assert (_outcome(_projection_norm2, y, omega)
                        == _outcome(_reference_projection_norm2, y, omega))

    def test_edge_states_match_checked_solve(self):
        """The empty model, tiny gaps, a failed Cholesky and an inaccurate
        projection agree too."""
        y = self.REFERENCE
        states = [(), (1.0, 1.0 + 5e-9), (1.0 + 5e-9, 1.0), (1.0, 1.0 + 2e-8),
                  (0.5, 2.0, 2.0 + 5e-9), (0.5, 2.0, 2.0 + 2e-8), (0.8, 0.8),
                  CHOLESKY_FAILS, INACCURATE_PROJECTION]
        for omega in states:
            expect = _outcome(_reference_projection_norm2, y, omega)
            assert _outcome(_projection_norm2, y, omega) == expect
        assert _projection_norm2(y, (1.0, 1.0 + 5e-9)) == math.inf
        assert _projection_norm2(y, CHOLESKY_FAILS) == math.inf
        assert math.isfinite(_projection_norm2(y, INACCURATE_PROJECTION))

    @pytest.mark.parametrize("omega", NON_FINITE_OMEGAS)
    def test_non_finite_frequency_raises(self, omega):
        y = self.REFERENCE
        with pytest.raises(ValueError):
            _projection_norm2(y, omega)
        with pytest.raises(ValueError):
            quad_form(y, omega, 100.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_signal_raises(self, bad):
        y = self.REFERENCE.copy()
        y[7] = bad
        for omega in ((0.63,), (0.63, 0.73)):
            with pytest.raises(ValueError):
                _projection_norm2(y, omega)
            with pytest.raises(ValueError):
                quad_form(y, omega, 100.0)


def grid_norms(y, omegas) -> np.ndarray:
    """FrequencyGrid.projection_norms of the rows of omegas, as cells of a grid.

    The grid holds the distinct frequencies of omegas in a shuffled order,
    plus two that no row uses, so cells gather columns out of order.
    """
    omegas = np.asarray(omegas, dtype=float)
    distinct = np.unique(omegas)
    points = rng_stream(76).permutation(np.concatenate((distinct, [0.05, 3.1])))
    order = np.argsort(points)
    cells = order[np.searchsorted(points, omegas, sorter=order)]
    assert np.array_equal(points[cells], omegas, equal_nan=True)
    with np.errstate(invalid="ignore"):  # the columns of a non-finite point are NaN
        grid = FrequencyGrid(points, y.size)
    return grid.projection_norms(y, cells)


class TestProjectionNorms:
    """FrequencyGrid.projection_norms against the scalar path, row by row."""

    SIGNALS = {"three-tone": TestProjectionNorm.REFERENCE,
               "one-tone": synthesize((0.63,), (20.0,), 20.0, 32, rng_stream(1, 0))}

    def assert_rows_match(self, y, omegas):
        """inf on exactly the scalar path's inf rows; elsewhere within
        1e-12 |y|^2 of the scalar norm, on rows whose frequencies are at
        least 1e-3 apart.  Closer rows get no value bound: neither path
        resolves s there (a 2e-8 gap moves it by up to 1.5e-3 |y|^2)."""
        got = grid_norms(y, omegas)
        want = np.array([_projection_norm2(y, tuple(row)) for row in omegas])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        gaps = np.diff(np.sort(np.asarray(omegas, dtype=float), axis=1), axis=1)
        resolved = np.isfinite(want) & (gaps >= 1e-3).all(axis=1)
        assert (np.abs(got[resolved] - want[resolved]) <= 1e-12 * float(y @ y)).all()

    @pytest.mark.parametrize("signal", list(SIGNALS))
    def test_random_rows_match_scalar_within_tolerance(self, signal):
        """2000 random rows at each k = 1..4, in batches of 200."""
        y = self.SIGNALS[signal]
        rng = rng_stream(75)
        for k in range(1, 5):
            for _ in range(10):
                self.assert_rows_match(y, rng.uniform(0.0, math.pi, size=(200, k)).tolist())

    def test_table_columns_are_the_design_columns(self):
        """Every design gathered from the table is bit for bit design_matrix's,
        and the Gram table is the table's own product."""
        points = rng_stream(77).uniform(0.0, math.pi, size=50)
        grid = FrequencyGrid(points, 64)
        assert np.array_equal(grid.table, design_matrix(points, 64))
        assert np.array_equal(grid.gram, grid.table.T @ grid.table)
        for w in points[:5]:
            assert np.array_equal(design_matrix((w,), 64), FrequencyGrid([w], 64).table)

    @pytest.mark.parametrize("signal", list(SIGNALS))
    def test_near_duplicate_rows_are_inf(self, signal):
        """Rows with gaps of 5e-9 would factorise, but the scalar path calls them
        singular; gaps of 2e-8 are regular.  Exact duplicates sit in a batch of
        their own, since their Gram makes the stacked factorisation fail."""
        y = self.SIGNALS[signal]
        pairs = [(1.0, 1.0 + 5e-9), (1.0 + 5e-9, 1.0), (1.0, 1.0 + 2e-8), (0.4, 2.2)]
        triples = [(0.5, 2.0 + 5e-9, 2.0), (2.5, 2.5 + 5e-9, 0.3),
                   (0.5, 2.0, 2.0 + 2e-8), (0.1, 1.1, 2.1)]
        duplicates = [(0.8, 0.8), (0.4, 2.2)]
        for batch in (pairs, triples, duplicates):
            self.assert_rows_match(y, batch)
        assert grid_norms(y, pairs)[:2].tolist() == [math.inf, math.inf]
        assert math.isfinite(grid_norms(y, pairs)[2])
        assert grid_norms(y, triples)[:2].tolist() == [math.inf, math.inf]
        assert grid_norms(y, duplicates)[0] == math.inf

    @pytest.mark.parametrize("signal", list(SIGNALS))
    def test_failed_stacked_factorisation_falls_back_to_scalar(self, signal):
        y = self.SIGNALS[signal]
        batch = [(0.2, 1.4, 2.9), CHOLESKY_FAILS, INACCURATE_PROJECTION[:3]]
        d = design_matrix(batch, y.size)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(d.swapaxes(1, 2) @ d)
        self.assert_rows_match(y, batch)
        assert grid_norms(y, batch)[1] == math.inf

    def test_empty_model_is_zero(self):
        y = TestProjectionNorm.REFERENCE
        grid = FrequencyGrid([0.63, 0.73], y.size)
        assert grid.projection_norms(y, np.empty((3, 0), dtype=int)).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_or_signal_raises(self, bad):
        y = TestProjectionNorm.REFERENCE
        with pytest.raises(ValueError):
            grid_norms(y, [(0.63, 0.73), (0.3, bad)])
        y = y.copy()
        y[7] = bad
        with pytest.raises(ValueError):
            grid_norms(y, [(0.63, 0.73), (0.3, 1.3)])


class TestLogTargets:
    """The vector log target equals sinusoid_log_target cell by cell, bit for bit."""

    def assert_cells_match(self, y, omegas, s, lam, delta2, k_max):
        got = sinusoid_log_targets(y, np.reshape(omegas, (len(s), -1)), s,
                                   lam, delta2, k_max).tolist()
        assert got == [sinusoid_log_target(y, tuple(row), lam, delta2, k_max, s=sr)
                       for row, sr in zip(omegas, s)]

    def test_golden_quadrature_grid(self):
        """Every cell of the order-1 and order-2 grids behind the golden
        quadrature values (one tone, N = 32, delta2 = 100, lam = 1, k_max = 2)."""
        y = synthesize((0.63,), (20.0,), 20.0, 32, rng_stream(1, 0))
        points, _ = _frequency_partition(y, 1.0, 100.0, 2, 200)
        points = points.tolist()
        assert len(points) == 195
        singles = [(w,) for w in points]
        self.assert_cells_match(y, singles, [_projection_norm2(y, o) for o in singles],
                                1.0, 100.0, 2)
        for w1 in points:
            row = [(w1, w2) for w2 in points]
            s = [_projection_norm2(y, o) for o in row]
            self.assert_cells_match(y, row, s, 1.0, 100.0, 2)

    def test_edge_rows(self):
        """The empty model, orders above k_max, delta2 = 0, a singular, NaN or
        too large projection, and frequencies at 0, at pi and below 0."""
        y = TestProjectionNorm.REFERENCE
        yty = float(y @ y)
        s_ok = _projection_norm2(y, (0.63, 0.73))
        pairs = [(0.63, 0.73), (0.63, 0.73), (0.63, 0.73), (0.63, 0.73),
                 (0.0, 0.73), (0.63, math.pi), (-0.3, 0.73)]
        s = [s_ok, math.inf, math.nan, yty * (1 + 1e-12), s_ok, s_ok, s_ok]
        for lam, delta2 in ((2.0, 25.0), (2.0, 0.0), (0.7, 1e-3)):
            self.assert_cells_match(y, [()] * 3, [0.0, math.inf, math.nan], lam, delta2, 4)
            self.assert_cells_match(y, [()] * 2, [0.0, 0.0], lam, delta2, 0)
            self.assert_cells_match(y, pairs, s, lam, delta2, 2)
            self.assert_cells_match(y, pairs, s, lam, delta2, 1)
            self.assert_cells_match(y, [(0.63,), (math.pi,)], [s_ok, s_ok], lam, delta2, 3)
        got = sinusoid_log_targets(y, np.array(pairs), s, 2.0, 25.0, 2)
        assert math.isfinite(got[0]) and (got[1:] == NEG_INF).all()
        assert (sinusoid_log_targets(y, np.array(pairs), s, 2.0, 0.0, 2)[:4]
                > NEG_INF).all()
        assert (sinusoid_log_targets(y, np.array(pairs), s, 2.0, 25.0, 1) == NEG_INF).all()


class TestLogTarget:
    def test_empty_model_value(self):
        y = np.ones(4)
        assert sinusoid_log_target(y, (), 1.0, 10.0, 8) == pytest.approx(
            -2.0 * math.log(4.0), rel=1e-15)

    def test_out_of_domain_component_is_minus_inf(self):
        y = np.ones(8)
        assert sinusoid_log_target(y, (math.pi,), 1.0, 10.0, 8) == NEG_INF
        assert sinusoid_log_target(y, (0.0,), 1.0, 10.0, 8) == NEG_INF
        assert sinusoid_log_target(y, (-0.3,), 1.0, 10.0, 8) == NEG_INF

    def test_above_truncation_is_minus_inf(self):
        y = np.ones(8)
        assert sinusoid_log_target(y, (0.5, 1.0, 1.5), 1.0, 10.0, 2) == NEG_INF

    def test_singular_maps_to_minus_inf(self):
        y = rng_stream(65).standard_normal(16)
        for omega in ((0.8, 0.8), CHOLESKY_FAILS):
            assert sinusoid_log_target(y, omega, 1.0, 10.0, 8) == NEG_INF

    def test_inaccurate_projection_maps_to_minus_inf(self):
        """Tones ~2e-4 apart pass the duplicate guard, but the factorised
        projection exceeds |y|^2; that design counts as singular, not as a
        negative quadratic form."""
        y = synthesize((0.63, 0.68, 0.73), (20.0, 6.32, 20.0), 7.0, 64, rng_stream(5))
        assert _projection_norm2(y, INACCURATE_PROJECTION) > float(y @ y)
        assert quad_form(y, INACCURATE_PROJECTION, 100.0) == math.inf
        assert sinusoid_log_target(y, INACCURATE_PROJECTION, 1.0, 100.0, 32) == NEG_INF

    def test_order_ratio_reduces_to_quad_ratio(self):
        """exp(lt(k+1)-lt(k)) times (k+1)pi/lam equals (quad ratio)^(-N/2)/(1+d2)."""
        rng = rng_stream(66)
        for _ in range(50):
            n = 32
            y = rng.standard_normal(n)
            k = int(rng.integers(0, 4))
            omega = np.sort(rng.uniform(0.15, math.pi - 0.15, size=k + 1))
            if np.diff(omega).min(initial=1.0) < 5e-2:
                continue
            lam = float(rng.uniform(0.5, 8.0))
            delta2 = float(rng.uniform(0.5, 300.0))
            lt_hi = sinusoid_log_target(y, tuple(omega), lam, delta2, 8)
            lt_lo = sinusoid_log_target(y, tuple(omega[:-1]), lam, delta2, 8)
            lhs = math.exp(lt_hi - lt_lo) * (k + 1) * math.pi / lam
            q_hi = quad_form(y, omega, delta2)
            q_lo = quad_form(y, omega[:-1], delta2)
            rhs = (q_hi / q_lo) ** (-n / 2.0) / (1.0 + delta2)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_permutation_invariance(self):
        rng = rng_stream(67)
        y = rng.standard_normal(24)
        omega = (0.4, 1.3, 2.2)
        base = sinusoid_log_target(y, omega, 2.0, 50.0, 8)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            shuffled = tuple(omega[i] for i in perm)
            assert sinusoid_log_target(y, shuffled, 2.0, 50.0, 8) == pytest.approx(
                base, rel=1e-9)

    def test_zero_shrinkage_degenerates_to_prior_form(self):
        """With delta2 = 0 all quadratic forms equal |y|^2, so log-target
        differences across orders reduce to the pure prior terms."""
        rng = rng_stream(82)
        y = rng.standard_normal(16)
        prior = PriorOnlyTarget(2.5, 8)
        const = -8.0 * math.log(float(y @ y))
        for omega in ((), (0.5,), (0.5, 1.5), (0.2, 1.0, 2.0)):
            lt = sinusoid_log_target(y, omega, 2.5, 0.0, 8)
            assert lt == pytest.approx(
                const + prior.log_density(omega), rel=1e-12)

    def test_posterior_class_memo_consistent(self):
        rng = rng_stream(68)
        model = SinusoidPosterior(rng.standard_normal(16), 2.0, 25.0, k_max=4)
        x = (0.9, 1.7)
        first = model.log_density(x)
        assert model.log_density(x) == first
        assert model.log_density((0.9, 1.7)) == first
        assert first == sinusoid_log_target(model.y, x, 2.0, 25.0, 4)

    def test_reused_posterior_matches_fresh_target_bit_for_bit(self):
        """One posterior across (lam, delta2) changes equals a fresh evaluation.

        The states cover the empty model, ordinary ones, a design whose
        Cholesky fails (gaps of 2e-8 at N = 64), one whose factorised
        projection exceeds |y|^2, and ones outside (0, pi); delta2 = 0
        included, where a singular design is not -inf.
        """
        y = synthesize((0.63, 0.68, 0.73), (20.0, 6.32, 20.0), 7.0, 64, rng_stream(5))
        states = [(), (0.9,), (0.63, 0.73), (0.63, 0.68, 0.73), CHOLESKY_FAILS,
                  INACCURATE_PROJECTION, (3.5,), (0.0, 1.0), (0.5, -0.2)]
        model = SinusoidPosterior(y, 2.0, 25.0, k_max=8)
        for lam, delta2 in ((2.0, 25.0), (2.0, 0.0), (0.7, 0.0), (0.7, 140.0),
                            (3.1, 140.0), (2.0, 25.0), (2.0, 1e-3)):
            model.lam, model.delta2 = lam, delta2
            for order in (states, states[::-1]):
                for omega in order:
                    fresh = sinusoid_log_target(y, omega, lam, delta2, 8)
                    assert model.log_density(omega) == fresh
            for omega in (CHOLESKY_FAILS, INACCURATE_PROJECTION):
                singular = model.log_density(omega) == NEG_INF
                assert singular == (delta2 != 0.0)

    @pytest.mark.parametrize("k_max", [2.5, 8.0, -1])
    def test_order_cap_must_be_a_nonnegative_integer(self, k_max):
        with pytest.raises(ConfigurationError):
            SinusoidPosterior(np.ones(8), 2.0, 25.0, k_max=k_max)

    def test_memos_stay_bounded(self):
        model = SinusoidPosterior(rng_stream(68).standard_normal(16), 2.0, 25.0, k_max=4)
        for w in np.linspace(0.1, 3.0, 3 * POSTERIOR_CACHE_SIZE):
            model.log_density((float(w),))
        assert model.projection_norm.cache_info().currsize == POSTERIOR_CACHE_SIZE

    def test_a_state_read_between_other_lookups_is_factorised_once(self, monkeypatch):
        """The memo evicts the least recently used tuple, so a state re-read
        between more than POSTERIOR_CACHE_SIZE other lookups stays in it."""
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
        model = SinusoidPosterior(rng_stream(68).standard_normal(16), 2.0, 25.0, k_max=4)
        held = (0.95, 2.05)
        others = [(float(w),) for w in np.linspace(0.1, 3.0, 3 * POSTERIOR_CACHE_SIZE)]
        first = model.log_density(held)
        for omega in others:
            model.log_density(omega)
            assert model.log_density(held) == first
        assert len(calls) == 1 + len(others)
        assert model.projection_norm(held) == _projection_norm2(model.y, held)

    def test_states_outside_support_are_not_factorised(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
        model = SinusoidPosterior(rng_stream(68).standard_normal(16), 2.0, 25.0, k_max=2)
        outside = [(3.5,), (0.0, 1.0), (0.5, -0.2), (0.5, 1.0, 1.5)]
        for omega in outside:
            assert model.log_density(omega) == NEG_INF
        info = model.projection_norm.cache_info()
        assert calls == [] and (info.currsize, info.hits, info.misses) == (0, 0, 0)
        model.log_density((0.9,))
        assert calls == [1] and model.projection_norm.cache_info().currsize == 1
        model.log_density((0.9,))
        info = model.projection_norm.cache_info()
        assert calls == [1] and (info.currsize, info.hits, info.misses) == (1, 1, 1)


class TestPriorOnlyTarget:
    def test_values_and_support(self):
        t = PriorOnlyTarget(5.0, 3)
        assert t.log_density(()) == 0.0
        assert t.log_density((1.0,)) == pytest.approx(
            math.log(5.0) - math.log(math.pi))
        assert t.log_density((1.0, 3.5)) == NEG_INF
        assert t.log_density((0.1, 0.2, 0.3, 0.4)) == NEG_INF

    @pytest.mark.parametrize("lam, k_max", [
        (0.0, 8), (-1.0, 8), (math.nan, 8), (math.inf, 8), (5.0, -1), (5.0, 2.5)])
    def test_unusable_settings_rejected_at_construction(self, lam, k_max):
        with pytest.raises(ConfigurationError):
            PriorOnlyTarget(lam, k_max)


class TestFrequencyUpdateMove:
    def test_out_of_domain_proposal_rejected_surely(self):
        target = PriorOnlyTarget(1.0, 4)
        x = (1e-9,)
        rng = rng_stream(69)
        outs = [frequency_update_move(x, target.log_density(x), target, rng, walk_sd=1.0)
                for _ in range(200)]
        assert any(ratio == NEG_INF for _, ratio, _ in outs)
        assert all(ratio == NEG_INF or len(proposed) == 1 for proposed, ratio, _ in outs)

    @pytest.mark.parametrize("sort", [False, True])
    def test_zero_density_proposal_carries_target_value(self, sort):
        """A proposal outside (0, pi)^k, or an unsorted one under a sorted
        restriction, has log ratio -inf, and the proposal holds the target's
        own value at the proposal, as for any other proposal."""
        model = SinusoidPosterior(rng_stream(70).standard_normal(24), 2.0, 40.0, k_max=4)
        target = SortedRestriction(model) if sort else model
        x = (0.8, 0.8005) if sort else (1e-9, 1.9)
        rng = rng_stream(84)
        log_fx = target.log_density(x)
        outs = [frequency_update_move(x, log_fx, target, rng, walk_sd=0.01) for _ in range(200)]
        if sort:
            zero = [o for o in outs if not is_sorted(o[0])]
        else:
            zero = [o for o in outs if not 0.0 < o[0][0] < math.pi]
        assert len(zero) > 20
        for proposed, ratio, lt_new in outs:
            assert lt_new == target.log_density(proposed)
            assert ratio == lt_new - target.log_density(x)
        assert all(ratio == NEG_INF and lt_new == NEG_INF for _, ratio, lt_new in zero)
        assert any(ratio > NEG_INF for _, ratio, _ in outs)

    def test_walk_branch_ratio_is_target_difference(self):
        rng = rng_stream(70)
        model = SinusoidPosterior(rng.standard_normal(24), 2.0, 40.0, k_max=4)
        x = (0.8, 1.9)
        for _ in range(50):
            proposed, ratio, _ = frequency_update_move(x, model.log_density(x), model, rng,
                                                       walk_sd=0.05)
            if ratio == NEG_INF:
                continue
            expect = model.log_density(proposed) - model.log_density(x)
            assert ratio == pytest.approx(expect, abs=1e-12)

    def test_never_changes_order(self):
        rng = rng_stream(71)
        target = PriorOnlyTarget(1.0, 4)
        x = (0.5, 1.5, 2.5)
        for _ in range(100):
            proposed, _, _ = frequency_update_move(x, target.log_density(x), target, rng, 0.1)
            assert len(proposed) == 3

    def test_requires_components(self):
        with pytest.raises(BrokenKernelError):
            frequency_update_move((), 0.0, PriorOnlyTarget(1.0, 4),
                                  rng_stream(72), 0.1)

    def test_nan_proposal_is_broken_kernel(self):
        """A NaN frequency raises; it never becomes a -inf rejection."""
        rng = rng_stream(75)
        model = SinusoidPosterior(rng.standard_normal(24), 2.0, 40.0, k_max=4)
        x = (0.63, 1.9)
        raised = 0
        for _ in range(50):
            try:
                proposed, _, _ = frequency_update_move(x, model.log_density(x), model, rng,
                                                       walk_sd=math.nan)
            except BrokenKernelError:
                raised += 1
            else:
                assert not any(math.isnan(w) for w in proposed)
        assert raised > 0

    def test_concentrates_on_strong_tone(self):
        """Fixed-k chain localises within 2pi/N of the grid-scan peak."""
        rng = rng_stream(73)
        n = 64
        y = synthesize((1.1,), (20.0,), 20.0, n, rng)
        model = SinusoidPosterior(y, 1.0, 100.0, k_max=1)
        grid = np.linspace(1e-3, math.pi - 1e-3, 20001)
        scan = [sinusoid_log_target(y, (w,), 1.0, 100.0, 1) for w in grid]
        peak = grid[int(np.argmax(scan))]

        x = (peak + 0.3,)
        log_fx = model.log_density(x)
        samples = []
        for i in range(6000):
            proposed, ratio, lt_new = frequency_update_move(x, log_fx, model, rng,
                                                            walk_sd=0.25 / n)
            if mhg_accept(ratio, rng):
                x, log_fx = proposed, lt_new
            if i >= 1000:
                samples.append(x[0])
        samples = np.array(samples)
        within = np.abs(samples - peak) < 2 * math.pi / n
        assert within.mean() > 0.9


def exact_log_normalizer(lam: float, k_max: int) -> float:
    """log sum_{j<=k_max} lam^j / j!, summed exactly in rationals and rounded once.

    Near z = 1 the log goes through log1p of z - 1, formed exactly: a plain
    log of the rounded z is off by ~1.5e-11 relative there.
    """
    lam = Fraction(lam)
    z = term = Fraction(1)
    for j in range(1, k_max + 1):
        term = term * lam / j
        z += term
    return math.log1p(float(z - 1)) if z < 2 else math.log(z)


def normalizer_lambdas(k_max: int) -> list[float]:
    """lam over e^[-12, 8], plus lam just below, at and just above k_max + 1."""
    edge = float(k_max + 1)
    return (np.exp(np.linspace(-12.0, 8.0, 201)).tolist()
            + [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)])


class TestLambdaNormalizer:
    K_MAXES = (1, 2, 3, 8, 16, 32, 64, 100)

    def test_matches_exact_rational_sum(self):
        """Relative error at most 2e-15 against the exact sum, on both branches."""
        for k_max in self.K_MAXES:
            for lam in normalizer_lambdas(k_max):
                expect = exact_log_normalizer(lam, k_max)
                got = log_truncated_poisson_normalizer(lam, k_max)
                assert abs(got - expect) <= 2e-15 * expect, (lam, k_max, got, expect)

    def test_equals_scipy_logsumexp_exactly(self):
        """Bit for bit against scipy: logsumexp, and the normaliser from k_max + 1 up.

        Arrays with -inf entries and tied maxima, as the quadrature sums have,
        are compared directly.
        """
        for k_max in self.K_MAXES:
            j = np.arange(k_max + 1)
            log_fact = np.array([math.lgamma(v + 1) for v in j])
            lams = np.exp(np.linspace(-12.0, 8.0, 2001)).tolist() + normalizer_lambdas(k_max)
            for lam in lams:
                if lam >= k_max + 1:
                    expect = float(scipy_logsumexp(j * math.log(lam) - log_fact))
                    assert log_truncated_poisson_normalizer(lam, k_max) == expect
        rng = rng_stream(82)
        arrays = [np.array([NEG_INF]), np.full(5, NEG_INF), np.array([3.0, 3.0]),
                  np.array([NEG_INF, -700.0, -700.0, NEG_INF, -745.0])]
        for _ in range(1000):
            a = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), size=rng.integers(1, 60))
            a[rng.random(a.size) < 0.3] = NEG_INF
            a[rng.random(a.size) < 0.2] = a.max()
            arrays.append(a)
        for a in arrays:
            assert logsumexp(a) == float(scipy_logsumexp(a))

    def test_order_pmfs_equal_scipy_normalisation_exactly(self):
        for k_max in (0, 1, 5, 32):
            j = np.arange(k_max + 1)
            log_fact = np.array([math.lgamma(v + 1) for v in j])
            for lam in np.exp(np.linspace(-6.0, 5.0, 111)):
                for power, pmf in ((1, truncated_poisson_pmf), (2, accelerated_poisson_pmf)):
                    log_w = j * math.log(lam) - power * log_fact
                    expect = np.exp(log_w - scipy_logsumexp(log_w))
                    np.testing.assert_array_equal(pmf(float(lam), k_max), expect)


class TestSampleLambda:
    def test_truncation_correction_negligible_at_large_cap(self):
        """exp(-lam) * sum_{j<=32} lam^j/j! stays within 1e-6 of 1 at lam=5."""
        tail = sum(5.0 ** j / math.factorial(j) for j in range(33))
        assert abs(math.exp(-5.0) * tail - 1.0) < 1e-6

    def test_always_accepts_when_truncation_negligible(self):
        """At K = 200 the truncation term is below 1e-300, so log r is 0 up to the
        rounding of (lam' - lam) + lam - lam'; every proposal is accepted."""
        rng = rng_stream(74)
        lam = 2.0
        log_z = log_truncated_poisson_normalizer(lam, 200)
        out = ChainOutput()
        for _ in range(300):
            lam, log_ratio, log_z = sample_lambda(lam, log_z, 3, 1.0, 1e-3, 200, rng)
            assert log_ratio >= -1e-14
            assert out.accept("lambda", log_ratio, rng)
            assert log_z == log_truncated_poisson_normalizer(lam, 200)

    def test_conditional_mean_matches_conjugate_form(self):
        """With k pinned at 3 and prior (1, 1e-3), the mean approaches 4/1.001."""
        rng = rng_stream(75)
        lam = 1.0
        log_z = log_truncated_poisson_normalizer(lam, 32)
        draws = []
        for _ in range(20_000):
            proposed, log_ratio, log_z_prop = sample_lambda(lam, log_z, 3, 1.0, 1e-3, 32, rng)
            if mhg_accept(log_ratio, rng):
                lam, log_z = proposed, log_z_prop
            draws.append(lam)
        expect = (1.0 + 3.0) / (1e-3 + 1.0)
        assert np.mean(draws[2000:]) == pytest.approx(expect, abs=0.1)

    def test_log_ratio_matches_independent_identity(self):
        """log r = log pi(lam') - log pi(lam) + log q(lam) - log q(lam'), computed apart
        from the package: pi = Gamma(a, b) * lam^k / (k! Z_K(lam)) with Z_K by
        logsumexp, q = Gamma(a + k, b + 1), on both sides of lam = K + 1."""
        rng = rng_stream(84)

        def log_pi(lam, a, b, k, k_max):
            j = np.arange(k_max + 1)
            log_z = scipy_logsumexp(j * math.log(lam) - [math.lgamma(v + 1) for v in j])
            return (gamma.logpdf(lam, a, scale=1.0 / b) + k * math.log(lam)
                    - math.lgamma(k + 1) - log_z)

        sides = set()
        for _ in range(2000):
            k_max = int(rng.integers(1, 4))
            k = int(rng.integers(0, k_max + 1))
            a, b = math.exp(rng.uniform(-1.0, 2.5)), math.exp(rng.uniform(-5.0, 1.0))
            lam = math.exp(rng.uniform(-3.0, 3.0))
            proposed, log_ratio, log_z = sample_lambda(
                lam, log_truncated_poisson_normalizer(lam, k_max), k, a, b, k_max, rng)
            assert log_z == log_truncated_poisson_normalizer(proposed, k_max)
            q = gamma(a + k, scale=1.0 / (b + 1.0))
            expect = (log_pi(proposed, a, b, k, k_max) - log_pi(lam, a, b, k, k_max)
                      + q.logpdf(lam) - q.logpdf(proposed))
            assert abs(log_ratio - expect) <= 1e-10 * max(1.0, abs(log_ratio)), (
                lam, proposed, a, b, k, k_max, log_ratio, expect)
            sides.add((lam < k_max + 1, proposed < k_max + 1))
        assert sides == {(True, True), (True, False), (False, True), (False, False)}


class TestSampleDelta2:
    def test_reduces_to_prior_at_empty_model(self):
        """k=0: the conditional is the prior; check E[1/d2] = shape/scale tightly
        and the heavy-tailed mean loosely."""
        rng = rng_stream(76)
        posterior = SinusoidPosterior(rng.standard_normal(16), 1.0, 100.0)
        d2 = 100.0
        draws = []
        for _ in range(40_000):
            proposed, log_ratio = sample_delta2(d2, (), posterior, 2.0, 100.0, rng)
            if mhg_accept(log_ratio, rng):
                d2 = proposed
            draws.append(d2)
        draws = np.array(draws[4000:])
        assert np.mean(1.0 / draws) == pytest.approx(2.0 / 100.0, rel=0.05)
        assert 60.0 < np.mean(draws) < 180.0

    def test_conditional_mean_matches_log_grid_quadrature(self):
        """Riemann sum over log-delta2 grid is the oracle for the k=1 conditional."""
        rng = rng_stream(77)
        n = 32
        y = synthesize((0.9,), (12.0,), 10.0, n, rng)
        x = (0.9,)
        shape, scale = 2.0, 100.0

        grid = np.linspace(math.log(1e-3), math.log(1e7), 40_001)
        d2s = np.exp(grid)
        s = _projection_norm2(y, x)
        yty = float(y @ y)
        quads = yty - d2s / (1 + d2s) * s
        log_w = (-(shape + 1) * np.log(d2s) - scale / d2s
                 - 0.5 * n * np.log(quads) - 1.0 * np.log1p(d2s) + grid)
        w = np.exp(log_w - log_w.max())
        oracle_mean = float((d2s * w).sum() / w.sum())

        posterior = SinusoidPosterior(y, 1.0, 50.0, k_max=1)
        d2 = 50.0
        draws = []
        for _ in range(60_000):
            proposed, log_ratio = sample_delta2(d2, x, posterior, shape, scale, rng)
            if mhg_accept(log_ratio, rng):
                d2 = proposed
            draws.append(d2)
        chain_mean = float(np.mean(draws[6000:]))
        assert chain_mean == pytest.approx(oracle_mean, rel=0.1)

    @pytest.mark.parametrize("current, scale, sign", [(1.7e308, 1e308, 1.0),
                                                      (5e-324, 5e-324, -1.0)])
    def test_proposal_outside_positive_reals_rejected_surely(self, current, scale, sign):
        """A log-scale step whose exp overflows, or underflows to 0, has zero
        density: its log ratio is -inf, the one accept step rejects it, and no uniform
        is drawn after the step."""
        posterior = SinusoidPosterior(rng_stream(78).standard_normal(16), 1.0, 100.0)
        seed = next(s for s in range(100) if sign * rng_stream(79, s).standard_normal() > 2.0)
        rng = rng_stream(79, seed)
        proposed, log_ratio = sample_delta2(current, (), posterior, 2.0, scale, rng)
        assert not 0.0 < proposed < math.inf
        assert log_ratio == NEG_INF
        assert ChainOutput().accept("delta2", log_ratio, rng) is False
        reference = rng_stream(79, seed)
        reference.standard_normal()
        assert rng.random() == reference.random()

    def test_log_ratio_matches_independent_identity(self):
        """log r is the difference, between delta2' and delta2, of the IG(shape, scale)
        log pdf + sinusoid_log_target + log delta2, the log-scale Jacobian."""
        rng = rng_stream(85)

        def log_cond(y, x, d2, shape, scale):
            return (invgamma.logpdf(d2, shape, scale=scale)
                    + sinusoid_log_target(y, x, 1.0, d2, 3) + math.log(d2))

        for _ in range(500):
            n = int(rng.choice((16, 32, 64)))
            k = int(rng.integers(0, 4))
            x = tuple(0.3 + 0.8 * j + rng.uniform(0.0, 0.4) for j in range(k))
            y = synthesize(x, (20.0,) * k, rng.uniform(-5.0, 15.0), n, rng) if k else (
                rng.standard_normal(n))
            shape, scale = math.exp(rng.uniform(-1.0, 2.0)), math.exp(rng.uniform(-2.0, 6.0))
            d2 = math.exp(rng.uniform(-4.0, 8.0))
            proposed, log_ratio = sample_delta2(d2, x, SinusoidPosterior(y, 1.0, d2, 3),
                                                shape, scale, rng)
            expect = (log_cond(y, x, proposed, shape, scale)
                      - log_cond(y, x, d2, shape, scale))
            assert math.isfinite(expect)
            assert abs(log_ratio - expect) <= 1e-10 * max(1.0, abs(log_ratio)), (
                d2, proposed, shape, scale, x, log_ratio, expect)


class TestSynthesize:
    def test_infinite_snr_returns_clean_signal(self):
        rng = rng_stream(78)
        omega, amp2 = (0.63, 1.9), (20.0, 5.0)
        y = synthesize(omega, amp2, math.inf, 48, rng)
        amps = np.empty(4)
        amps[0::2] = np.sqrt(np.array(amp2) / 2.0)
        amps[1::2] = np.sqrt(np.array(amp2) / 2.0)
        np.testing.assert_allclose(y, design_matrix(omega, 48) @ amps, atol=1e-14)

    def test_realized_noise_variance_matches_construction(self):
        """Large-sample noise variance approaches |clean|^2/(N 10^(SNR/10))."""
        rng = rng_stream(79)
        n = 16384
        omega, amp2, snr = (0.63,), (20.0,), 7.0
        clean = synthesize(omega, amp2, math.inf, n, rng_stream(79))
        y = synthesize(omega, amp2, snr, n, rng)
        sigma2 = float(clean @ clean) / (n * 10.0 ** (snr / 10.0))
        noise = y - clean
        assert float(noise @ noise) / n == pytest.approx(sigma2, rel=0.05)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            synthesize((0.5, 1.0), (1.0,), 7.0, 32, rng_stream(81))

    # Explicit ids keep each case's name stable: the one pytest derives from amp2-snr_db-n_obs.
    @pytest.mark.parametrize("omega, amp2, snr_db, n_obs", [
        pytest.param((0.63, 0.68), (20.0, 6.32), math.nan, 32, id="amp20-nan-32"),
        pytest.param((0.63, 0.68), (20.0, 6.32), -math.inf, 32, id="amp21--inf-32"),
        pytest.param((0.63, 0.68), (20.0, 6.32), -3200.0, 32, id="amp22--3200.0-32"),
        pytest.param((0.63, 0.68), (20.0, 6.32), -3300.0, 32, id="amp23--3300.0-32"),
        pytest.param((0.63, 0.68), (20.0, 6.32), 3100.0, 32, id="amp24-3100.0-32"),
        pytest.param((0.63, 0.68), (20.0, -6.32), 7.0, 32, id="amp25-7.0-32"),
        pytest.param((0.63, 0.68), (20.0, -6.32), math.inf, 32, id="amp26-inf-32"),
        pytest.param((0.63, 0.68), (20.0, math.inf), 7.0, 32, id="amp27-7.0-32"),
        pytest.param((0.63, 0.68), (20.0, math.nan), 7.0, 32, id="amp28-7.0-32"),
        pytest.param((0.63, 0.68), (20.0, 6.32), 7.0, 0, id="amp29-7.0-0"),
        pytest.param((0.63, 0.68), (20.0, 6.32), 7.0, -3, id="amp210-7.0--3"),
        pytest.param((0.63, 0.68), (20.0, 6.32), 7.0, 64.0, id="amp211-7.0-64.0"),
        pytest.param((0.63, 0.68), (20.0, 6.32), 7.0, 2.5, id="amp212-7.0-2.5"),
        pytest.param((), (), 7.0, 4, id="no-tone"),
        pytest.param((0.63,), (0.0,), 7.0, 4, id="silent-tone"),
        pytest.param((0.63, 0.68), (0.0, 0.0), math.inf, 32, id="silent-tones-clean"),
        pytest.param((math.nan,), (1.0,), math.inf, 4, id="nan-frequency-clean"),
        pytest.param((math.nan,), (1.0,), 7.0, 4, id="nan-frequency"),
        pytest.param((0.63, math.inf), (20.0, 6.32), 7.0, 32, id="inf-frequency"),
        pytest.param((0.63, -math.inf), (20.0, 6.32), math.inf, 32, id="minus-inf-frequency"),
    ])
    def test_unusable_settings_rejected_before_any_draw(self, omega, amp2, snr_db, n_obs):
        """A silent truth (no tone, or zero power) has no noise level to scale, and a
        non-finite frequency gives no signal."""
        rng = rng_stream(83)
        with pytest.raises(ConfigurationError):
            synthesize(omega, amp2, snr_db, n_obs, rng)
        assert rng.random() == rng_stream(83).random()


class TestOrderPmfs:
    def test_truncated_poisson_ratio_telescopes(self):
        log_pmf = np.log(truncated_poisson_pmf(5.0, 32))
        for k in range(10):
            diff = log_pmf[k + 1] - log_pmf[k]
            assert diff == pytest.approx(math.log(5.0 / (k + 1)), abs=1e-12)

    def test_accelerated_ratio_telescopes(self):
        log_pmf = np.log(accelerated_poisson_pmf(5.0, 32))
        for k in range(10):
            diff = log_pmf[k + 1] - log_pmf[k]
            assert diff == pytest.approx(math.log(5.0 / (k + 1) ** 2), abs=1e-12)

    def test_pmfs_normalized(self):
        assert truncated_poisson_pmf(5.0, 32).sum() == pytest.approx(1.0, abs=1e-12)
        assert accelerated_poisson_pmf(5.0, 32).sum() == pytest.approx(1.0, abs=1e-12)

    def test_poisson_modes_tie_at_mean_five(self):
        """pmf(4) = pmf(5) exactly (ratio 5/5); both are modal."""
        pmf = truncated_poisson_pmf(5.0, 32)
        assert pmf[4] == pytest.approx(pmf[5], rel=1e-12)
        assert pmf[4] >= pmf.max() * (1 - 1e-12)

    @pytest.mark.parametrize("pmf", [truncated_poisson_pmf, accelerated_poisson_pmf])
    @pytest.mark.parametrize("lam, k_max", [(5.0, 2.5), (5.0, -1), (0.0, 8), (math.nan, 8)])
    def test_unusable_order_prior_rejected(self, pmf, lam, k_max):
        """A k_max of 2.5 would give a 4-entry law; the pmfs check as the schedule does."""
        with pytest.raises(ConfigurationError):
            pmf(lam, k_max)

    def test_accelerated_mode_at_two(self):
        """Ratios 5/1, 5/4 exceed one and 5/9 falls below: the mode sits at 2."""
        pmf = accelerated_poisson_pmf(5.0, 32)
        assert pmf.argmax() == 2
