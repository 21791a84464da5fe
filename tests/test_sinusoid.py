"""Sinusoid target math, hyperparameter moves, signal synthesis, order pmfs."""
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from transjump.core import BrokenKernelError, ConfigurationError, VarDimState, rng_stream
from transjump.sinusoid import (
    POSTERIOR_CACHE_SIZE,
    PriorOnlyTarget,
    SingularDesignError,
    SinusoidPosterior,
    accelerated_poisson_pmf,
    design_matrix,
    frequency_update_move,
    log_truncated_poisson_normalizer,
    quad_form,
    sample_delta2,
    sample_lambda,
    sinusoid_log_target,
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
            try:
                q = quad_form(y, omega, delta2)
            except SingularDesignError:
                continue
            assert q >= float(y @ y) / (1 + delta2) * (1 - 1e-9)

    def test_duplicate_frequencies_signal_singular(self):
        y = rng_stream(64).standard_normal(16)
        for omega in ((0.8, 0.8), CHOLESKY_FAILS):
            with pytest.raises(SingularDesignError):
                quad_form(y, omega, 10.0)


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
        with pytest.raises(SingularDesignError):
            quad_form(y, INACCURATE_PROJECTION, 100.0)
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
                const + prior.log_density(VarDimState(omega)), rel=1e-12)

    def test_posterior_class_memo_consistent(self):
        rng = rng_stream(68)
        model = SinusoidPosterior(rng.standard_normal(16), 2.0, 25.0, k_max=4)
        x = VarDimState((0.9, 1.7))
        first = model.log_density(x)
        assert model.log_density(x) == first
        assert model.log_density(VarDimState((0.9, 1.7))) == first
        assert first == sinusoid_log_target(model.y, x.components, 2.0, 25.0, 4)

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
            model.set_hyperparameters(lam, delta2)
            for order in (states, states[::-1]):
                for omega in order:
                    fresh = sinusoid_log_target(y, omega, lam, delta2, 8)
                    assert model.log_density(VarDimState(omega)) == fresh
            for omega in (CHOLESKY_FAILS, INACCURATE_PROJECTION):
                singular = model.log_density(VarDimState(omega)) == NEG_INF
                assert singular == (delta2 != 0.0)

    def test_memos_stay_bounded(self):
        model = SinusoidPosterior(rng_stream(68).standard_normal(16), 2.0, 25.0, k_max=4)
        for w in np.linspace(0.1, 3.0, 3 * POSTERIOR_CACHE_SIZE):
            model.log_density(VarDimState((float(w),)))
        assert len(model._norms) == POSTERIOR_CACHE_SIZE
        assert len(model._densities) == POSTERIOR_CACHE_SIZE

    def test_states_outside_support_are_not_factorised(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
        model = SinusoidPosterior(rng_stream(68).standard_normal(16), 2.0, 25.0, k_max=2)
        outside = [(3.5,), (0.0, 1.0), (0.5, -0.2), (0.5, 1.0, 1.5)]
        for omega in outside:
            assert model.log_density(VarDimState(omega)) == NEG_INF
        assert calls == [] and model._norms == {}
        model.log_density(VarDimState((0.9,)))
        assert calls == [1] and list(model._norms) == [(0.9,)]


class TestPriorOnlyTarget:
    def test_values_and_support(self):
        t = PriorOnlyTarget(5.0, 3)
        assert t.log_density(VarDimState()) == 0.0
        assert t.log_density(VarDimState((1.0,))) == pytest.approx(
            math.log(5.0) - math.log(math.pi))
        assert t.log_density(VarDimState((1.0, 3.5))) == NEG_INF
        assert t.log_density(VarDimState((0.1, 0.2, 0.3, 0.4))) == NEG_INF


class TestFrequencyUpdateMove:
    def test_out_of_domain_proposal_rejected_surely(self):
        target = PriorOnlyTarget(1.0, 4)
        x = VarDimState((1e-9,))
        rng = rng_stream(69)
        outs = [frequency_update_move(x, target, rng, walk_sd=1.0)
                for _ in range(200)]
        assert any(o.log_ratio == NEG_INF for o in outs)
        assert all(o.log_ratio == NEG_INF or o.proposed.k == 1 for o in outs)

    def test_walk_branch_ratio_is_target_difference(self):
        rng = rng_stream(70)
        model = SinusoidPosterior(rng.standard_normal(24), 2.0, 40.0, k_max=4)
        x = VarDimState((0.8, 1.9))
        for _ in range(50):
            out = frequency_update_move(x, model, rng, walk_sd=0.05)
            if out.log_ratio == NEG_INF:
                continue
            expect = model.log_density(out.proposed) - model.log_density(x)
            assert out.log_ratio == pytest.approx(expect, abs=1e-12)

    def test_never_changes_order(self):
        rng = rng_stream(71)
        target = PriorOnlyTarget(1.0, 4)
        x = VarDimState((0.5, 1.5, 2.5))
        for _ in range(100):
            assert frequency_update_move(x, target, rng, 0.1).proposed.k == 3

    def test_requires_components(self):
        with pytest.raises(BrokenKernelError):
            frequency_update_move(VarDimState(), PriorOnlyTarget(1.0, 4),
                                  rng_stream(72), 0.1)

    def test_concentrates_on_strong_tone(self):
        """Fixed-k chain localises within 2pi/N of the grid-scan peak."""
        rng = rng_stream(73)
        n = 64
        y = synthesize((1.1,), (20.0,), 20.0, n, rng)
        model = SinusoidPosterior(y, 1.0, 100.0, k_max=1)
        grid = np.linspace(1e-3, math.pi - 1e-3, 20001)
        scan = [sinusoid_log_target(y, (w,), 1.0, 100.0, 1) for w in grid]
        peak = grid[int(np.argmax(scan))]

        x = VarDimState((peak + 0.3,))
        from transjump.core import mhg_accept
        samples = []
        for i in range(6000):
            out = frequency_update_move(x, model, rng, walk_sd=0.25 / n)
            if mhg_accept(out.log_ratio, rng):
                x = out.proposed
            if i >= 1000:
                samples.append(x.components[0])
        samples = np.array(samples)
        within = np.abs(samples - peak) < 2 * math.pi / n
        assert within.mean() > 0.9


class TestLambdaNormalizer:
    def test_equals_scipy_logsumexp_exactly(self):
        """Bit-for-bit against scipy over lam in e^[-12, 8] and eight truncations."""
        for k_max in (1, 2, 3, 8, 16, 32, 64, 100):
            j = np.arange(k_max + 1)
            log_fact = np.array([math.lgamma(v + 1) for v in j])
            for lam in np.exp(np.linspace(-12.0, 8.0, 2001)):
                expect = float(logsumexp(j * math.log(lam) - log_fact))
                assert log_truncated_poisson_normalizer(float(lam), k_max) == expect

    def test_order_pmfs_equal_scipy_normalisation_exactly(self):
        for k_max in (0, 1, 5, 32):
            j = np.arange(k_max + 1)
            log_fact = np.array([math.lgamma(v + 1) for v in j])
            for lam in np.exp(np.linspace(-6.0, 5.0, 111)):
                for power, pmf in ((1, truncated_poisson_pmf), (2, accelerated_poisson_pmf)):
                    log_w = j * math.log(lam) - power * log_fact
                    expect = np.exp(log_w - logsumexp(log_w))
                    np.testing.assert_array_equal(pmf(float(lam), k_max), expect)


class TestSampleLambda:
    def test_truncation_correction_negligible_at_large_cap(self):
        """exp(-lam) * sum_{j<=32} lam^j/j! stays within 1e-6 of 1 at lam=5."""
        tail = sum(5.0 ** j / math.factorial(j) for j in range(33))
        assert abs(math.exp(-5.0) * tail - 1.0) < 1e-6

    def test_always_accepts_when_truncation_negligible(self):
        rng = rng_stream(74)
        lam = 2.0
        log_z = log_truncated_poisson_normalizer(lam, 200)
        for _ in range(300):
            lam, log_z, accepted = sample_lambda(lam, log_z, 3, 1.0, 1e-3, 200, rng)
            assert accepted
            assert log_z == log_truncated_poisson_normalizer(lam, 200)

    def test_conditional_mean_matches_conjugate_form(self):
        """With k pinned at 3 and prior (1, 1e-3), the mean approaches 4/1.001."""
        rng = rng_stream(75)
        lam = 1.0
        log_z = log_truncated_poisson_normalizer(lam, 32)
        draws = []
        for _ in range(20_000):
            lam, log_z, _ = sample_lambda(lam, log_z, 3, 1.0, 1e-3, 32, rng)
            draws.append(lam)
        expect = (1.0 + 3.0) / (1e-3 + 1.0)
        assert np.mean(draws[2000:]) == pytest.approx(expect, abs=0.1)


class TestSampleDelta2:
    def test_reduces_to_prior_at_empty_model(self):
        """k=0: the conditional is the prior; check E[1/d2] = shape/scale tightly
        and the heavy-tailed mean loosely."""
        rng = rng_stream(76)
        posterior = SinusoidPosterior(rng.standard_normal(16), 1.0, 100.0)
        d2 = 100.0
        draws = []
        for _ in range(40_000):
            d2, _ = sample_delta2(d2, VarDimState(), posterior, 2.0, 100.0, rng)
            draws.append(d2)
        draws = np.array(draws[4000:])
        assert np.mean(1.0 / draws) == pytest.approx(2.0 / 100.0, rel=0.05)
        assert 60.0 < np.mean(draws) < 180.0

    def test_conditional_mean_matches_log_grid_quadrature(self):
        """Riemann sum over log-delta2 grid is the oracle for the k=1 conditional."""
        rng = rng_stream(77)
        n = 32
        y = synthesize((0.9,), (12.0,), 10.0, n, rng)
        x = VarDimState((0.9,))
        shape, scale = 2.0, 100.0

        grid = np.linspace(math.log(1e-3), math.log(1e7), 40_001)
        d2s = np.exp(grid)
        from transjump.sinusoid import _projection_norm2
        s = _projection_norm2(y, x.components)
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
            d2, _ = sample_delta2(d2, x, posterior, shape, scale, rng)
            draws.append(d2)
        chain_mean = float(np.mean(draws[6000:]))
        assert chain_mean == pytest.approx(oracle_mean, rel=0.1)


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

    def test_accelerated_mode_at_two(self):
        """Ratios 5/1, 5/4 exceed one and 5/9 falls below: the mode sits at 2."""
        pmf = accelerated_poisson_pmf(5.0, 32)
        assert pmf.argmax() == 2
