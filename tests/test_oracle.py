"""Exact transition-matrix oracles, quadrature and distance utilities."""
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from transjump import birthdeath, oracle
from transjump.birthdeath import uniform_component_proposal
from transjump.core import BrokenKernelError, ConfigurationError, rng_stream
from transjump.oracle import (
    DiscreteToySpec,
    _frequency_partition,
    build_transition_matrix,
    detailed_balance_residual,
    enumerate_states,
    normalized_target_vector,
    quadrature_posterior_k,
    random_toy_spec,
    stationary_distribution,
    tv_distance,
)
from transjump.sinusoid import sinusoid_log_target, synthesize


def toy(m=3, k_max=2, seed=90, representation="unsorted"):
    return random_toy_spec(rng_stream(seed), m=m, k_max=k_max,
                           representation=representation)


class TestEnumerateStates:
    def test_counts_small(self):
        assert len(enumerate_states(toy(m=3, k_max=1))) == 4
        assert len(enumerate_states(toy(m=3, k_max=2))) == 10
        assert len(enumerate_states(toy(m=4, k_max=3))) == 41

    def test_sorted_representation_counts_combinations(self):
        assert len(enumerate_states(toy(m=3, k_max=2, representation="sorted"))) == 7

    def test_empty_state_first_and_order_deterministic(self):
        spec = toy()
        states = enumerate_states(spec)
        assert states[0] == ()
        assert states == enumerate_states(spec)

    def test_state_space_cap(self):
        spec = toy(m=3, k_max=2)
        spec.points = tuple(np.linspace(0.1, 3.0, 12))
        spec.q = tuple([1 / 12] * 12)
        spec.k_max = 4
        with pytest.raises(ConfigurationError):
            enumerate_states(spec)

    def test_sorted_cap_counts_combinations(self):
        """12 points to k_max = 4 give 794 sorted states, under the cap that the
        13345 unsorted arrangements exceed."""
        spec = toy(m=3, k_max=2, representation="sorted")
        spec.points = tuple(np.linspace(0.1, 3.0, 12))
        spec.q = tuple([1 / 12] * 12)
        spec.k_max = 4
        assert len(enumerate_states(spec)) == 794


class TestBuildTransitionMatrix:
    def test_single_state_space(self):
        spec = DiscreteToySpec(points=(1.0,), k_max=0, weights={(): 1.0},
                               q=(1.0,), lam=1.0, c=0.25)
        np.testing.assert_array_equal(build_transition_matrix(spec), [[1.0]])

    def test_rows_are_stochastic(self):
        for mode in ("corrected", "legacy"):
            matrix = build_transition_matrix(toy(), mode)
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_state_row_structure(self):
        """From (0, empty) only births and holding are possible."""
        spec = toy(m=3)
        matrix = build_transition_matrix(spec)
        row = matrix[0]
        assert np.count_nonzero(row) <= len(spec.points) + 1
        states = enumerate_states(spec)
        for j in np.nonzero(row)[0]:
            assert len(states[j]) <= 1

    def test_detailed_balance_corrected(self):
        """Cell-by-cell flow balance against the normalized target."""
        spec = toy(seed=91)
        matrix = build_transition_matrix(spec, "corrected")
        pi = normalized_target_vector(spec)
        assert detailed_balance_residual(matrix, pi) < 1e-12

    def test_detailed_balance_violated_in_legacy(self):
        """Legacy mode must break balance somewhere once k can reach 2."""
        spec = toy(seed=92)
        matrix = build_transition_matrix(spec, "legacy")
        pi = normalized_target_vector(spec)
        assert detailed_balance_residual(matrix, pi) > 1e-6

    def test_stationary_matches_target_corrected(self):
        for seed in (93, 94, 95):
            spec = toy(m=3 + seed % 2, seed=seed)
            matrix = build_transition_matrix(spec, "corrected")
            pi_hat = stationary_distribution(matrix)
            assert tv_distance(pi_hat, normalized_target_vector(spec)) < 1e-10

    def test_stationary_matches_reweighted_target_legacy(self):
        """The legacy chain's exact fixed point is the k!-reweighted target."""
        for seed in (96, 97):
            spec = toy(seed=seed)
            matrix = build_transition_matrix(spec, "legacy")
            pi_hat = stationary_distribution(matrix)
            assert tv_distance(pi_hat, normalized_target_vector(spec, legacy=True)) < 1e-10

    def test_sorted_toy_stationarity(self):
        for seed in (98, 99):
            spec = toy(seed=seed, representation="sorted")
            matrix = build_transition_matrix(spec, "corrected")
            pi_hat = stationary_distribution(matrix)
            assert tv_distance(pi_hat, normalized_target_vector(spec)) < 1e-10

    def test_duplicate_proposals_auto_rejected(self):
        """Births proposing an existing label produce zero density, never a move."""
        spec = toy(seed=100)
        dup = (spec.points[0], spec.points[0])
        assert spec.log_density(dup) == float("-inf")

    def test_birth_that_never_draws_the_last_slot_breaks_stationarity(self, monkeypatch):
        """The rows run the kernels' own slot draw, so a birth slot drawn from
        [0, max(1, k)) in place of [0, k] fails every toy's 1e-10 bound."""
        def never_last_slot(x, log_fx, sched, target, rng):
            s_star, log_q = birthdeath._draw_component(sched.proposal, rng)
            i = int(rng.integers(0, max(1, len(x))))
            proposed = x[:i] + (s_star,) + x[i:]
            return (proposed,
                    *birthdeath.move_log_ratio(x, log_fx, proposed, log_q, sched, target))

        monkeypatch.setattr(birthdeath, "birth_propose_unsorted", never_last_slot)
        tvs = []
        for seed in range(10):
            spec = random_toy_spec(rng_stream(seed), m=4, k_max=3)
            pi_hat = stationary_distribution(build_transition_matrix(spec))
            tvs.append(tv_distance(pi_hat, normalized_target_vector(spec)))
        assert min(tvs) > 1e-10 and max(tvs) > 0.1

    def test_nan_ratio_is_hard_error(self, monkeypatch):
        """A NaN ratio never becomes an acceptance, as in the chain's accept step."""
        monkeypatch.setattr(birthdeath, "death_propose",
                            lambda x, log_fx, sched, target, rng: (x[1:], math.nan, log_fx))
        with pytest.raises(BrokenKernelError, match="NaN death ratio"):
            build_transition_matrix(toy())

    def test_continuous_draw_is_hard_error(self, monkeypatch):
        """A toy cannot list the outcomes of a continuous draw, so it raises
        rather than guess: here q is uniform on (0, pi)."""
        spec = toy()
        monkeypatch.setattr(oracle, "pmf_component_proposal",
                            lambda points, q: uniform_component_proposal())
        with pytest.raises(BrokenKernelError, match=r"rng\.random"):
            build_transition_matrix(spec)


class TestChainAgainstExactLaw:
    def test_long_chain_k_marginal_matches_exact_stationary_law(self):
        """1e6 sampled iterations against the transition-matrix fixed point."""
        from transjump.birthdeath import bod_move_set
        from transjump.core import run_chain

        spec = toy(seed=106)
        out = run_chain(spec, bod_move_set(spec, spec.schedule()), (), 1_000_000, 0,
                        rng_stream(107))
        states = enumerate_states(spec)
        pi = stationary_distribution(build_transition_matrix(spec))
        k_exact = np.zeros(spec.k_max + 1)
        for s, p in zip(states, pi):
            k_exact[len(s)] += p
        assert tv_distance(out.k_frequencies(spec.k_max), k_exact) < 0.01

    def test_target_invariant_under_exact_kernel(self):
        """pi P = pi entrywise to 1e-10 when pi is the normalized target."""
        for seed in (108, 109):
            spec = toy(seed=seed)
            matrix = build_transition_matrix(spec, "corrected")
            pi = normalized_target_vector(spec)
            assert float(np.abs(pi @ matrix - pi).max()) < 1e-10


class TestStationaryDistribution:
    def test_identity_single_state(self):
        np.testing.assert_array_equal(stationary_distribution(np.eye(1)), [1.0])

    def test_symmetric_two_state(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(stationary_distribution(p), [0.5, 0.5], atol=1e-12)

    def test_nonuniform_two_state(self):
        p = np.array([[0.9, 0.1], [0.3, 0.7]])
        pi = stationary_distribution(p)
        np.testing.assert_allclose(pi, [0.75, 0.25], atol=1e-11)

    def test_nonconvergence_raises(self):
        """A reducible chain has no unique fixed point: two absorbing states,
        and two closed classes of one and two states."""
        with pytest.raises(RuntimeError):
            stationary_distribution(np.eye(2))
        p = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        with pytest.raises(RuntimeError):
            stationary_distribution(p)

    def test_transient_first_state(self):
        """A zero-weight empty state is transient: π there is exactly 0, and the
        rest is the normalised target, though the reduction cannot start from it."""
        points = (0.4, 1.6, 2.8)
        weights = {t: 1.0 for k in (1, 2) for t in itertools.permutations(points, k)}
        spec = DiscreteToySpec(points, 2, {(): 0.0, **weights}, (1 / 3,) * 3)
        pi = stationary_distribution(build_transition_matrix(spec, "corrected"))
        assert pi[0] == 0.0
        np.testing.assert_allclose(pi, normalized_target_vector(spec), rtol=0, atol=1e-14)

    def test_near_reducible_two_state(self):
        """A spectral gap of 3e-9: the reduction still reaches the exact law."""
        p = np.array([[1 - 1e-9, 1e-9], [2e-9, 1 - 2e-9]])
        np.testing.assert_allclose(stationary_distribution(p), [2 / 3, 1 / 3],
                                   rtol=1e-14)

    def test_dense_random_matrix_against_linear_solve(self):
        rng = rng_stream(110)
        p = rng.uniform(0.0, 1.0, size=(17, 17))
        p /= p.sum(axis=1, keepdims=True)
        pi = stationary_distribution(p)
        assert float(np.abs(pi @ p - pi).max()) < 1e-15
        # pi (I - P) = 0 with the last equation replaced by sum(pi) = 1.
        system = (np.eye(17) - p).T
        system[-1] = 1.0
        rhs = np.zeros(17)
        rhs[-1] = 1.0
        np.testing.assert_allclose(pi, np.linalg.solve(system, rhs), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("bad", [
        np.array([0.5, 0.5]),
        np.ones((2, 3)) / 3,
        np.ones((1, 2, 2)) / 2,
        np.empty((0, 0)),
        np.array([[np.nan, 0.5], [0.5, 0.5]]),
        np.array([[np.inf, 0.5], [0.5, 0.5]]),
        np.array([[1.5, -0.5], [0.5, 0.5]]),
        np.array([[0.5, 0.5 + 1e-11], [0.5, 0.5]]),
    ], ids=["1d", "not-square", "3d", "empty", "nan", "inf", "negative", "row-sum"])
    def test_malformed_matrix_rejected(self, bad):
        with pytest.raises(ValueError):
            stationary_distribution(bad)

    def test_row_sum_within_guard_accepted(self):
        p = np.array([[0.9, 0.1 + 5e-13], [0.3, 0.7]])
        np.testing.assert_allclose(stationary_distribution(p), [0.75, 0.25], atol=1e-11)

    def test_toy_laws_at_rounding_level(self):
        """Corrected, legacy and sorted toys against their closed-form laws."""
        cases = [(toy(seed=93), "corrected", False),
                 (toy(seed=96), "legacy", True),
                 (toy(seed=98, representation="sorted"), "corrected", False)]
        for spec, mode, legacy in cases:
            pi_hat = stationary_distribution(build_transition_matrix(spec, mode))
            assert tv_distance(pi_hat, normalized_target_vector(spec, legacy=legacy)) < 1e-14


class TestQuadraturePosterior:
    def test_pmf_normalized(self):
        y = rng_stream(101).standard_normal(16)
        pmf = quadrature_posterior_k(y, 10.0, 1.0, 2, grid_size=120)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf.shape == (3,)

    def test_prior_dominance_concentrates_on_empty_model(self):
        """Pure noise with a vanishing order mean puts all mass at k=0."""
        y = rng_stream(102).standard_normal(16)
        pmf = quadrature_posterior_k(y, 10.0, 1e-8, 2, grid_size=120)
        assert pmf[0] > 0.99

    def test_strong_tone_detected(self):
        y = synthesize((0.63,), (20.0,), 20.0, 32, rng_stream(103))
        pmf = quadrature_posterior_k(y, 100.0, 1.0, 2, grid_size=200)
        assert pmf[1] > 0.9

    def test_matches_plain_midpoint_grid_on_smooth_problem(self):
        """At low SNR the density is wide, so the peak-resolving partition and a
        plain midpoint rule must agree; this pins the partition's correctness."""
        y = synthesize((1.2,), (4.0,), 0.0, 16, rng_stream(104))
        pmf = quadrature_posterior_k(y, 5.0, 1.0, 2, grid_size=200)

        from scipy.special import logsumexp
        g = 200
        mids = (np.arange(g) + 0.5) * math.pi / g
        cell = math.log(math.pi / g)
        lm = [sinusoid_log_target(y, (), 1.0, 5.0, 2)]
        vals = [sinusoid_log_target(y, (w,), 1.0, 5.0, 2) for w in mids]
        lm.append(logsumexp(vals) + cell)
        vals2 = [sinusoid_log_target(y, (w1, w2), 1.0, 5.0, 2)
                 for w1 in mids for w2 in mids]
        lm.append(logsumexp(vals2) + 2 * cell)
        ref = np.exp(np.array(lm) - max(lm))
        ref /= ref.sum()
        np.testing.assert_allclose(pmf, ref, atol=2e-3)

    def test_grid_insensitivity_near_sharp_peak(self):
        """Doubling the budget moves no entry by more than 1e-3, regardless of
        how the tone aligns with the grid."""
        for tone in (0.6233, 0.65):
            y = synthesize((tone,), (20.0,), 20.0, 32, rng_stream(105))
            p1 = quadrature_posterior_k(y, 100.0, 1.0, 2, grid_size=200)
            p2 = quadrature_posterior_k(y, 100.0, 1.0, 2, grid_size=400)
            assert np.abs(p1 - p2).max() < 1e-3

    def test_preconditions(self, monkeypatch):
        """Bad orders, grids, hyperparameters and signals raise ConfigurationError
        before any density is evaluated; y is checked as SinusoidPosterior checks it.
        An order or grid size that is not an integer is bad too."""
        def evaluated(*args, **kwargs):
            raise AssertionError("density evaluated")
        for name in ("sinusoid_log_target", "sinusoid_log_targets", "FrequencyGrid"):
            monkeypatch.setattr(f"transjump.oracle.{name}", evaluated)
        y = np.ones(8)
        cases = [(y, 10.0, 1.0, 3, 200), (y, 10.0, 1.0, 2, 50), (y, 100.0, 1.0, -1, 200),
                 (y, 100.0, 1.0, 1.5, 200), (y, 100.0, 1.0, 2, 200.0),
                 (y, 10.0, math.nan, 2, 200), (y, math.nan, 1.0, 2, 200),
                 (y, -0.5, 1.0, 2, 200), (y, -1.0, 1.0, 2, 200),
                 (y, 10.0, 0.0, 2, 200), (y, 10.0, -1.0, 2, 200),
                 (y, 10.0, math.inf, 2, 200), (y, math.inf, 1.0, 2, 200),
                 (y, "10", 1.0, 2, 200), (y, 10.0, "1", 2, 200),
                 (np.zeros(8), 10.0, 1.0, 2, 200), (np.zeros(0), 10.0, 1.0, 2, 200),
                 (np.ones((2, 8)), 10.0, 1.0, 2, 200)]
        for bad in (math.nan, math.inf, -math.inf):
            y_bad = np.ones(8)
            y_bad[3] = bad
            cases.append((y_bad, 10.0, 1.0, 2, 200))
        for args in cases:
            with pytest.raises(ConfigurationError):
                quadrature_posterior_k(*args)
        assert issubclass(ConfigurationError, ValueError)

    def test_partition_size_and_evaluation_count(self, monkeypatch):
        """The partition holds grid_size // 2 - 5 coarse cells plus 5 refined
        blocks; a call evaluates 1 + grid_size // 2 + G + G(G - 1)/2 densities."""
        y = synthesize((0.63,), (20.0,), 20.0, 32, rng_stream(1, 0))
        for grid_size, g in ((120, 115), (200, 195), (400, 395)):
            points, log_widths = _frequency_partition(y, 1.0, 100.0, 2, grid_size)
            assert len(points) == len(log_widths) == g
        cells = []
        targets = oracle.sinusoid_log_targets
        monkeypatch.setattr(oracle, "sinusoid_log_target",
                            lambda *a, **kw: cells.append(1) or sinusoid_log_target(*a, **kw))
        monkeypatch.setattr(oracle, "sinusoid_log_targets",
                            lambda y, omegas, *a: cells.append(len(omegas)) or targets(y, omegas, *a))
        quadrature_posterior_k(y, 100.0, 1.0, 2, 200)
        assert sum(cells) == 1 + 100 + 195 + 195 * 194 // 2 == 19211

    def test_memory_stays_per_grid_row(self):
        """Order-2 pairs go in batches of at most 2048: a batch's gathered
        Gram stack holds 0.26 MB and its factors as much again, where one
        stack of every pair would hold ~2.4 MB each.  The grid's 390 x 390
        Gram table holds 1.2 MB; a call peaked at 2.5 MB."""
        y = synthesize((0.63,), (20.0,), 20.0, 32, rng_stream(1, 0))
        tracemalloc.start()
        try:
            quadrature_posterior_k(y, 100.0, 1.0, 2, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestDistances:
    def test_tv_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert tv_distance(p, p) == 0.0

    def test_tv_disjoint_is_one(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_tv_length_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance([1.0], [0.5, 0.5])


class TestToySpecValidation:
    def test_weights_must_not_vanish(self):
        with pytest.raises(ConfigurationError):
            DiscreteToySpec(points=(1.0, 2.0), k_max=1,
                            weights={(): 0.0, (1.0,): 0.0, (2.0,): 0.0},
                            q=(0.5, 0.5))

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_weights_must_be_finite_and_nonnegative(self, bad):
        """A negative weight would give the exact law a negative entry at a state where
        the toy target is -inf and the chain's law 0; a NaN or inf one makes it NaN."""
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            DiscreteToySpec(points=(0.5, 1.5), k_max=1,
                            weights={(): 1.0, (0.5,): bad, (1.5,): 2.0}, q=(0.5, 0.5))

    @pytest.mark.parametrize("change", [{"k_max": 2.5}, {"k_max": -1}, {"lam": 0.0},
                                        {"c": 0.75}, {"representation": "diagonal"},
                                        {"points": (1.0, 1.0)}, {"q": (math.nan, 0.5)}])
    def test_schedule_settings_checked_at_construction(self, change):
        """A toy reaches the schedule's own checks before any state is listed;
        unchecked, k_max = 2.5 fails in enumerate_states and -1 builds a 1 x 1 matrix.
        The points and q are checked by the pmf proposal the schedule builds."""
        settings = dict(points=(1.0, 2.0), k_max=1, weights={(): 1.0}, q=(0.5, 0.5))
        with pytest.raises(ConfigurationError):
            DiscreteToySpec(**{**settings, **change})

    def test_q_length_checked(self):
        with pytest.raises(ConfigurationError):
            DiscreteToySpec(points=(1.0, 2.0), k_max=1, weights={(): 1.0},
                            q=(1.0,))

    def test_q_must_be_a_pmf(self):
        """build_transition_matrix reads q raw, so a q three times a pmf would fail its
        row check as a broken kernel; the spec rejects it, naming q.  A q off 1 by
        less than the row tolerance passes."""
        spec = toy()
        with pytest.raises(ConfigurationError, match="q sums to"):
            replace(spec, q=tuple(3.0 * v for v in spec.q))
        near = (spec.q[0] + 5e-13,) + spec.q[1:]
        n = len(enumerate_states(spec))
        assert build_transition_matrix(replace(spec, q=near)).shape == (n, n)
