"""Sweep driver: validation, reproducibility, prior recovery, hyper sampling."""
import gc
import math
import tracemalloc

import numpy as np
import pytest

from transjump.birthdeath import BirthDeathSchedule, SortedRestriction, bod_move_set
from transjump.core import ConfigurationError, rng_stream, run_chain
from transjump.experiment import run_joint_chain
from transjump.oracle import tv_distance
from transjump.sinusoid import (
    PriorOnlyTarget,
    SinusoidPosterior,
    synthesize,
    truncated_poisson_pmf,
)


class TestValidation:
    def test_exactly_one_lambda_setting(self):
        with pytest.raises(ConfigurationError):
            run_joint_chain(None, n_iter=10, burn_in=0, lam=5.0,
                            lambda_prior=(1.0, 1e-3), delta2=100.0, rng=rng_stream(0))
        with pytest.raises(ConfigurationError):
            run_joint_chain(None, n_iter=10, burn_in=0, delta2=100.0, rng=rng_stream(0))

    def test_burn_in_bounds(self):
        with pytest.raises(ConfigurationError):
            run_joint_chain(None, n_iter=10, burn_in=10, lam=5.0, delta2=100.0,
                            rng=rng_stream(0))

    @pytest.mark.parametrize("change", [
        {"y": [0.5, np.nan, -0.5]},
        {"y": [0.5, np.inf, -0.5]},
        {"y": [0.0, 0.0, 0.0]},
        {"lambda_prior": None, "lam": np.inf},
        {"lambda_prior": None, "lam": np.inf, "y": None},
        {"delta2_prior": None, "delta2": np.inf},
        {"delta2_prior": None, "delta2": np.nan},
        {"delta2_prior": None, "delta2": np.nan, "y": None},
        {"lambda_prior": (np.inf, 1e-3)},
        {"lambda_prior": (1.0, np.nan)},
        {"delta2_prior": (2.0, np.inf)},
        {"delta2_prior": (np.nan, 100.0)},
        {"c": 0.9, "n_iter": 0},
        {"c": 0.0, "n_iter": 0},
        {"ratio_mode": "bogus", "n_iter": 0},
        {"representation": "diagonal", "n_iter": 0},
        {"k_max": 0, "n_iter": 0},
        {"k_max": -1, "y": None},
        {"lambda_prior": None, "lam": 0.0, "y": None, "n_iter": 0},
        {"lambda_prior": None, "lam": np.nan, "y": None, "n_iter": 0},
        # starting values from the priors: lambda underflows to 0, delta2 to 0 or overflows
        {"lambda_prior": (1e-300, 1e300), "y": None},
        {"lambda_prior": (1e-300, 1e300)},
        {"delta2_prior": (1e10, 1e-320)},
        {"delta2_prior": (1.0000000000000002, 1e300)},
        # counts that are not integers, though they would pass the range checks
        {"k_max": 2.5},
        {"k_max": 2.5, "y": None},
        {"k_max": 8.0},
        {"n_iter": 10.5},
        {"n_iter": 10.0},
        {"burn_in": 1.5},
        # a prior that is not a pair: a third entry was ignored, a missing one unpacked badly
        {"lambda_prior": (1.0, 1e-3, 7.0)},
        {"lambda_prior": (1.0, 1e-3, 7.0), "y": None},
        {"delta2_prior": (2.0,)},
        {"delta2_prior": (2.0, 100.0, 5.0)},
        # a prior that is not a sequence of numbers escaped as a TypeError
        {"lambda_prior": 1.0, "delta2_prior": None, "delta2": 100.0, "y": None},
        {"delta2_prior": 100.0, "y": None},
        {"delta2_prior": "12"},
    ])
    def test_settings_the_cli_rejects_are_config_errors(self, change):
        """The library rejects these settings itself, before any sweep or draw."""
        kwargs = dict(y=[0.5, 1.0, -0.5], n_iter=10, burn_in=0,
                      lambda_prior=(1.0, 1e-3), delta2_prior=(2.0, 100.0),
                      rng=rng_stream(0))
        kwargs.update(change)
        rng = kwargs["rng"]
        with pytest.raises(ConfigurationError):
            run_joint_chain(kwargs.pop("y"), **kwargs)
        assert rng.random() == rng_stream(0).random()

    def test_a_list_prior_runs_as_its_tuple(self):
        runs = [run_joint_chain([0.5, 1.0, -0.5], n_iter=50, burn_in=0,
                                lambda_prior=pair([1.0, 1e-3]),
                                delta2_prior=pair([2.0, 100.0]), rng=rng_stream(0))
                for pair in (tuple, list)]
        assert runs[0].records == runs[1].records

    @pytest.mark.parametrize("name, prior", [("lambda_prior", (1e-300, 1e300)),
                                             ("delta2_prior", (1.0000000000000002, 1e300))])
    def test_unusable_start_value_names_its_prior(self, name, prior):
        settings = {"lambda_prior": (1.0, 1e-3), "delta2_prior": (2.0, 100.0), name: prior}
        with pytest.raises(ConfigurationError, match=name):
            run_joint_chain([0.5, 1.0, -0.5], n_iter=10, burn_in=0, rng=rng_stream(0),
                            **settings)


class TestFlatRuns:
    def test_no_observations_is_the_prior_only_chain(self):
        """With y=None a delta2 prior is never sampled and no frequency update is
        proposed; lambda is still sampled every sweep."""
        res = run_joint_chain(None, n_iter=300, burn_in=0, k_max=8, lambda_prior=(1.0, 1e-3),
                              delta2_prior=(2.0, 100.0), rng=rng_stream(1))
        assert "delta2" not in res.proposals and "update" not in res.proposals
        assert res.proposals["lambda"] == 300 and res.proposals["birth"] > 0
        assert set(res.delta2) == {100.0}

    def test_runs_without_observations(self):
        res = run_joint_chain(None, n_iter=200, burn_in=50, k_max=8, lam=3.0,
                              delta2=100.0, rng=rng_stream(1))
        assert len(res.records) == 200
        assert all(r.lam == 3.0 and r.delta2 == 100.0 for r in res.records)
        assert res.config == {"n_iter": 200, "burn_in": 50, "k_max": 8}

    def test_reproducible_given_seed(self):
        runs = [run_joint_chain(None, n_iter=500, burn_in=100, k_max=8, lam=3.0,
                                delta2=100.0, rng=rng_stream(2)) for _ in range(2)]
        assert runs[0].records == runs[1].records
        assert runs[0].proposals == runs[1].proposals

    def test_recovers_truncated_poisson(self):
        """Flat-likelihood corrected chain reproduces the order prior."""
        res = run_joint_chain(None, n_iter=60_000, burn_in=5_000, k_max=16,
                              lam=3.0, delta2=100.0, rng=rng_stream(3))
        assert tv_distance(res.k_frequencies(),
                           truncated_poisson_pmf(3.0, 16)) < 0.05

    @pytest.mark.parametrize("ratio_mode, representation", [
        ("corrected", "unsorted"), ("legacy", "unsorted"), ("corrected", "sorted"),
    ], ids=["corrected", "legacy", "sorted"])
    def test_same_chain_as_core_run_chain(self, ratio_mode, representation):
        """With the data and hyperparameter moves off, a sweep is one step of
        core's birth-or-death mixture: same stream, same records and tallies."""
        joint = run_joint_chain(None, n_iter=3000, burn_in=300, k_max=8, lam=4.0,
                                delta2=100.0, ratio_mode=ratio_mode,
                                representation=representation, rng=rng_stream(9))
        target = PriorOnlyTarget(4.0, 8)
        if representation == "sorted":
            target = SortedRestriction(target)
        sched = BirthDeathSchedule.green(4.0, 8, 0.25, ratio_mode=ratio_mode,
                                         representation=representation)
        plain = run_chain(target, bod_move_set(target, sched), (), 3000, 300, rng_stream(9))

        def key(r):
            return (r.k, r.components, r.log_target, r.move, r.accepted, r.burn_in)

        assert [key(r) for r in joint.records] == [key(r) for r in plain.records]
        assert joint.proposals == plain.proposals
        assert joint.acceptances == plain.acceptances
        assert joint.proposals["none"] > 0
        assert "none" not in joint.acceptances

    def test_frequencies_sum_to_one_and_mean_consistent(self):
        res = run_joint_chain(None, n_iter=2000, burn_in=500, k_max=8, lam=2.0,
                              delta2=50.0, rng=rng_stream(4))
        freqs = res.k_frequencies()
        assert freqs.sum() == pytest.approx(1.0, abs=1e-12)
        kept = [r.k for r in res.records if not r.burn_in]
        assert freqs @ np.arange(9) == pytest.approx(np.mean(kept), rel=1e-12)


class TestJointRuns:
    def test_hyperparameters_evolve_and_are_recorded(self):
        y = synthesize((0.63,), (20.0,), 10.0, 32, rng_stream(5, 0))
        res = run_joint_chain(y, n_iter=800, burn_in=100, k_max=8,
                              lambda_prior=(1.0, 1e-3), delta2_prior=(2.0, 100.0),
                              rng=rng_stream(5, 1))
        lams = {r.lam for r in res.records}
        d2s = {r.delta2 for r in res.records}
        assert len(lams) > 10
        assert len(d2s) > 10
        assert "lambda" in res.proposals and "delta2" in res.proposals
        assert res.proposals["lambda"] == 800

    @pytest.mark.parametrize("delta2_prior", [(2.0, 1e308), (2.0, 5e-324)])
    def test_delta2_proposals_beyond_float_range_are_rejected(self, delta2_prior):
        """Starting at 1e308 or 5e-324, log-scale steps leave the floats; the
        run completes with every delta2 finite and positive."""
        y = synthesize((0.63,), (20.0,), 10.0, 32, rng_stream(10, 0))
        res = run_joint_chain(y, n_iter=300, burn_in=30, k_max=8, lam=1.0,
                              delta2_prior=delta2_prior, rng=rng_stream(10, 1))
        assert len(res.records) == 300
        assert all(0.0 < r.delta2 < math.inf for r in res.records)
        assert 0 < res.acceptances["delta2"] < res.proposals["delta2"] == 300

    def test_move_tallies_track_attempts(self):
        y = synthesize((0.63,), (20.0,), 10.0, 32, rng_stream(6, 0))
        res = run_joint_chain(y, n_iter=2000, burn_in=200, k_max=8, lam=1.0,
                              delta2=100.0, rng=rng_stream(6, 1))
        bod_attempts = res.proposals.get("birth", 0) + res.proposals.get("death", 0)
        assert bod_attempts == sum(r.move in ("birth", "death") for r in res.records)
        for label, n in res.proposals.items():
            assert res.acceptances.get(label, 0) <= n

    def test_sorted_representation_runs(self):
        y = synthesize((0.63,), (20.0,), 10.0, 32, rng_stream(7, 0))
        res = run_joint_chain(y, n_iter=1500, burn_in=200, k_max=8, lam=1.0,
                              delta2=100.0, representation="sorted",
                              rng=rng_stream(7, 1))
        for r in res.records:
            assert tuple(sorted(r.components)) == r.components

    def test_legacy_mode_shifts_left(self):
        """Prior-only: legacy mode must visibly deflate the mean order."""
        kwargs = dict(n_iter=40_000, burn_in=4_000, k_max=16, lam=4.0,
                      delta2=100.0)
        corrected = run_joint_chain(None, ratio_mode="corrected",
                                    rng=rng_stream(8, 0), **kwargs)
        legacy = run_joint_chain(None, ratio_mode="legacy",
                                 rng=rng_stream(8, 1), **kwargs)
        ks = np.arange(17)
        assert legacy.k_frequencies() @ ks < corrected.k_frequencies() @ ks - 0.5

    def test_factorisations_bounded_on_reference_chain(self, monkeypatch):
        """The run keeps one posterior, so a state is factorised once, not every sweep.

        A 1500-sweep chain on the reference signal (lam and delta2 sampled,
        seed 17) made 5056 Cholesky calls when each sweep built a fresh
        posterior and the delta2 update refactorised the current state; with
        the per-run projection-norm memo it makes 2048.  The bound is half
        the former count.
        """
        y = synthesize((0.63, 0.68, 0.73), (20.0, 6.32, 20.0), 7.0, 64, rng_stream(5))
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(1)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        run_joint_chain(y, n_iter=1500, burn_in=300, lambda_prior=(1.0, 1e-3),
                        delta2_prior=(2.0, 100.0), rng=rng_stream(17))
        assert 0 < len(calls) <= 5056 // 2


REFERENCE = ((0.63, 0.68, 0.73), (20.0, 6.32, 20.0), 7.0, 64)


class TestCarriedLogTarget:
    """The sweep carries log f(x) through its kernels instead of evaluating f(x) again."""

    @pytest.mark.parametrize("variant", ["unsorted", "sorted", "flat_likelihood",
                                         "sorted-flat"])
    def test_every_row_holds_a_fresh_evaluation(self, variant):
        """Each row's log_target is a fresh target's value at that row's components,
        lambda and delta2, with both hyperparameters sampled, though the chain
        assigns them to one target in place."""
        y = synthesize(*REFERENCE, rng_stream(5))
        flat = variant in ("flat_likelihood", "sorted-flat")
        representation = "sorted" if variant.startswith("sorted") else "unsorted"
        res = run_joint_chain(None if flat else y, n_iter=600, burn_in=0, k_max=8,
                              lambda_prior=(1.0, 1e-3), delta2_prior=(2.0, 100.0),
                              representation=representation, rng=rng_stream(18))
        for r in res.records:
            base = (PriorOnlyTarget(r.lam, 8) if flat
                    else SinusoidPosterior(y, r.lam, r.delta2, 8))
            target = SortedRestriction(base) if representation == "sorted" else base
            assert r.log_target == target.log_density(r.components)
        assert len({r.k for r in res.records}) > 1
        assert len({r.lam for r in res.records}) > 10
        assert res.acceptances["birth"] > 0 and res.acceptances["death"] > 0
        if not flat:
            assert res.acceptances["update"] > 0 and res.acceptances["delta2"] > 0

    @pytest.mark.parametrize("lambda_prior, delta2_prior", [
        ((1.0, 1e-3), (2.0, 100.0)), ((1.0, 1e-3), None), (None, (2.0, 100.0)), (None, None)],
        ids=["both-sampled", "lambda-sampled", "delta2-sampled", "fixed"])
    def test_target_evaluated_once_per_state(self, monkeypatch, lambda_prior, delta2_prior):
        """log_density runs once at the start, once per sweep when lambda or delta2 is
        sampled, and once per birth, death and frequency-update proposal."""
        y = synthesize(*REFERENCE, rng_stream(5))
        calls = []
        log_density = SinusoidPosterior.log_density

        def counting(self, x):
            calls.append(1)
            return log_density(self, x)

        monkeypatch.setattr(SinusoidPosterior, "log_density", counting)
        n_iter = 800
        res = run_joint_chain(y, n_iter=n_iter, burn_in=0,
                              lam=None if lambda_prior else 3.0, lambda_prior=lambda_prior,
                              delta2=None if delta2_prior else 100.0,
                              delta2_prior=delta2_prior, rng=rng_stream(19))
        sampled = lambda_prior is not None or delta2_prior is not None
        proposals = sum(res.proposals.get(m, 0) for m in ("birth", "death", "update"))
        assert proposals > n_iter
        assert len(calls) == 1 + sampled * n_iter + proposals


class TestBuildOnce:
    @pytest.mark.parametrize("n_iter", [10, 200])
    @pytest.mark.parametrize("variant", ["sampled", "fixed", "sorted", "flat"])
    def test_one_schedule_per_run(self, monkeypatch, variant, n_iter):
        """run_joint_chain constructs one BirthDeathSchedule, the start schedule,
        whatever n_iter is: lambda moves are assigned to it in place."""
        y = synthesize(*REFERENCE, rng_stream(5))
        built = []
        post_init = BirthDeathSchedule.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(BirthDeathSchedule, "__post_init__", counting)
        settings = {
            "sampled": dict(lambda_prior=(1.0, 1e-3), delta2_prior=(2.0, 100.0)),
            "fixed": dict(lam=3.0, delta2=100.0),
            "sorted": dict(lambda_prior=(1.0, 1e-3), delta2_prior=(2.0, 100.0),
                           representation="sorted"),
            "flat": dict(lambda_prior=(1.0, 1e-3), delta2=100.0),
        }[variant]
        res = run_joint_chain(None if variant == "flat" else y, n_iter=n_iter, burn_in=0,
                              k_max=8, rng=rng_stream(20), **settings)
        assert len(res.k) == n_iter
        assert len(built) == 1


class TestRetainedMemory:
    @staticmethod
    def retained_per_record(run, n: int) -> float:
        """Bytes per record that deleting a run's result frees, by tracemalloc.

        A short run first settles one-time allocations; collections empty the
        free lists, so what the result held returns to the allocator.
        """
        run(50)
        tracemalloc.start()
        try:
            result = run(n)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del result
            gc.collect()
            return (held - tracemalloc.get_traced_memory()[0]) / n
        finally:
            tracemalloc.stop()

    def test_prior_only_run_chain_retains_under_100_bytes_per_record(self):
        """lambda = 5 keeps ~5 components, 40 B, in a row of ~74 B."""
        target = PriorOnlyTarget(5.0, 32)
        moves = bod_move_set(target, BirthDeathSchedule.green(5.0, 32, 0.25))
        per_record = self.retained_per_record(lambda n: run_chain(
            target, moves, (), n, n // 10, rng_stream(0, 1)), 4000)
        assert 0 < per_record < 100

    def test_sampled_hyperparameter_sweeps_retain_under_100_bytes_per_record(self):
        y = synthesize((0.63, 0.68, 0.73), (20.0, 6.32, 20.0), 7.0, 64, rng_stream(0))
        per_record = self.retained_per_record(lambda n: run_joint_chain(
            y, n_iter=n, burn_in=n // 10, lambda_prior=(1.0, 1e-3),
            delta2_prior=(2.0, 100.0), rng=rng_stream(0, 2)), 300)
        assert 0 < per_record < 100
