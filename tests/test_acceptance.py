"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
and residuals as they complete.  Criteria and tolerances are fixed here; sizes
are the full verification sizes, so this module takes several minutes.
"""
import time

import numpy as np

from transjump.cli import parse_config, replicate
from transjump.validation import (
    DEFAULT_SEED,
    CheckResult,
    prior_only,
    quadrature,
    ratio_cancellation,
    sorted_equivalence,
    toy_stationarity,
)


def report(number: int, title: str, checks, elapsed: float, limit: float) -> None:
    ok = all(c.passed for c in checks) and elapsed < limit
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {status}: {title} [{elapsed:.1f}s / limit {limit:.0f}s]")
    for c in checks:
        print(f"    {c.line()}")
    if elapsed >= limit:
        print(f"    FAIL  runtime {elapsed:.1f}s exceeded the {limit:.0f}s budget")


class TestAcceptance:
    def test_criterion_1_toy_stationarity(self):
        """Exact stationarity and detailed balance on 20 randomized toys."""
        t0 = time.time()
        checks = toy_stationarity(n_specs=20)
        elapsed = time.time() - t0
        report(1, "exact toy stationarity and detailed balance", checks, elapsed, 5.0)
        assert all(c.passed for c in checks)
        assert elapsed < 5.0

    def test_criterion_2_ratio_cancellation(self):
        """Birth ratio equals its closed form over 1000 random configurations."""
        t0 = time.time()
        checks = ratio_cancellation()
        elapsed = time.time() - t0
        report(2, "acceptance-ratio cancellation identity", checks, elapsed, 10.0)
        assert all(c.passed for c in checks)
        assert elapsed < 10.0

    def test_criterion_3_accelerated_poisson_diagnosis(self):
        """Prior-only chains: corrected hits the Poisson, legacy the squared-factorial law."""
        t0 = time.time()
        checks = prior_only()
        elapsed = time.time() - t0
        report(3, "prior-only order law, corrected vs legacy", checks, elapsed, 60.0)
        assert all(c.passed for c in checks)
        assert elapsed < 60.0

    def test_criterion_4_quadrature_cross_check(self):
        """500k-sweep run_joint_chain against direct quadrature on a single-tone signal."""
        t0 = time.time()
        checks = quadrature()
        elapsed = time.time() - t0
        report(4, "chain vs quadrature posterior", checks, elapsed, 120.0)
        assert all(c.passed for c in checks)
        assert elapsed < 120.0

    def test_criterion_5_replication_trend(self, tmp_path):
        """Desk-scale replication study: legacy deflates E[k]; corrected finds k=3.

        Ten replications of the three-tone reference signal at 7 dB, 30k sweeps
        with 5k burn-in, hyperparameter sampling on.
        """
        cfg = parse_config(text="\n".join([
            f"io.out = {tmp_path}",
            "sampler.n_iter = 30000",
            "sampler.burn_in = 5000",
            f"sampler.seed = {DEFAULT_SEED}",
            "experiment.replications = 10",
        ]))
        t0 = time.time()
        res = replicate(cfg)
        elapsed = time.time() - t0

        ks = np.arange(cfg.k_max + 1)
        mean_k = {mode: [float(f @ ks) for f in res["frequencies"][mode]]
                  for mode in ("corrected", "legacy")}
        modes = [int(np.argmax(f)) for f in res["frequencies"]["corrected"]]
        ordering_hits = sum(l < c for l, c in zip(mean_k["legacy"], mean_k["corrected"]))
        mode_hits = sum(m == 3 for m in modes)

        checks = [
            CheckResult("replications with E[k] legacy < corrected", ordering_hits, 8,
                        ">=", ordering_hits >= 8),
            CheckResult("replications with corrected posterior mode at k=3", mode_hits, 6,
                        ">=", mode_hits >= 6),
        ]
        report(5, "replication trend, corrected vs legacy", checks, elapsed, 900.0)
        for rep in range(10):
            print(f"    rep {rep}: E[k] corrected={mean_k['corrected'][rep]:.2f} "
                  f"legacy={mean_k['legacy'][rep]:.2f} corrected mode={modes[rep]}")
        assert elapsed < 900.0
        assert ordering_hits >= 8, f"E[k] ordering held in only {ordering_hits}/10"
        assert mode_hits >= 6, f"corrected mode at k=3 in only {mode_hits}/10"

    def test_criterion_6_sorted_unsorted_equivalence(self):
        """Sorted and unsorted kernels sample the same exchangeable law."""
        t0 = time.time()
        checks = sorted_equivalence()
        elapsed = time.time() - t0
        report(6, "sorted vs unsorted representation equivalence", checks, elapsed, 60.0)
        assert all(c.passed for c in checks)
        assert elapsed < 60.0
