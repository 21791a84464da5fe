"""The benchmark's four workloads, their inputs and their output checks.

Every workload is closed-loop, single-process and single-threaded: the
benchmark calls one public entry point of transjump, waits for it, checks its
output and calls it again.  All inputs come from the workload seed.  Unit i
of a run derives its own seed from (workload seed, i), so repeated units
sample different chains; a traced segment repeats the untraced units' indices
so both segments do identical work.

Each unit returns its step count and timings; checks that need the whole run
(pooled laws, the replication ordering) run in ``finish``.  A unit or a check
counts as one or more operations, and an operation fails when it raises or
its output check fails.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import time
from pathlib import Path

import numpy as np

from transjump import birthdeath, cli, core, oracle, sinusoid, validation

# Reference three-tone signal of the replication study.
REF_OMEGA = (0.63, 0.68, 0.73)
REF_AMP2 = (20.0, 6.32, 20.0)
REF_SNR_DB = 7.0
REF_N_OBS = 64

TRACE_HEADER = ["iter", "k", "logtarget", "move", "accepted", "lambda", "delta2"]


def unit_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclasses.dataclass
class Unit:
    steps: int  # MCMC transitions (oracle-small: quadrature density evaluations)
    seconds: float  # wall-clock of the unit's calls into transjump
    step_seconds: float  # the part of ``seconds`` that performs ``steps``
    attempted: int
    failed: int
    slowness: float = 1.0  # host slowness around the unit, set by the runner


class Workload:
    name = ""
    unit_ops = 1  # operations one unit attempts

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.info: dict = {}

    def setup(self) -> None:
        """Generate and write the inputs; timed as set-up."""

    def unit(self, i: int) -> Unit:
        raise NotImplementedError

    def finish(self) -> tuple[int, int]:
        """Run-level checks; returns (attempted, failed)."""
        return 0, 0


class JointRef(Workload):
    """``transjump run`` on the reference signal: one chain, three CSVs.

    The cost of a sweep depends on where the chain goes, and that depends on
    the noise realization, so each unit runs on its own realization from a
    pool written at set-up; a run then averages over many of them.
    """

    name = "joint-ref"
    n_iter = 1000
    burn_in = 200
    n_signals = 64

    def setup(self) -> None:
        self.signals = []
        for j in range(self.n_signals):
            path = self.workdir / f"signal{j:02d}.txt"
            y = sinusoid.synthesize(REF_OMEGA, REF_AMP2, REF_SNR_DB, REF_N_OBS,
                                    core.rng_stream(self.seed, j))
            cli.write_signal(path, y)
            self.signals.append(path)
        config = self.workdir / "joint.cfg"
        config.write_text(
            f"io.signal = {self.signals[0]}\n"
            f"io.out = {self.workdir / 'joint'}\n"
            f"sampler.n_iter = {self.n_iter}\n"
            f"sampler.burn_in = {self.burn_in}\n"
            f"sampler.seed = {unit_seed(self.seed, 0)}\n")
        self.cfg = cli.parse_config(path=config)

    def unit(self, i: int) -> Unit:
        cfg = dataclasses.replace(self.cfg, seed=unit_seed(self.seed, i),
                                  signal_path=str(self.signals[i % self.n_signals]))
        t0 = time.perf_counter()
        paths = cli.run_experiment(cfg)
        dt = time.perf_counter() - t0
        ok = check_run_outputs(paths, cfg)
        if i == 0:
            self.info["trace_sha256"] = hashlib.sha256(paths["trace"].read_bytes()).hexdigest()
        return Unit(cfg.n_iter, dt, dt, 1, 0 if ok else 1)


def check_run_outputs(paths: dict, cfg) -> bool:
    """trace.csv parses with k in [0, k_max] and a finite log-target; summary sums to 1."""
    with open(paths["trace"], newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != TRACE_HEADER or len(rows) != cfg.n_iter + 1:
        return False
    for j, row in enumerate(rows[1:]):
        if len(row) != len(TRACE_HEADER) or int(row[0]) != j:
            return False
        if not 0 <= int(row[1]) <= cfg.k_max or not math.isfinite(float(row[2])):
            return False
    with open(paths["summary"], newline="") as fh:
        summary = list(csv.reader(fh))[1:]
    counts = sum(int(r[1]) for r in summary)
    freq = sum(float(r[2]) for r in summary)
    n_components = sum(1 for _ in open(paths["components"]))
    return (len(summary) == cfg.k_max + 1 and counts == cfg.n_iter - cfg.burn_in
            and abs(freq - 1.0) < 1e-9 and n_components == cfg.n_iter + 1)


class ReplicateRef(Workload):
    """``transjump replicate`` at the replication-study settings, scaled down.

    The ordering check runs on the run's pooled replications: the mean over
    replications of legacy E[k] must lie below that of corrected E[k].  Per
    replication the ordering is too noisy at these chain lengths to gate on
    (about one replication in ten inverts at 1000-1500 sweeps), so the count
    of replications where it holds is reported, not gated.
    """

    name = "replicate-ref"
    replications = 1
    n_iter = 1000
    burn_in = 200
    unit_ops = 2 * replications

    def setup(self) -> None:
        config = self.workdir / "replicate.cfg"
        config.write_text(
            f"io.out = {self.workdir / 'replicate'}\n"
            f"sampler.n_iter = {self.n_iter}\n"
            f"sampler.burn_in = {self.burn_in}\n"
            f"sampler.seed = {unit_seed(self.seed, 0)}\n"
            f"experiment.replications = {self.replications}\n")
        self.cfg = cli.parse_config(path=config)
        self.mean_k: dict[int, dict[str, list[float]]] = {}

    def unit(self, i: int) -> Unit:
        cfg = dataclasses.replace(self.cfg, seed=unit_seed(self.seed, i))
        t0 = time.perf_counter()
        res = cli.replicate(cfg)
        dt = time.perf_counter() - t0
        ks = np.arange(cfg.k_max + 1)
        failed = 0
        means = {}
        for mode, freqs in res["frequencies"].items():
            means[mode] = [float(f @ ks) for f in freqs]
            failed += sum(1 for f in freqs
                          if not (np.all(np.isfinite(f)) and abs(f.sum() - 1.0) < 1e-9))
        if not res["aggregate_csv"].is_file():
            failed = self.unit_ops
        self.mean_k[i] = means
        steps = 2 * cfg.replications * cfg.n_iter
        return Unit(steps, dt, dt, self.unit_ops, failed)

    def finish(self) -> tuple[int, int]:
        corrected = [m for u in self.mean_k.values() for m in u["corrected"]]
        legacy = [m for u in self.mean_k.values() for m in u["legacy"]]
        hits = sum(l < c for l, c in zip(legacy, corrected))
        self.info["ordering_hits"] = f"{hits}/{len(corrected)}"
        self.info["mean_k"] = {"corrected": float(np.mean(corrected)),
                               "legacy": float(np.mean(legacy))}
        return 1, 0 if np.mean(legacy) < np.mean(corrected) else 1


class PriorOnly(Workload):
    """``core.run_chain`` on the prior alone: one corrected and one legacy chain."""

    name = "prior-only"
    lam = 5.0
    k_max = 32
    n_iter = 50_000
    burn_in = 5_000
    unit_ops = 2

    def setup(self) -> None:
        self.target = sinusoid.PriorOnlyTarget(self.lam, self.k_max)
        self.counts: dict[int, dict[str, np.ndarray]] = {}

    def unit(self, i: int) -> Unit:
        seed = unit_seed(self.seed, i)
        counts = {}
        dt = 0.0
        for stream, mode in enumerate(("corrected", "legacy")):
            t0 = time.perf_counter()
            sched = birthdeath.BirthDeathSchedule.green(self.lam, self.k_max, 0.25,
                                                        ratio_mode=mode)
            out = core.run_chain(self.target, birthdeath.bod_move_set(self.target, sched),
                                 core.VarDimState(), n_iter=self.n_iter,
                                 burn_in=self.burn_in, rng=core.rng_stream(seed, stream))
            dt += time.perf_counter() - t0
            counts[mode] = out.k_counts(self.k_max)
            del out
        self.counts[i] = counts
        return Unit(2 * self.n_iter, dt, dt, self.unit_ops, 0)

    def finish(self) -> tuple[int, int]:
        laws = {"corrected": sinusoid.truncated_poisson_pmf(self.lam, self.k_max),
                "legacy": sinusoid.accelerated_poisson_pmf(self.lam, self.k_max)}
        failed = 0
        for mode, law in laws.items():
            pooled = sum(u[mode] for u in self.counts.values())
            tv = oracle.tv_distance(pooled / pooled.sum(), law)
            self.info[f"tv_{mode}"] = tv
            failed += not tv < 0.02
        return 2, failed


class OracleSmall(Workload):
    """Exact toy stationarity plus the k-posterior quadrature on a single tone."""

    name = "oracle-small"
    n_specs = 20
    grid_size = 200
    unit_ops = 3
    # Density evaluations of one quadrature by its documented cost:
    # the empty model, grid_size order-1 cells and grid_size^2 order-2 cells.
    quadrature_steps = 1 + grid_size + grid_size ** 2

    def setup(self) -> None:
        self.y = sinusoid.synthesize((0.63,), (20.0,), 20.0, 32,
                                     core.rng_stream(self.seed, 0))

    def unit(self, i: int) -> Unit:
        t0 = time.perf_counter()
        checks = validation.toy_stationarity(self.n_specs, seed=unit_seed(self.seed, i))
        t1 = time.perf_counter()
        pmf = oracle.quadrature_posterior_k(self.y, 100.0, 1.0, 2, self.grid_size)
        t2 = time.perf_counter()
        failed = sum(not c.passed for c in checks)
        failed += not (pmf.shape == (3,) and np.all(np.isfinite(pmf))
                       and abs(pmf.sum() - 1.0) < 1e-12)
        return Unit(self.quadrature_steps, t2 - t0, t2 - t1, len(checks) + 1, failed)


WORKLOADS = {w.name: w for w in (JointRef, ReplicateRef, PriorOnly, OracleSmall)}
