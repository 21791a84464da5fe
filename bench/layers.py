"""Per-layer analysis of a traced segment, and probes on fixed inputs."""
from __future__ import annotations

import gc
import math
import statistics
import time
import tracemalloc

import numpy as np

from metrics import QUAD_FORM_K, TIMED, tail_level
from tracer import Tracer
from transjump import birthdeath, core, experiment, sinusoid

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0, "self_s": 1.0}


def summarize(values, scale: float) -> tuple[float, float, int]:
    """(median, tail percentile, sample count), scaled."""
    values = np.asarray(values, dtype=float) * scale
    if values.size == 0:
        return 0.0, 0.0, 0
    return (float(np.median(values)),
            float(np.percentile(values, tail_level(values.size))), int(values.size))


def ess(series) -> float:
    """Effective sample size by Geyer's initial monotone sequence estimator."""
    x = np.asarray(series, dtype=float)
    n = x.size
    x = x - x.mean()
    if n < 4 or not np.any(x):
        return float(n)
    spec = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec))[:n]
    rho = acov / acov[0]
    m = (n - 1) // 2
    gamma = rho[0:2 * m:2] + rho[1:2 * m:2]
    nonpos = np.flatnonzero(gamma <= 0.0)
    if nonpos.size:
        gamma = gamma[:nonpos[0]]
    gamma = np.minimum.accumulate(gamma)
    tau = -1.0 + 2.0 * float(gamma.sum())
    return n / tau if tau > 0 else float(n)


# -- probes on fixed inputs, run untraced ------------------------------------

def quad_form_probe(calls: int = 300, warmup: int = 20) -> dict[int, list[float]]:
    """Per-call seconds of quad_form at k = 1, 3, 8 on a fixed signal."""
    y = core.rng_stream(0).standard_normal(64)
    out = {}
    for k in QUAD_FORM_K:
        omega = tuple(np.linspace(0.3, 2.8, k)) if k > 1 else (1.1,)
        times = []
        for j in range(warmup + calls):
            t0 = time.perf_counter()
            sinusoid.quad_form(y, omega, 100.0)
            if j >= warmup:
                times.append(time.perf_counter() - t0)
        out[k] = times
    return out


def _retained_bytes(run, n: int) -> float:
    """Bytes per record that a run's result holds: what deleting the result frees.

    Collections empty the free lists, so freed records return to the
    allocator, where tracemalloc sees them.  A short run first settles
    one-time allocations.
    """
    run(min(n, 50))
    tracemalloc.start()
    try:
        result = run(n)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del result
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return freed / n


def record_bytes_probe() -> dict[str, float]:
    """Bytes retained per record by each chain runner, measured with tracemalloc."""
    target = sinusoid.PriorOnlyTarget(5.0, 32)
    sched = birthdeath.BirthDeathSchedule.green(5.0, 32, 0.25)
    y = sinusoid.synthesize((0.63, 0.68, 0.73), (20.0, 6.32, 20.0), 7.0, 64,
                            core.rng_stream(0))
    return {
        "core.record_bytes": _retained_bytes(lambda n: core.run_chain(
            target, birthdeath.bod_move_set(target, sched), core.VarDimState(),
            n_iter=n, burn_in=n // 10, rng=core.rng_stream(0, 1)), 4000),
        "experiment.record_bytes": _retained_bytes(lambda n: experiment.run_joint_chain(
            y, n_iter=n, burn_in=n // 10, lambda_prior=(1.0, 1e-3),
            delta2_prior=(2.0, 100.0), rng=core.rng_stream(0, 2)), 300),
    }


# -- analysis of a traced segment --------------------------------------------

def layer_metrics(tr: Tracer, steps: int, probes: dict, rates: dict) -> dict[str, float]:
    """Every per-layer metric from the traced segment's spans and the probes.

    ``steps`` counts the traced units' steps; ``rates`` holds the traced and
    untraced calibrated steps_per_s over the same unit indices.
    """
    arr = tr.arrays()
    name_of_parent = np.where(arr["parent"] >= 0, arr["name_id"][arr["parent"]], -1)

    def mask(name):
        return tr.calls(arr, name)

    def count(name):
        return int(mask(name).sum())

    def per_step(n):
        return n / steps if steps else 0.0

    m: dict[str, float] = {}

    def put_timer(base, unit, values, suffix=""):
        med, tail, n = summarize(values, _SCALE[unit])
        m[f"{base}.{unit}{suffix}"] = med
        m[f"{base}.{unit}_tail{suffix}"] = tail
        m[f"{base}.n{suffix}"] = n

    for base, unit, span, kind, _ in TIMED:
        put_timer(base, unit, arr["self" if kind == "self" else "dur"][mask(span)])
    for k, times in probes["quad_form"].items():
        put_timer("sinusoid.quad_form", "us", times, f".k{k}")

    def called_from(parent):
        return name_of_parent == tr.names.index(parent)

    log_target = mask("sinusoid.log_target")
    lt_via_density = int((log_target & called_from("sinusoid.log_density")).sum())
    lt_direct = int(log_target.sum()) - lt_via_density
    densities = count("sinusoid.log_density")
    requests = densities + lt_direct
    quadratures = count("oracle.quadrature")
    lt_in_quadrature = int((log_target & called_from("oracle.quadrature")).sum())
    core_steps = tr.chain_steps["core"]
    sweeps = tr.chain_steps["experiment"]

    def self_per_step(name, n):
        return float(arr["self"][mask(name)].sum()) / n * 1e6 if n else 0.0

    def median_or_zero(values):
        return float(statistics.median(values)) if values else 0.0

    m.update({
        "sinusoid.cholesky_per_step": per_step(count("sinusoid.cholesky")),
        "sinusoid.target_evals_per_step": per_step(int(log_target.sum())),
        "sinusoid.memo_hit_ratio": (densities - lt_via_density) / requests if requests else 0.0,
        "sinusoid.frequency_update.accept_ratio": tr.accept_ratio("update"),
        "birthdeath.birth.accept_ratio": tr.accept_ratio("birth"),
        "birthdeath.death.accept_ratio": tr.accept_ratio("death"),
        "birthdeath.schedule_green.calls_per_step": per_step(count("birthdeath.schedule_green")),
        "core.mhg_accept.calls_per_step": per_step(count("core.mhg_accept")),
        "core.run_chain.self_us_per_step": self_per_step("core.run_chain", core_steps),
        "experiment.sweep.self_us": self_per_step("experiment.run_joint_chain", sweeps),
        "oracle.quadrature.target_evals": lt_in_quadrature / quadratures if quadratures else 0.0,
        "cli.emit.bytes": median_or_zero(tr.emit_bytes),
        "experiment.ess_k": median_or_zero([ess(s) for s in tr.k_series["experiment"]]),
        "core.ess_k": median_or_zero([ess(s) for s in tr.k_series["core"]]),
        "trace.steps_per_s": rates["traced"],
        "trace.untraced_steps_per_s": rates["untraced"],
        "trace.overhead_frac": 1.0 - rates["traced"] / rates["untraced"],
    })
    m.update(probes["record_bytes"])
    for name, value in m.items():
        if not math.isfinite(value):
            raise RuntimeError(f"per-layer metric {name} is not finite: {value}")
    return m
