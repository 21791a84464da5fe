"""Run one benchmark workload in this (fresh) process and print its measurements.

``run.py`` starts this script once per run, plus a few times with
``--setup-only`` to take the median set-up time.  Set-up is timed from the
first line of this file, so it covers importing numpy and transjump, parsing
the config and generating and writing the inputs.  The last line of standard
output is one JSON object.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_program():
    """Import transjump from this checkout's source tree and nowhere else."""
    sys.path.insert(0, str(SRC))
    import transjump
    where = Path(transjump.__file__).resolve().parent
    if where != SRC / "transjump":
        raise SystemExit(f"transjump imported from {where}, expected {SRC / 'transjump'}")


# Time of one calibration kernel on a quiet 2-vCPU x86-64 host (Python 3.11,
# numpy 2.4).  Timings are divided by the host's slowness next to each unit,
# (measured kernel time) / CAL_REF_S, which cancels the speed swings of a
# shared host.  Raw timings stay in the run record.
CAL_REF_S = 0.020


def calibration_seconds(reps: int = 3) -> float:
    """Median time of a fixed kernel of interpreter work and small numpy products.

    The kernel calls nothing in transjump and nothing the tracer wraps, so a
    change to the program cannot move it.
    """
    t = np.arange(64.0)
    omega = np.linspace(0.3, 2.8, 4)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        for _ in range(600):
            d = np.cos(np.outer(t, omega))
            d.T @ d
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_units(wl, deadline, indices, errors, tracer=None):
    """Run units until the next one would end past the deadline (at least one).

    A calibration before the first unit and after each unit gives every unit
    its host slowness, the mean of the two calibrations around it.
    """
    from workloads import Unit

    done = []
    durations = []
    cal_before = calibration_seconds()
    for i in indices:
        if tracer is not None:
            tracer.run_id = i
        t0 = time.perf_counter()
        try:
            unit = wl.unit(i)
        except Exception:  # a failed operation is counted, and the run goes on
            errors.append(f"unit {i}: {traceback.format_exc(limit=3)}")
            unit = Unit(0, math.nan, math.nan, wl.unit_ops, wl.unit_ops)
        cal_after = calibration_seconds()
        unit.slowness = (cal_before + cal_after) / 2.0 / CAL_REF_S
        cal_before = cal_after
        durations.append(time.perf_counter() - t0)
        done.append((i, unit))
        if time.perf_counter() + statistics.median(durations) > deadline:
            break
    return done


def rate(units, indices=None):
    """Calibrated steps per second over the timed region of the given units."""
    kept = [u for i, u in units if not u.failed and (indices is None or i in indices)]
    seconds = sum(u.step_seconds / u.slowness for u in kept)
    return sum(u.steps for u in kept) / seconds if seconds else math.nan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file for the traced segment's spans (.npz)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import scipy

    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    setup_s = time.perf_counter() - _T0
    setup_slowness = calibration_seconds() / CAL_REF_S
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "slowness": setup_slowness}))
        return 0

    errors: list[str] = []
    result = {"setup_s": setup_s, "slowness": setup_slowness,
              "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}
    if not args.trace:
        units = run_units(wl, time.perf_counter() + args.seconds, itertools.count(), errors)
        traced = []
    else:
        import layers
        import metrics
        from tracer import Tracer

        # Probes first, so their allocation history is the same on every workload.
        probes = {"quad_form": layers.quad_form_probe(),
                  "record_bytes": layers.record_bytes_probe()}
        start = time.perf_counter()
        units = run_units(wl, start + args.seconds / 3, itertools.count(), errors)
        tr = Tracer()
        tr.install()
        try:
            traced = run_units(wl, start + args.seconds, itertools.count(), errors, tr)
        finally:
            tr.uninstall()
        fired = tr.fired()
        missing = sorted(n for n in metrics.EXPECTED_SPANS[args.workload] if not fired[n])
        if missing:
            raise RuntimeError(f"wrapped functions never called on {args.workload}: {missing}")
        tr.check_tallies()
        common = {i for i, _ in units} & {i for i, _ in traced}
        rates = {"untraced": rate(units, common), "traced": rate(traced, common)}
        steps = sum(u.steps for _, u in traced)
        result["layers"] = layers.layer_metrics(tr, steps, probes, rates)
        result["fired"] = dict(fired)
        if args.spans:
            tr.save(args.spans)

    attempted = sum(u.attempted for _, u in units + traced)
    failed = sum(u.failed for _, u in units + traced)
    try:
        run_attempted, run_failed = wl.finish()
    except Exception:
        errors.append(f"finish: {traceback.format_exc(limit=3)}")
        run_attempted, run_failed = 1, 1
    result.update({
        "units": [{"i": i, "steps": u.steps, "seconds": u.seconds,
                   "step_seconds": u.step_seconds, "slowness": u.slowness,
                   "failed": u.failed}
                  for i, u in units if not u.failed],
        "attempted": attempted + run_attempted,
        "failed": failed + run_failed,
        "errors": errors,
        "info": wl.info,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
