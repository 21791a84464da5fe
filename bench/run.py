"""transjump benchmark: one workload per invocation, checked and measured.

Run from the repository root:

    python3 bench/run.py --workload joint-ref --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
joint-ref, replicate-ref, prior-only, oracle-small.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics (steps_per_s, wall_s, setup_s,
peak_rss_mb).  The workload runs in a fresh process, so its peak resident
memory is its own; set-up is taken as the median of several fresh processes.
With ``--trace 1`` the metrics are the per-layer ones, from a segment in which
every public function the layers expose is wrapped in a span (tracer.py); the
same unit indices also run untraced first, which gives the tracing overhead.

End-to-end times are calibrated: a fixed kernel that does not touch
transjump is timed before and after every unit (and after every set-up), and
each time is divided by the host's slowness, the kernel's time over its
reference time.  On a shared host whose speed swings by tens of percent
within minutes this keeps runs comparable; the raw times and slownesses are
kept in the run record and the raw rate is printed.

Lines before the JSON give the same numbers by name with units, the share of
failed operations (``fail_frac``) and the conditions of the run: commit,
source digest, CPU count, Python, numpy and scipy versions and load average.
Each run also leaves a record in ``.bench_out/runs/`` and, when traced, its
spans in ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, LAYERS, tail_level

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5  # fresh processes whose set-up times give the median setup_s
DEADLINE_S = 170.0  # the whole run, child processes included
SEED_ENV_VAR = "TRANSJUMP_SEED"  # parse_config lets it override the config seed
# The workloads are single-threaded; BLAS helper threads would compete with
# the measured thread for the host's cores.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_layout(workload: str) -> None:
    if not (ROOT / "src" / "transjump" / "__init__.py").is_file():
        fail(f"no transjump source tree under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    listed = {
        "end_to_end": [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    }
    if listed["end_to_end"] != list(END_TO_END):
        fail("BENCHMARK.json end_to_end disagrees with metrics.END_TO_END")
    if listed["per_layer"] != [row[:3] for row in LAYERS]:
        fail("BENCHMARK.json per_layer disagrees with metrics.LAYERS")
    if workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {workload!r}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def conditions() -> dict:
    return {
        "commit": commit(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_worker(args, workdir: Path, deadline: float, setup_only=False, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
    env.update(SINGLE_THREADED)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before the workload process could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"workload process exceeded {timeout:.0f} s and was stopped")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(res: dict, probes: list[dict]) -> tuple[dict, dict]:
    """Calibrated end-to-end metrics, and the per-unit values behind them."""
    units = res["units"]
    per_unit = {
        "steps_per_s": [u["steps"] * u["slowness"] / u["step_seconds"] for u in units],
        "wall_s": [u["seconds"] / u["slowness"] for u in units],
        "setup_s": [p["setup_s"] / p["slowness"] for p in probes + [res]],
    }
    # steps_per_s is taken over the whole timed region, not as a median of
    # units: the cost of a unit varies with the chain's path, and the total
    # over many units is the steadier figure.
    e2e = {
        "steps_per_s": (sum(u["steps"] for u in units)
                        / sum(u["step_seconds"] / u["slowness"] for u in units)),
        "wall_s": statistics.fmean(per_unit["wall_s"]),
        "setup_s": statistics.median(per_unit["setup_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return e2e, per_unit


def print_report(args, cond, res, e2e, per_unit) -> None:
    units_of = {name: unit for name, unit, _ in END_TO_END}
    print(f"transjump benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("conditions: " + " ".join(f"{k}={v}" for k, v in cond.items()))
    for name, value in e2e.items():
        extra = ""
        if name in per_unit:
            lo, hi = quartiles(per_unit[name])
            over = "set-ups" if name == "setup_s" else "units"
            extra = f"  (over {len(per_unit[name])} {over}; quartiles {lo:.6g} .. {hi:.6g})"
        print(f"  {name:<16} {value:.6g} {units_of[name]}{extra}")
    print(f"  {'fail_frac':<16} {res['failed'] / res['attempted']:.6g} share  "
          f"({res['failed']} of {res['attempted']} operations failed)")
    raw_rate = (sum(u["steps"] for u in res["units"])
                / sum(u["step_seconds"] for u in res["units"]))
    slowness = statistics.median(u["slowness"] for u in res["units"])
    print(f"  {'raw steps_per_s':<16} {raw_rate:.6g} 1/s  (uncalibrated; "
          f"median host slowness {slowness:.4g})")
    for key, value in res["info"].items():
        print(f"  info {key} = {value}")
    for err in res["errors"]:
        print(f"  error: {err}")
    if args.trace:
        layer = res["layers"]
        print("per-layer metrics (traced segment, uncalibrated; expected effect after '->'):")
        for name, unit, _, moves in LAYERS:
            n_name = re.sub(r"\.(us|ms|s|self_s)_tail", ".n", name)
            level = f" [p{tail_level(int(layer[n_name])):g}]" if n_name != name else ""
            print(f"  {name:<44} {layer[name]:<12.6g} {unit:<10}{level} -> {moves}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S

    check_layout(args.workload)
    cond = conditions()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz" if args.trace else None
    try:
        probes = [run_worker(args, workdir, deadline, setup_only=True)
                  for _ in range(SETUP_RUNS - 1)]
        res = run_worker(args, workdir, deadline, spans=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cond.update(res["versions"])
    if not res["units"]:
        for err in res["errors"]:
            sys.stderr.write(err)
        fail("no unit of the workload completed")
    if args.trace:
        missing = [row[0] for row in LAYERS if row[0] not in res["layers"]]
        if missing:
            fail(f"per-layer metrics not measured: {missing}")

    e2e, per_unit = end_to_end(res, probes)
    print_report(args, cond, res, e2e, per_unit)
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _, _ in LAYERS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "conditions": cond, "metrics": metrics,
              "per_unit": per_unit, "units": res["units"],
              "setup_probes": probes + [{"setup_s": res["setup_s"], "slowness": res["slowness"]}],
              "attempted": res["attempted"], "failed": res["failed"],
              "info": res["info"], "errors": res["errors"]}
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (OUT / "runs" / f"{stamp}-{tag}-{os.getpid()}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
