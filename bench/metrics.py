"""Metric definitions: names, units, direction and what each should move.

``END_TO_END`` and ``LAYERS`` are the source of BENCHMARK.json's metric
lists; ``run.py`` refuses to report if the two disagree.  Each per-layer
metric names the end-to-end metric and workload it is expected to move, so a
performance change can state its prediction against it.
"""
from __future__ import annotations

# name, unit, better.  The failed-operation share is reported through the
# result's ``attempted``/``failed`` fields and printed as ``fail_frac``; it is
# not a metric here because it is 0 on a healthy commit.
END_TO_END = (
    ("steps_per_s", "1/s", "higher"),
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-call times are reported as the median, the highest percentile with at
# least ten samples beyond it ("_tail") and the sample count (".n").  "self"
# times exclude the wrapped calls made inside the span (for birth and death,
# the target density).
TIMED = (
    # base name, unit, span, total or self time, what it should move
    ("sinusoid.lambda_normalizer", "us", "sinusoid.lambda_normalizer", "total",
     "steps_per_s on joint-ref and replicate-ref; none on prior-only"),
    ("sinusoid.sample_lambda", "us", "sinusoid.sample_lambda", "total",
     "steps_per_s on joint-ref and replicate-ref; none on prior-only"),
    ("sinusoid.sample_delta2", "us", "sinusoid.sample_delta2", "total",
     "steps_per_s on joint-ref and replicate-ref; none on prior-only"),
    ("sinusoid.frequency_update", "us", "sinusoid.frequency_update", "total",
     "steps_per_s on joint-ref"),
    ("birthdeath.birth", "us", "birthdeath.birth", "self", "steps_per_s on prior-only"),
    ("birthdeath.death", "us", "birthdeath.death", "self", "steps_per_s on prior-only"),
    ("birthdeath.schedule_green", "us", "birthdeath.schedule_green", "total",
     "steps_per_s on joint-ref"),
    ("core.select_move", "us", "core.select_move", "total", "steps_per_s on prior-only"),
    ("oracle.transition_matrix", "ms", "oracle.transition_matrix", "total",
     "wall_s on oracle-small"),
    ("oracle.stationary", "ms", "oracle.stationary", "total", "wall_s on oracle-small"),
    ("oracle.quadrature", "s", "oracle.quadrature", "total", "wall_s on oracle-small"),
    ("validation.toy_stationarity", "s", "validation.toy_stationarity", "total",
     "wall_s on oracle-small"),
    ("cli.emit", "s", "cli.run_experiment", "self",
     "wall_s on joint-ref; none on replicate-ref"),
    ("cli.replicate", "self_s", "cli.replicate", "self",
     "wall_s on replicate-ref (synthesis, summaries, aggregate, SVG)"),
)
QUAD_FORM_K = (1, 3, 8)
_QUAD_FORM_MOVES = "wall_s on oracle-small and steps_per_s on joint-ref (probe on fixed inputs)"

_SINGLE = (
    # name, unit, better, what it should move
    ("sinusoid.cholesky_per_step", "count/step", "lower",
     "steps_per_s on joint-ref, wall_s on replicate-ref; 0 on prior-only"),
    ("sinusoid.target_evals_per_step", "count/step", "lower",
     "steps_per_s on joint-ref; none on oracle-small"),
    ("sinusoid.memo_hit_ratio", "ratio", "higher",
     "steps_per_s on joint-ref; none on oracle-small"),
    ("sinusoid.frequency_update.accept_ratio", "ratio", "higher", "steps_per_s on joint-ref"),
    ("birthdeath.birth.accept_ratio", "ratio", "higher", "steps_per_s on prior-only"),
    ("birthdeath.death.accept_ratio", "ratio", "higher", "steps_per_s on prior-only"),
    ("birthdeath.schedule_green.calls_per_step", "count/step", "lower", "steps_per_s on joint-ref"),
    ("core.mhg_accept.calls_per_step", "count/step", "lower", "steps_per_s on prior-only"),
    ("core.run_chain.self_us_per_step", "us/step", "lower", "steps_per_s on prior-only"),
    ("core.record_bytes", "B", "lower", "peak_rss_mb on prior-only"),
    ("experiment.record_bytes", "B", "lower", "peak_rss_mb on prior-only"),
    ("experiment.sweep.self_us", "us/step", "lower", "steps_per_s on joint-ref"),
    ("oracle.quadrature.target_evals", "count", "lower", "wall_s on oracle-small"),
    ("cli.emit.bytes", "B", "lower", "wall_s on joint-ref"),
    ("experiment.ess_k", "count", "higher", "not gated: moves with RNG consumption"),
    ("core.ess_k", "count", "higher", "not gated: moves with RNG consumption"),
    ("trace.steps_per_s", "1/s", "higher", "traced steps_per_s"),
    ("trace.untraced_steps_per_s", "1/s", "higher", "untraced steps_per_s, same units"),
    ("trace.overhead_frac", "ratio", "lower", "tracing overhead: 1 - traced/untraced"),
)


def _timer_entries(base: str, unit: str, moves: str, suffix: str = ""):
    time_unit = "s" if unit == "self_s" else unit
    yield f"{base}.{unit}{suffix}", time_unit, "lower", moves
    yield f"{base}.{unit}_tail{suffix}", time_unit, "lower", moves
    yield f"{base}.n{suffix}", "count", "higher", "sample count of the two above"


def _layer_table():
    rows = []
    for base, unit, _, _, moves in TIMED:
        rows.extend(_timer_entries(base, unit, moves))
    for k in QUAD_FORM_K:
        rows.extend(_timer_entries("sinusoid.quad_form", "us", _QUAD_FORM_MOVES, f".k{k}"))
    rows.extend(_SINGLE)
    return tuple(rows)


LAYERS = _layer_table()  # (name, unit, better, moves)

# Wrapped spans that each workload must reach; the traced run fails if one
# of them never fired, so a missed binding cannot read as zero time.
_SWEEP = {"experiment.run_joint_chain", "sinusoid.sample_lambda",
          "sinusoid.lambda_normalizer", "sinusoid.sample_delta2",
          "birthdeath.schedule_green", "birthdeath.birth", "birthdeath.death",
          "sinusoid.frequency_update", "sinusoid.log_density", "sinusoid.log_target",
          "sinusoid.cholesky", "core.mhg_accept"}
EXPECTED_SPANS = {
    "joint-ref": _SWEEP | {"cli.run_experiment"},
    "replicate-ref": _SWEEP | {"cli.replicate"},
    "prior-only": {"core.run_chain", "core.select_move", "core.mhg_accept",
                   "birthdeath.birth", "birthdeath.death", "birthdeath.schedule_green",
                   "sinusoid.prior_log_density"},
    "oracle-small": {"validation.toy_stationarity", "oracle.transition_matrix",
                     "oracle.stationary", "oracle.quadrature", "sinusoid.log_target",
                     "sinusoid.cholesky", "birthdeath.schedule_green"},
}

TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)


def tail_level(n: int) -> float:
    """Highest percentile with at least ten samples beyond it; 100 (the maximum) if none."""
    for p in TAIL_LEVELS:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 100.0
