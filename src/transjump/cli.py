"""Configuration parsing, experiment orchestration and result emission.

Config files are flat ``key = value`` text with section prefixes (``io.``,
``sampler.``, ``model.``, ``experiment.``); outputs are CSV (byte-stable given
the same config and seed) plus minimal SVG bar charts.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .birthdeath import RATIO_MODES, REPRESENTATIONS
from .core import BrokenKernelError, ConfigurationError, check_iteration_counts, rng_stream
from .experiment import run_joint_chain
from .sinusoid import (
    OMEGA_HIGH,
    OMEGA_LOW,
    accelerated_poisson_pmf,
    synthesize,
    truncated_poisson_pmf,
)
from .svg import grouped_bar_svg
from .validation import SUITES

SEED_ENV_VAR = "TRANSJUMP_SEED"


@dataclass
class RunConfig:
    """Fully resolved settings for a run, replication sweep or validation."""

    signal_path: str | None = None
    out_dir: str = "out"
    n_iter: int = 100_000
    burn_in: int = 20_000
    seed: int = 0
    ratio_mode: str = "corrected"
    representation: str = "unsorted"
    k_max: int = 32
    c: float = 0.25
    lam: float | None = None
    lambda_prior: tuple[float, float] | None = (1.0, 1e-3)
    delta2: float | None = None
    delta2_prior: tuple[float, float] | None = (2.0, 100.0)
    flat_likelihood: bool = False
    omega_true: tuple[float, ...] = (0.63, 0.68, 0.73)
    amp2_true: tuple[float, ...] = (20.0, 6.32, 20.0)
    snr_db: float = 7.0
    n_obs: int = 64
    replications: int = 100


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigurationError(f"expected comma-separated floats, got {text!r}")


def _parse_pair(text: str) -> tuple[float, float]:
    values = _parse_floats(text)
    if len(values) != 2:
        raise ConfigurationError(f"expected two comma-separated floats, got {text!r}")
    return values


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_floats(values) -> str:
    return ",".join(_fmt(v) for v in values)


# key -> (attribute, parser, serializer)
_CONFIG_KEYS = {
    "io.signal": ("signal_path", str, str),
    "io.out": ("out_dir", str, str),
    "sampler.n_iter": ("n_iter", int, str),
    "sampler.burn_in": ("burn_in", int, str),
    "sampler.seed": ("seed", int, str),
    "sampler.ratio_mode": ("ratio_mode", str, str),
    "sampler.representation": ("representation", str, str),
    "sampler.k_max": ("k_max", int, str),
    "sampler.c": ("c", float, _fmt),
    "model.lambda": ("lam", float, _fmt),
    "model.lambda_prior": ("lambda_prior", _parse_pair, _fmt_floats),
    "model.delta2": ("delta2", float, _fmt),
    "model.delta2_prior": ("delta2_prior", _parse_pair, _fmt_floats),
    "model.flat_likelihood": ("flat_likelihood", _parse_bool, lambda b: "true" if b else "false"),
    "experiment.omega_true": ("omega_true", _parse_floats, _fmt_floats),
    "experiment.amp2_true": ("amp2_true", _parse_floats, _fmt_floats),
    "experiment.snr_db": ("snr_db", float, _fmt),
    "experiment.n_obs": ("n_obs", int, str),
    "experiment.replications": ("replications", int, str),
}


def parse_config(path: str | os.PathLike | None = None,
                 text: str | None = None) -> RunConfig:
    """Parse a flat key=value config; unknown keys are rejected, defaults filled.

    The TRANSJUMP_SEED environment variable, when set, overrides the seed.
    """
    if (path is None) == (text is None):
        raise ConfigurationError("give exactly one of path / text")
    if path is not None:
        text = Path(path).read_text()
    cfg = RunConfig()
    given: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        entry = _CONFIG_KEYS.get(key)
        if entry is None:
            raise ConfigurationError(f"line {lineno}: unknown config key {key!r}")
        if key in given:
            raise ConfigurationError(f"line {lineno}: duplicate config key {key!r}")
        given.add(key)
        attr, parser, _ = entry
        try:
            setattr(cfg, attr, parser(value))
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key}: {exc}")

    if "model.lambda" in given and "model.lambda_prior" in given:
        raise ConfigurationError("give either model.lambda or model.lambda_prior, not both")
    if "model.delta2" in given and "model.delta2_prior" in given:
        raise ConfigurationError("give either model.delta2 or model.delta2_prior, not both")
    if "model.lambda" in given:
        cfg.lambda_prior = None
    if "model.delta2" in given:
        cfg.delta2_prior = None

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigurationError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")

    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    check_iteration_counts(cfg.n_iter, cfg.burn_in)
    if cfg.ratio_mode not in RATIO_MODES:
        raise ConfigurationError(f"unknown ratio mode {cfg.ratio_mode!r}")
    if cfg.representation not in REPRESENTATIONS:
        raise ConfigurationError(f"unknown representation {cfg.representation!r}")
    if not 0.0 < cfg.c <= 0.5:
        raise ConfigurationError(f"sampler.c={cfg.c} outside (0, 0.5]")
    if cfg.k_max < 1:
        raise ConfigurationError("sampler.k_max must be at least 1")
    if cfg.replications < 1:
        raise ConfigurationError("experiment.replications must be at least 1")
    if (cfg.lam is None) == (cfg.lambda_prior is None):
        raise ConfigurationError("exactly one of model.lambda / model.lambda_prior is required")
    if (cfg.delta2 is None) == (cfg.delta2_prior is None):
        raise ConfigurationError("exactly one of model.delta2 / model.delta2_prior is required")
    if len(cfg.omega_true) != len(cfg.amp2_true):
        raise ConfigurationError("experiment.omega_true and experiment.amp2_true "
                                 "must have matching lengths")
    if any(not OMEGA_LOW < w < OMEGA_HIGH for w in cfg.omega_true):
        raise ConfigurationError("experiment.omega_true frequencies must lie in (0, pi)")
    if len(set(cfg.omega_true)) != len(cfg.omega_true):
        raise ConfigurationError("experiment.omega_true frequencies must be distinct")
    if not math.isfinite(cfg.snr_db):
        raise ConfigurationError("experiment.snr_db must be finite")
    if cfg.n_obs < 1:
        raise ConfigurationError("experiment.n_obs must be at least 1")
    # The SNR sets the noise level from the signal power, so the truth must not be silent.
    if not (all(0.0 <= a < math.inf for a in cfg.amp2_true)
            and any(a > 0.0 for a in cfg.amp2_true)):
        raise ConfigurationError("experiment.amp2_true must be finite and nonnegative, "
                                 "with at least one positive entry")
    if cfg.lam is not None and not 0.0 < cfg.lam < math.inf:
        raise ConfigurationError("model.lambda must be finite and positive")
    if cfg.delta2 is not None and not 0.0 <= cfg.delta2 < math.inf:
        raise ConfigurationError("model.delta2 must be finite and nonnegative")
    for key, pair in (("model.lambda_prior", cfg.lambda_prior),
                      ("model.delta2_prior", cfg.delta2_prior)):
        if pair is not None and not all(0.0 < v < math.inf for v in pair):
            raise ConfigurationError(f"{key} entries must be finite and positive")


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) round-trips to an equal config."""
    by_attr = {attr: (key, to_text) for key, (attr, _, to_text) in _CONFIG_KEYS.items()}
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        key, to_text = by_attr[f.name]
        lines.append(f"{key} = {to_text(value)}")
    return "\n".join(lines) + "\n"


def read_signal(path: str | os.PathLike) -> np.ndarray:
    """Plain-text signal, one finite observation per line, not all zero; N is the line count."""
    values = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError:
            raise ConfigurationError(f"{path}: line {lineno} is not a number: {raw!r}")
        if not math.isfinite(value):
            raise ConfigurationError(f"{path}: line {lineno} is not finite: {raw!r}")
        values.append(value)
    if not values:
        raise ConfigurationError(f"{path}: signal file contains no observations")
    if not any(values):
        raise ConfigurationError(f"{path}: signal is all zeros")
    return np.array(values)


def write_signal(path: str | os.PathLike, y) -> None:
    Path(path).write_text("".join(f"{_fmt(v)}\n" for v in np.asarray(y)))


def _write_lines(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _write_summary(path: Path, counts: np.ndarray) -> None:
    total = counts.sum()
    rows = [f"{k},{int(c)},{_fmt(c / total if total else 0.0)}"
            for k, c in enumerate(counts)]
    _write_lines(path, "k,count,frequency", rows)


def _chain_kwargs(cfg: RunConfig) -> dict:
    return dict(
        k_max=cfg.k_max, c=cfg.c, representation=cfg.representation,
        lam=cfg.lam, lambda_prior=cfg.lambda_prior,
        delta2=cfg.delta2, delta2_prior=cfg.delta2_prior,
        flat_likelihood=cfg.flat_likelihood,
    )


def run_experiment(cfg: RunConfig, out_dir: str | os.PathLike | None = None) -> dict:
    """Single chain run; writes trace.csv, components.csv and summary.csv."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.signal_path is not None:
        y = read_signal(cfg.signal_path)
    elif cfg.flat_likelihood:
        y = None
    else:
        raise ConfigurationError("missing required key io.signal (signal input path)")

    result = run_joint_chain(
        y, n_iter=cfg.n_iter, burn_in=cfg.burn_in,
        ratio_mode=cfg.ratio_mode, rng=rng_stream(cfg.seed),
        **_chain_kwargs(cfg))

    trace_path = out / "trace.csv"
    _write_lines(trace_path, "iter,k,logtarget,move,accepted,lambda,delta2", (
        f"{r.iteration},{r.k},{_fmt(r.log_target)},{r.move},{int(r.accepted)},"
        f"{_fmt(r.lam)},{_fmt(r.delta2)}"
        for r in result.records))

    comp_path = out / "components.csv"
    comp_header = "iter," + ",".join(f"c{j + 1}" for j in range(cfg.k_max))
    _write_lines(comp_path, comp_header, (
        f"{r.iteration}," + ",".join(
            _fmt(r.components[j]) if j < r.k else ""
            for j in range(cfg.k_max))
        for r in result.records))

    summary_path = out / "summary.csv"
    _write_summary(summary_path, result.k_counts())
    return {
        "result": result,
        "trace": trace_path,
        "components": comp_path,
        "summary": summary_path,
    }


def replicate(cfg: RunConfig, out_dir: str | os.PathLike | None = None) -> dict:
    """Replication sweep: fresh signal per replication, corrected and legacy chains.

    Both modes run on the identical signal; per-replication summaries and the
    aggregate model-selection frequency table (mean posterior frequency per
    order) are written alongside a grouped bar chart.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ks = np.arange(cfg.k_max + 1)
    freqs: dict[str, list[np.ndarray]] = {"corrected": [], "legacy": []}
    kwargs = _chain_kwargs(cfg)
    for rep in range(cfg.replications):
        y = synthesize(cfg.omega_true, cfg.amp2_true, cfg.snr_db, cfg.n_obs,
                       rng_stream(cfg.seed, rep, 0))
        for stream, mode in enumerate(("corrected", "legacy")):
            result = run_joint_chain(
                y, n_iter=cfg.n_iter, burn_in=cfg.burn_in, ratio_mode=mode,
                rng=rng_stream(cfg.seed, rep, 1 + stream),
                **kwargs)
            _write_summary(out / f"summary_rep{rep:03d}_{mode}.csv", result.k_counts())
            freqs[mode].append(result.k_frequencies())

    agg = {mode: np.mean(freqs[mode], axis=0) for mode in freqs}
    agg_path = out / "aggregate.csv"
    _write_lines(agg_path, "k,freq_corrected,freq_legacy", (
        f"{k},{_fmt(agg['corrected'][k])},{_fmt(agg['legacy'][k])}" for k in ks))
    svg_path = out / "aggregate.svg"
    svg_path.write_text(grouped_bar_svg(
        {"corrected": list(agg["corrected"]), "legacy": list(agg["legacy"])},
        [str(k) for k in ks],
        title="model-selection frequency by ratio mode",
        y_label="frequency"))
    return {
        "frequencies": freqs,
        "aggregate": agg,
        "aggregate_csv": agg_path,
        "aggregate_svg": svg_path,
        "out_dir": out,
    }


def priors_plot(lam: float, k_max: int, out_dir: str | os.PathLike) -> dict:
    """Emit the plain and accelerated order laws side by side (CSV + SVG)."""
    if not 0.0 < lam < math.inf:
        raise ConfigurationError("lambda must be finite and positive")
    if k_max < 0:
        raise ConfigurationError("kmax must be nonnegative")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    poisson = truncated_poisson_pmf(lam, k_max)
    accelerated = accelerated_poisson_pmf(lam, k_max)
    csv_path = out / "priors.csv"
    _write_lines(csv_path, "k,poisson,accelerated", (
        f"{k},{_fmt(poisson[k])},{_fmt(accelerated[k])}" for k in range(k_max + 1)))
    svg_path = out / "priors.svg"
    svg_path.write_text(grouped_bar_svg(
        {"poisson": list(poisson), "accelerated": list(accelerated)},
        [str(k) for k in range(k_max + 1)],
        title=f"order laws, mean {lam:g}",
        y_label="pmf"))
    return {"poisson": poisson, "accelerated": accelerated,
            "csv": csv_path, "svg": svg_path}


def validate_command(suite: str) -> int:
    """Run a named verification suite; exit code 0 iff every check passes."""
    fn = SUITES.get(suite)
    if fn is None:
        print(f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return 2
    checks = fn()
    for check in checks:
        print(check.line())
    return 0 if all(c.passed for c in checks) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="transjump",
        description="Trans-dimensional MCMC experiments with exact or legacy "
                    "birth-or-death acceptance ratios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single chain run from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", help="override the configured output directory")

    p_rep = sub.add_parser("replicate", help="replication sweep, corrected vs legacy")
    p_rep.add_argument("--config", required=True)
    p_rep.add_argument("--out", help="override the configured output directory")

    p_val = sub.add_parser("validate", help="run a named verification suite")
    p_val.add_argument("--suite", required=True)

    p_plot = sub.add_parser("priors-plot", help="emit plain vs accelerated order laws")
    p_plot.add_argument("--lambda", dest="lam", type=float, required=True)
    p_plot.add_argument("--kmax", type=int, default=32)
    p_plot.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = parse_config(path=args.config)
            paths = run_experiment(cfg, out_dir=args.out)
            for name in ("trace", "components", "summary"):
                print(f"wrote {paths[name]}")
            return 0
        if args.command == "replicate":
            cfg = parse_config(path=args.config)
            res = replicate(cfg, out_dir=args.out)
            print(f"wrote {res['aggregate_csv']}")
            print(f"wrote {res['aggregate_svg']}")
            return 0
        if args.command == "validate":
            return validate_command(args.suite)
        if args.command == "priors-plot":
            res = priors_plot(args.lam, args.kmax, args.out)
            print(f"wrote {res['csv']}")
            print(f"wrote {res['svg']}")
            return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BrokenKernelError as exc:
        print(f"kernel failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
