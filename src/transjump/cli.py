"""Configuration parsing, experiment orchestration and result emission.

Config files are flat ``key = value`` text with section prefixes (``io.``,
``sampler.``, ``model.``, ``experiment.``); outputs are CSV (byte-stable given
the same config and seed) plus minimal SVG bar charts.
"""
from __future__ import annotations

import argparse
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .core import BrokenKernelError, ConfigurationError, rng_stream
from .experiment import check_sweep_settings, run_joint_chain
from .sinusoid import (
    OMEGA_HIGH,
    OMEGA_LOW,
    accelerated_poisson_pmf,
    check_truth_settings,
    synthesize,
    truncated_poisson_pmf,
)
from .svg import grouped_bar_svg
from .validation import SUITES

SEED_ENV_VAR = "TRANSJUMP_SEED"


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    """Comma-separated floats; an empty value is (), an empty field inside a list is an error."""
    if text.strip() == "":
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigurationError(f"expected comma-separated floats, got {text!r}")


def _fmt(value: float) -> str:
    return repr(float(value))


def _setting(key: str, parser, default):
    """A RunConfig field that config key ``key`` sets through ``parser``."""
    return field(default=default, metadata={"key": key, "parser": parser})


@dataclass
class RunConfig:
    """Fully resolved settings for a run, replication sweep or validation."""

    signal_path: str | None = _setting("io.signal", str, None)
    out_dir: str = _setting("io.out", str, "out")
    n_iter: int = _setting("sampler.n_iter", int, 100_000)
    burn_in: int = _setting("sampler.burn_in", int, 20_000)
    seed: int = _setting("sampler.seed", int, 0)
    ratio_mode: str = _setting("sampler.ratio_mode", str, "corrected")
    representation: str = _setting("sampler.representation", str, "unsorted")
    k_max: int = _setting("sampler.k_max", int, 32)
    c: float = _setting("sampler.c", float, 0.25)
    lam: float | None = _setting("model.lambda", float, None)
    lambda_prior: tuple[float, float] | None = _setting("model.lambda_prior", _parse_floats,
                                                        (1.0, 1e-3))
    delta2: float | None = _setting("model.delta2", float, None)
    delta2_prior: tuple[float, float] | None = _setting("model.delta2_prior", _parse_floats,
                                                        (2.0, 100.0))
    flat_likelihood: bool = _setting("model.flat_likelihood", _parse_bool, False)
    omega_true: tuple[float, ...] = _setting("experiment.omega_true", _parse_floats,
                                             (0.63, 0.68, 0.73))
    amp2_true: tuple[float, ...] = _setting("experiment.amp2_true", _parse_floats,
                                            (20.0, 6.32, 20.0))
    snr_db: float = _setting("experiment.snr_db", float, 7.0)
    n_obs: int = _setting("experiment.n_obs", int, 64)
    replications: int = _setting("experiment.replications", int, 100)


_FIELD_BY_KEY = {f.metadata["key"]: f for f in fields(RunConfig)}


def _read_text(path: str | os.PathLike) -> str:
    """The UTF-8 text of a config or signal file; undecodable bytes are a ConfigurationError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def parse_config(path: str | os.PathLike | None = None,
                 text: str | None = None) -> RunConfig:
    """Parse a flat key=value config; unknown keys are rejected, defaults filled.

    The TRANSJUMP_SEED environment variable, when set, overrides the seed.
    """
    if (path is None) == (text is None):
        raise ConfigurationError("give exactly one of path / text")
    if path is not None:
        text = _read_text(path)
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
        setting = _FIELD_BY_KEY.get(key)
        if setting is None:
            raise ConfigurationError(f"line {lineno}: unknown config key {key!r}")
        if key in given:
            raise ConfigurationError(f"line {lineno}: duplicate config key {key!r}")
        given.add(key)
        try:
            setattr(cfg, setting.name, setting.metadata["parser"](value))
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key}: {exc}")

    # A fixed value given on its own replaces the default prior; given with a
    # prior, both stay, and check_sweep_settings rejects the pair.
    if "model.lambda" in given and "model.lambda_prior" not in given:
        cfg.lambda_prior = None
    if "model.delta2" in given and "model.delta2_prior" not in given:
        cfg.delta2_prior = None

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigurationError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")

    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> dict:
    """Raise ConfigurationError on an unusable cfg; return the settings that
    check_sweep_settings checked and run_joint_chain runs."""
    if not (isinstance(cfg.seed, numbers.Integral) and cfg.seed >= 0):
        raise ConfigurationError(
            f"seed={cfg.seed!r} (sampler.seed or {SEED_ENV_VAR}) must be nonnegative "
            "and an integer")
    for key, path in (("io.out (or --out)", cfg.out_dir), ("io.signal", cfg.signal_path)):
        if path == "":
            raise ConfigurationError(f"{key} is an empty path")
    settings = dict(n_iter=cfg.n_iter, burn_in=cfg.burn_in, k_max=cfg.k_max, c=cfg.c,
                    ratio_mode=cfg.ratio_mode, representation=cfg.representation,
                    lam=cfg.lam, lambda_prior=cfg.lambda_prior, delta2=cfg.delta2,
                    delta2_prior=cfg.delta2_prior)
    check_sweep_settings(**settings)
    check_truth_settings(cfg.omega_true, cfg.amp2_true, cfg.n_obs)
    if not (isinstance(cfg.replications, numbers.Integral) and cfg.replications >= 1):
        raise ConfigurationError(
            f"experiment.replications={cfg.replications!r} must be an integer of at least 1")
    if any(not OMEGA_LOW < w < OMEGA_HIGH for w in cfg.omega_true):
        raise ConfigurationError("experiment.omega_true frequencies must lie in (0, pi)")
    if len(set(cfg.omega_true)) != len(cfg.omega_true):
        raise ConfigurationError("experiment.omega_true frequencies must be distinct")
    if not math.isfinite(cfg.snr_db):
        raise ConfigurationError("experiment.snr_db must be finite")
    return settings


def read_signal(path: str | os.PathLike) -> np.ndarray:
    """Plain-text signal, one finite observation per line, not all zero; N is the line count."""
    values = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
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


def _write_table(out: Path, stem: str, series: dict[str, np.ndarray], title: str,
                 y_label: str, column_prefix: str = "") -> tuple[Path, Path]:
    """Write <stem>.csv (k, then one column per series) and <stem>.svg (grouped bars)."""
    ks = range(len(next(iter(series.values()))))
    header = ",".join(["k"] + [column_prefix + name for name in series])
    rows = (",".join([str(k)] + [_fmt(values[k]) for values in series.values()]) for k in ks)
    csv_path = out / f"{stem}.csv"
    _write_lines(csv_path, header, rows)
    svg_path = out / f"{stem}.svg"
    svg_path.write_text(grouped_bar_svg(series, [str(k) for k in ks], title=title,
                                        y_label=y_label))
    return csv_path, svg_path


def _write_summary(path: Path, result) -> None:
    rows = [f"{k},{int(c)},{_fmt(f)}"
            for k, (c, f) in enumerate(zip(result.k_counts(), result.k_frequencies()))]
    _write_lines(path, "k,count,frequency", rows)


def _component_rows(result, k_max: int):
    """components.csv rows: the iteration, then k_max cells with the row's k components first."""
    comps = result.components.tolist()
    empty = "," * (k_max - 1)
    end = 0
    for i, k in enumerate(result.k):
        if k == 0:
            yield f"{i},{empty}"
        else:
            start, end = end, end + k
            yield f"{i}," + ",".join(map(repr, comps[start:end])) + "," * (k_max - k)


def run_experiment(cfg: RunConfig) -> dict:
    """Single chain run; writes trace.csv, components.csv and summary.csv into a
    directory made after the config is checked and the signal is read, so a
    rejected config or signal leaves none."""
    settings = _validate_config(cfg)
    y = None if cfg.signal_path is None else read_signal(cfg.signal_path)
    if y is None and not cfg.flat_likelihood:
        raise ConfigurationError("missing required key io.signal (signal input path)")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    result = run_joint_chain(None if cfg.flat_likelihood else y, rng=rng_stream(cfg.seed),
                             **settings)

    trace_path = out / "trace.csv"
    _write_lines(trace_path, "iter,k,logtarget,move,accepted,lambda,delta2", (
        f"{i},{k},{log_t!r},{move},{accepted},{lam!r},{delta2!r}"
        for i, (k, log_t, move, accepted, lam, delta2) in enumerate(zip(
            result.k, result.log_target, result.move, result.accepted,
            result.lam, result.delta2))))

    comp_path = out / "components.csv"
    comp_header = "iter," + ",".join(f"c{j + 1}" for j in range(cfg.k_max))
    _write_lines(comp_path, comp_header, _component_rows(result, cfg.k_max))

    summary_path = out / "summary.csv"
    _write_summary(summary_path, result)
    return {
        "result": result,
        "trace": trace_path,
        "components": comp_path,
        "summary": summary_path,
    }


def replicate(cfg: RunConfig) -> dict:
    """Replication sweep: fresh signal per replication, corrected and legacy chains.

    Both modes run on the identical signal; per-replication summaries and the
    aggregate model-selection frequency table (mean posterior frequency per
    order) are written alongside a grouped bar chart.  The config is checked
    before the output directory is made, so a rejected config leaves none.
    """
    settings = _validate_config(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    freqs: dict[str, list[np.ndarray]] = {"corrected": [], "legacy": []}
    for rep in range(cfg.replications):
        y = synthesize(cfg.omega_true, cfg.amp2_true, cfg.snr_db, cfg.n_obs,
                       rng_stream(cfg.seed, rep, 0))
        for stream, mode in enumerate(("corrected", "legacy")):
            settings["ratio_mode"] = mode
            result = run_joint_chain(None if cfg.flat_likelihood else y,
                                     rng=rng_stream(cfg.seed, rep, 1 + stream), **settings)
            _write_summary(out / f"summary_rep{rep:03d}_{mode}.csv", result)
            freqs[mode].append(result.k_frequencies())

    agg = {mode: np.mean(freqs[mode], axis=0) for mode in freqs}
    agg_path, svg_path = _write_table(out, "aggregate", agg,
                                      "model-selection frequency by ratio mode", "frequency",
                                      column_prefix="freq_")
    return {
        "frequencies": freqs,
        "aggregate": agg,
        "aggregate_csv": agg_path,
        "aggregate_svg": svg_path,
        "out_dir": out,
    }


def priors_plot(lam: float, k_max: int, out_dir: str | os.PathLike) -> dict:
    """Emit the plain and accelerated order laws side by side (CSV + SVG).

    out_dir must not be empty, and the pmfs check lam and k_max, before
    out_dir is made, so a rejected call makes none."""
    if out_dir == "":
        raise ConfigurationError("out_dir (--out) is an empty path")
    poisson = truncated_poisson_pmf(lam, k_max)
    accelerated = accelerated_poisson_pmf(lam, k_max)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, svg_path = _write_table(out, "priors",
                                      {"poisson": poisson, "accelerated": accelerated},
                                      f"order laws, mean {lam:g}", "pmf")
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

    for name, text in (("run", "single chain run from a config file"),
                       ("replicate", "replication sweep, corrected vs legacy")):
        p_cfg = sub.add_parser(name, help=text)
        p_cfg.add_argument("--config", required=True)
        p_cfg.add_argument("--out", help="override the configured output directory")

    p_val = sub.add_parser("validate", help="run a named verification suite")
    p_val.add_argument("--suite", required=True)

    p_plot = sub.add_parser("priors-plot", help="emit plain vs accelerated order laws")
    p_plot.add_argument("--lambda", dest="lam", type=float, required=True)
    p_plot.add_argument("--kmax", type=int, default=32)
    p_plot.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return validate_command(args.suite)
        if args.command == "priors-plot":
            res = priors_plot(args.lam, args.kmax, args.out)
            written = [res["csv"], res["svg"]]
        else:
            cfg = parse_config(path=args.config)
            if args.out is not None:
                cfg = replace(cfg, out_dir=args.out)
            if args.command == "run":
                res = run_experiment(cfg)
                written = [res["trace"], res["components"], res["summary"]]
            else:
                res = replicate(cfg)
                written = [res["aggregate_csv"], res["aggregate_svg"]]
        for path in written:
            print(f"wrote {path}")
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


if __name__ == "__main__":
    raise SystemExit(main())
