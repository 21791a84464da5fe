"""Config parsing, file outputs, reproducibility and the command-line surface."""
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from transjump.cli import (
    RunConfig,
    main,
    parse_config,
    priors_plot,
    read_signal,
    replicate,
    run_experiment,
    write_signal,
)
from transjump.core import ConfigurationError, rng_stream
from transjump.oracle import tv_distance
from transjump.sinusoid import truncated_poisson_pmf


class TestParseConfig:
    def test_defaults_are_reference_settings(self):
        cfg = parse_config(text="")
        assert cfg.n_iter == 100_000
        assert cfg.burn_in == 20_000
        assert cfg.lambda_prior == (1.0, 1e-3)
        assert cfg.delta2_prior == (2.0, 100.0)
        assert cfg.k_max == 32
        assert cfg.ratio_mode == "corrected"

    def test_values_parsed_and_typed(self):
        cfg = parse_config(text="""
            # comment
            sampler.n_iter = 500
            sampler.burn_in = 100
            model.lambda = 5.0
            model.flat_likelihood = true
            experiment.omega_true = 0.63,0.68,0.73
        """)
        assert cfg.n_iter == 500
        assert cfg.lam == 5.0
        assert cfg.lambda_prior is None
        assert cfg.flat_likelihood is True
        assert cfg.omega_true == (0.63, 0.68, 0.73)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            parse_config(text="sampler.warmup = 10")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config(text="sampler.seed = 1\nsampler.seed = 2")

    def test_contradictory_lambda_settings_rejected(self):
        """A fixed value and its prior together fail in check_sweep_settings; so
        does the same pair for delta2."""
        for text, name in (("model.lambda = 5\nmodel.lambda_prior = 1,0.001", "lambda"),
                           ("model.delta2 = 100\nmodel.delta2_prior = 2,100", "delta2")):
            with pytest.raises(ConfigurationError, match=f"exactly one of {name} / {name}_prior"):
                parse_config(text=text)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config(text="sampler.n_iter = soon")
        with pytest.raises(ConfigurationError):
            parse_config(text="model.flat_likelihood = perhaps")
        with pytest.raises(ConfigurationError):
            parse_config(text="model.delta2_prior = 2.0")
        with pytest.raises(ConfigurationError):
            parse_config(text="just a line")

    def test_burn_in_bound_enforced(self):
        with pytest.raises(ConfigurationError):
            parse_config(text="sampler.n_iter = 100\nsampler.burn_in = 100")
        with pytest.raises(ConfigurationError):
            parse_config(text="sampler.n_iter = 100000\nsampler.burn_in = 200000")

    def test_experiment_defaults_are_reference_setup(self):
        cfg = parse_config(text="")
        assert cfg.omega_true == (0.63, 0.68, 0.73)
        assert cfg.amp2_true == (20.0, 6.32, 20.0)
        assert cfg.snr_db == 7.0
        assert cfg.n_obs == 64
        assert cfg.replications == 100

    def test_experiment_truth_validated(self):
        for text in ("experiment.omega_true = 0.63,0.68\nexperiment.amp2_true = 1,2,3",
                     "experiment.omega_true = 0.63,0.68,4.0",
                     "experiment.omega_true = 0.0,0.68,0.73",
                     "experiment.omega_true = 0.63,0.63,0.73",
                     "experiment.snr_db = inf",
                     "experiment.k_true = 3"):
            with pytest.raises(ConfigurationError):
                parse_config(text=text)

    @pytest.mark.parametrize("text", [
        "experiment.n_obs = 0",
        "experiment.n_obs = -3",
        "experiment.amp2_true = -20,6.32,20",
        "experiment.amp2_true = inf,6.32,20",
        "experiment.amp2_true = 0,0,0",
        "experiment.omega_true =\nexperiment.amp2_true =",
        "model.lambda = 0",
        "model.lambda = inf",
        "model.delta2 = nan",
        "model.delta2 = -1",
        "model.lambda_prior = -1,1e-3",
        "model.lambda_prior = 1,-2",
        "model.lambda_prior = nan,1",
        "model.delta2_prior = 2,-100",
        "model.delta2_prior = inf,100",
        "model.lambda_prior = 1e-300,1e300",
        "model.delta2_prior = 1e10,1e-320",
        "model.delta2_prior = 1.0000000000000002,1e300",
        "sampler.seed = -1",
        "model.lambda_prior = 1,,0.001",
        "experiment.amp2_true = 20,,6.32,20",
        "model.lambda_prior = 1,0.001,7",
        "model.delta2_prior =",
    ])
    def test_unusable_model_or_truth_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_config(text=text)

    def test_given_keys_set_their_fields_and_nothing_else(self):
        cfg = parse_config(text="""
            io.out = results
            sampler.n_iter = 4000
            sampler.burn_in = 50
            sampler.seed = 99
            sampler.ratio_mode = legacy
            model.delta2 = 42.5
            experiment.replications = 7
        """)
        assert cfg == replace(RunConfig(), out_dir="results", n_iter=4000, burn_in=50,
                              seed=99, ratio_mode="legacy", delta2=42.5,
                              delta2_prior=None, replications=7)

        # Each key alone, with a valid non-default value, sets its own field, with
        # the field's type, and nothing else; a fixed value also clears its default prior.
        alone = {
            "io.signal = sig.txt": {"signal_path": "sig.txt"},
            "io.out = results": {"out_dir": "results"},
            "sampler.n_iter = 50000": {"n_iter": 50_000},
            "sampler.burn_in = 50": {"burn_in": 50},
            "sampler.seed = 99": {"seed": 99},
            "sampler.ratio_mode = legacy": {"ratio_mode": "legacy"},
            "sampler.representation = sorted": {"representation": "sorted"},
            "sampler.k_max = 16": {"k_max": 16},
            "sampler.c = 0.3": {"c": 0.3},
            "model.lambda = 5": {"lam": 5.0, "lambda_prior": None},
            "model.lambda_prior = 2,0.5": {"lambda_prior": (2.0, 0.5)},
            "model.delta2 = 42.5": {"delta2": 42.5, "delta2_prior": None},
            "model.delta2_prior = 3,50": {"delta2_prior": (3.0, 50.0)},
            "model.flat_likelihood = true": {"flat_likelihood": True},
            "experiment.omega_true = 0.5,0.6,0.7": {"omega_true": (0.5, 0.6, 0.7)},
            "experiment.amp2_true = 10,5,10": {"amp2_true": (10.0, 5.0, 10.0)},
            "experiment.snr_db = 3.5": {"snr_db": 3.5},
            "experiment.n_obs = 32": {"n_obs": 32},
            "experiment.replications = 7": {"replications": 7},
        }
        assert {line.partition(" =")[0] for line in alone} == {
            f.metadata["key"] for f in fields(RunConfig)}
        for line, changes in alone.items():
            cfg = parse_config(text=line)
            assert cfg == replace(RunConfig(), **changes), line
            assert {name: type(getattr(cfg, name)) for name in changes} == {
                name: type(value) for name, value in changes.items()}, line

    def test_readme_lists_every_config_key(self):
        """The README's config block lists exactly the keys declared on RunConfig."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1]
        block = block.split("```", 1)[0]
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
        assert keys == {f.metadata["key"] for f in fields(RunConfig)}

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("TRANSJUMP_SEED", "777")
        assert parse_config(text="sampler.seed = 5").seed == 777
        monkeypatch.setenv("TRANSJUMP_SEED", "many")
        with pytest.raises(ConfigurationError):
            parse_config(text="")
        monkeypatch.setenv("TRANSJUMP_SEED", "-1")
        with pytest.raises(ConfigurationError):
            parse_config(text="sampler.seed = 5")


class TestSignalIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "signal.txt"
        y = rng_stream(200).standard_normal(32)
        write_signal(path, y)
        np.testing.assert_array_equal(read_signal(path), y)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "signal.txt"
        path.write_text("1.0\nnoise\n")
        with pytest.raises(ConfigurationError):
            read_signal(path)

    def test_empty_signal_rejected(self, tmp_path):
        path = tmp_path / "signal.txt"
        path.write_text("\n")
        with pytest.raises(ConfigurationError):
            read_signal(path)

    @pytest.mark.parametrize("text", ["0\n0.0\n-0\n", "1.0\nnan\n", "inf\n1.0\n"])
    def test_non_finite_or_zero_signal_rejected(self, tmp_path, text):
        path = tmp_path / "signal.txt"
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            read_signal(path)


def flat_config(tmp_path, n_iter=40, burn_in=10, seed=11, **extra):
    lines = [
        f"io.out = {tmp_path / 'out'}",
        f"sampler.n_iter = {n_iter}",
        f"sampler.burn_in = {burn_in}",
        f"sampler.seed = {seed}",
        "sampler.k_max = 8",
        "model.lambda = 5.0",
        "model.delta2 = 100.0",
        "model.flat_likelihood = true",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    return parse_config(text="\n".join(lines))


class TestRunExperiment:
    def test_missing_signal_is_listed(self, tmp_path):
        cfg = parse_config(text=f"io.out = {tmp_path}")
        with pytest.raises(ConfigurationError, match="io.signal"):
            run_experiment(cfg)

    def test_trace_row_count_matches_iterations(self, tmp_path):
        cfg = flat_config(tmp_path, n_iter=10, burn_in=2)
        paths = run_experiment(cfg)
        lines = paths["trace"].read_text().splitlines()
        assert lines[0] == "iter,k,logtarget,move,accepted,lambda,delta2"
        assert len(lines) == 11
        for name in ("trace", "components"):
            rows = paths[name].read_text().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == [str(i) for i in range(10)]

    def test_summary_frequencies_sum_to_one(self, tmp_path):
        cfg = flat_config(tmp_path, n_iter=500, burn_in=100)
        paths = run_experiment(cfg)
        rows = paths["summary"].read_text().splitlines()[1:]
        assert len(rows) == cfg.k_max + 1
        total = sum(float(r.split(",")[2]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_components_file_width(self, tmp_path):
        cfg = flat_config(tmp_path, n_iter=20, burn_in=5)
        paths = run_experiment(cfg)
        lines = paths["components"].read_text().splitlines()
        assert lines[0].split(",") == ["iter"] + [f"c{j}" for j in range(1, 9)]
        assert all(len(line.split(",")) == 9 for line in lines[1:])

    def test_csv_rows_equal_rows_formatted_from_records(self, tmp_path):
        """The column writer matches each IterationRecord formatted field by field,
        on rows at k = 0 and at k = k_max."""
        cfg = flat_config(tmp_path, n_iter=400, burn_in=50)
        cfg.k_max = 2
        paths = run_experiment(cfg)
        records = paths["result"].records
        assert {r.k for r in records} == {0, 1, 2}
        trace = [f"{i},{r.k},{r.log_target!r},{r.move},{int(r.accepted)},"
                 f"{r.lam!r},{r.delta2!r}" for i, r in enumerate(records)]
        comps = [f"{i}," + ",".join(repr(r.components[j]) if j < r.k else ""
                                    for j in range(cfg.k_max))
                 for i, r in enumerate(records)]
        assert paths["trace"].read_text().splitlines()[1:] == trace
        assert paths["components"].read_text().splitlines() == ["iter,c1,c2"] + comps

    def test_outputs_byte_stable(self, tmp_path):
        cfg = flat_config(tmp_path, n_iter=200, burn_in=50)
        first = run_experiment(replace(cfg, out_dir=tmp_path / "a"))
        second = run_experiment(replace(cfg, out_dir=tmp_path / "b"))
        for name in ("trace", "components", "summary"):
            assert first[name].read_bytes() == second[name].read_bytes()

    def test_prior_only_run_matches_order_prior(self, tmp_path):
        """Flat-likelihood run recovers the truncated Poisson within TV 0.02."""
        cfg = flat_config(tmp_path, n_iter=120_000, burn_in=10_000, seed=3)
        cfg.k_max = 32
        result = run_experiment(cfg)["result"]
        assert tv_distance(result.k_frequencies(),
                           truncated_poisson_pmf(5.0, 32)) < 0.02

    def test_signal_driven_run(self, tmp_path):
        from transjump.sinusoid import synthesize
        sig = tmp_path / "signal.txt"
        write_signal(sig, synthesize((0.63,), (20.0,), 10.0, 32, rng_stream(201)))
        cfg = parse_config(text="\n".join([
            f"io.signal = {sig}",
            f"io.out = {tmp_path / 'out'}",
            "sampler.n_iter = 300",
            "sampler.burn_in = 50",
            "sampler.k_max = 4",
        ]))
        paths = run_experiment(cfg)
        assert paths["trace"].exists()
        lam_col = [line.split(",")[5] for line in
                   paths["trace"].read_text().splitlines()[1:]]
        assert len(set(lam_col)) > 5  # hyperparameter sampling active


class TestReplicate:
    def test_single_replication_aggregate_equals_its_summary(self, tmp_path):
        cfg = flat_config(tmp_path, n_iter=100, burn_in=10,
                          **{"experiment.replications": 1})
        res = replicate(cfg)
        agg = res["aggregate"]
        np.testing.assert_array_equal(agg["corrected"], res["frequencies"]["corrected"][0])
        rows = res["aggregate_csv"].read_text().splitlines()
        assert rows[0] == "k,freq_corrected,freq_legacy"
        assert len(rows) == cfg.k_max + 2

    def test_reproducible_aggregate(self, tmp_path):
        cfg = flat_config(tmp_path, n_iter=200, burn_in=20,
                          **{"experiment.replications": 2})
        a = replicate(replace(cfg, out_dir=tmp_path / "a"))["aggregate_csv"].read_bytes()
        b = replicate(replace(cfg, out_dir=tmp_path / "b"))["aggregate_csv"].read_bytes()
        assert a == b

    def test_empty_runs_aggregate_to_zero(self, tmp_path):
        """n_iter = 0 is a valid config: every frequency reads 0, never nan."""
        cfg = flat_config(tmp_path, n_iter=0, burn_in=0,
                          **{"experiment.replications": 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = replicate(cfg)
        for mode in ("corrected", "legacy"):
            np.testing.assert_array_equal(res["aggregate"][mode], np.zeros(cfg.k_max + 1))
        assert "nan" not in res["aggregate_csv"].read_text()
        assert "nan" not in res["aggregate_svg"].read_text()

    def test_per_replication_summaries_written(self, tmp_path):
        cfg = flat_config(tmp_path, n_iter=60, burn_in=10,
                          **{"experiment.replications": 2})
        res = replicate(cfg)
        for rep in range(2):
            for mode in ("corrected", "legacy"):
                assert (res["out_dir"] / f"summary_rep{rep:03d}_{mode}.csv").exists()


@pytest.mark.parametrize("entry, changes", [
    (replicate, {"replications": 0}),
    (replicate, {"seed": -1}),
    (replicate, {"k_max": 0}),
    (run_experiment, {"seed": -1, "flat_likelihood": True}),
    (run_experiment, {"n_iter": -1, "flat_likelihood": True}),
    (replicate, {"replications": 2.5}),
    (run_experiment, {"seed": 1.5, "flat_likelihood": True}),
], ids=["replicate-no-replications", "replicate-negative-seed", "replicate-k_max-0",
        "run-negative-seed", "run-negative-n_iter", "replicate-fractional-replications",
        "run-fractional-seed"])
def test_rejected_library_config_makes_no_directory(tmp_path, entry, changes):
    """A RunConfig that never went through parse_config is checked before any
    directory is made."""
    cfg = replace(RunConfig(n_iter=10, burn_in=0, out_dir=str(tmp_path / "out")), **changes)
    with pytest.raises(ConfigurationError):
        entry(cfg)
    assert not (tmp_path / "out").exists()


class TestPriorsPlot:
    def test_csv_format_and_normalization(self, tmp_path):
        res = priors_plot(5.0, 32, tmp_path)
        lines = res["csv"].read_text().splitlines()
        assert lines[0] == "k,poisson,accelerated"
        assert len(lines) == 34
        assert res["poisson"].sum() == pytest.approx(1.0, abs=1e-12)
        assert res["accelerated"].sum() == pytest.approx(1.0, abs=1e-12)

    def test_modes(self, tmp_path):
        res = priors_plot(5.0, 32, tmp_path)
        assert res["accelerated"].argmax() == 2
        assert res["poisson"].argmax() in (4, 5)

    @pytest.mark.parametrize("lam, k_max", [(5.0, 2.5), (5.0, -1), (0.0, 8)])
    def test_rejected_settings_make_no_directory(self, tmp_path, lam, k_max):
        with pytest.raises(ConfigurationError):
            priors_plot(lam, k_max, tmp_path / "p")
        assert not (tmp_path / "p").exists()

    def test_svg_emitted(self, tmp_path):
        res = priors_plot(5.0, 16, tmp_path)
        content = res["svg"].read_text()
        assert content.startswith("<svg")
        assert 'version="1.1"' in content


class TestMain:
    def test_run_command(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("\n".join([
            f"io.out = {tmp_path / 'out'}",
            "sampler.n_iter = 30",
            "sampler.burn_in = 5",
            "sampler.k_max = 6",
            "model.lambda = 2.0",
            "model.delta2 = 100.0",
            "model.flat_likelihood = true",
        ]))
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "trace.csv" in out
        assert (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("prior", ["2,1e308", "2,5e-324"])
    def test_run_with_extreme_delta2_prior_completes(self, tmp_path, capsys, prior):
        """delta2 starts at 1e308 or 5e-324; proposals that leave the floats are rejected."""
        signal = tmp_path / "signal.txt"
        write_signal(signal, rng_stream(3).standard_normal(32))
        config = tmp_path / "run.cfg"
        config.write_text(f"io.signal = {signal}\nio.out = {tmp_path / 'out'}\n"
                          "sampler.n_iter = 200\nsampler.burn_in = 20\nsampler.k_max = 6\n"
                          f"model.delta2_prior = {prior}\n")
        assert main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert len(lines) == 201
        delta2 = [float(line.split(",")[6]) for line in lines[1:]]
        assert all(0.0 < d < math.inf for d in delta2)

    def test_priors_plot_command(self, tmp_path, capsys):
        code = main(["priors-plot", "--lambda", "5", "--kmax", "12",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "priors.csv").exists()

    def test_module_entry_point(self, tmp_path):
        """``python -m transjump`` runs the CLI from the source tree, uninstalled."""
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "transjump", "priors-plot", "--lambda", "5", "--kmax", "4",
             "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "priors.csv").is_file() and (tmp_path / "priors.svg").is_file()

    @pytest.mark.parametrize("args", [["--lambda", "nan"], ["--lambda", "inf"],
                                      ["--lambda", "0"], ["--lambda", "5", "--kmax", "-1"]])
    def test_bad_priors_plot_arguments_are_config_errors(self, tmp_path, capsys, args):
        assert main(["priors-plot", *args, "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "priors.csv").exists()

    @pytest.mark.parametrize("suite, lines", [
        ("toy-stationarity", [
            "PASS  stationary law TV vs normalized target (worst of 20 toys): "
            "value=1.2837e-16 (required < 1e-10)",
            "PASS  detailed balance cell residual (worst of 20 toys): "
            "value=3.46945e-18 (required < 1e-12)",
        ]),
        ("ratio-cancellation", [
            "PASS  birth ratio vs closed form, max relative error over 1000 configs: "
            "value=2.36986e-14 (required < 1e-09)",
        ]),
        ("prior-only", [
            "PASS  corrected chain TV vs truncated Poisson: value=0.00979563 (required < 0.02)",
            "PASS  legacy chain TV vs accelerated law: value=0.0045439 (required < 0.02)",
            "PASS  legacy chain TV vs plain truncated Poisson: value=0.656244 "
            "(required > 0.15)",
        ]),
        ("sorted-equivalence", [
            "PASS  TV between sorted and unsorted k-marginals: value=0.01272 (required < 0.03)",
        ]),
    ])
    def test_validate_prints_suite_values(self, capsys, suite, lines):
        assert main(["validate", "--suite", suite]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == lines
        assert captured.err == ""

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["validate", "--suite", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown suite" in err
        assert "toy-stationarity" in err

    def test_config_errors_exit_nonzero(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("sampler.mystery = 1")
        assert main(["run", "--config", str(config)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("config_seed, env_seed", [("-1", None), ("5", "-1")])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch,
                                           config_seed, env_seed):
        if env_seed is not None:
            monkeypatch.setenv("TRANSJUMP_SEED", env_seed)
        config = tmp_path / "run.cfg"
        config.write_text(f"io.out = {tmp_path / 'out'}\nsampler.seed = {config_seed}\n"
                          "sampler.n_iter = 30\nsampler.burn_in = 5\n"
                          "model.flat_likelihood = true\n")
        assert main(["run", "--config", str(config)]) == 2
        assert "must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("undecodable", ["config", "signal"])
    def test_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys, undecodable):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe\x00bad")
        config = tmp_path / "run.cfg"
        config.write_text(f"io.signal = {binary}\nio.out = {tmp_path / 'out'}\n"
                          "sampler.n_iter = 30\nsampler.burn_in = 5\n")
        path = binary if undecodable == "config" else config
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(binary) in err

    @pytest.mark.parametrize("signal, code", [("binary", 2), ("missing", 4), (None, 2)])
    def test_rejected_signal_leaves_no_output_directory(self, tmp_path, capsys, signal, code):
        """A signal that is not UTF-8 (exit 2), a missing signal file (exit 4) and an
        unset io.signal (exit 2) are rejected before the output directory is made."""
        (tmp_path / "binary").write_bytes(b"\xff\xfe\x00bad")
        config = tmp_path / "run.cfg"
        config.write_text(("" if signal is None else f"io.signal = {tmp_path / signal}\n")
                          + f"io.out = {tmp_path / 'out'}\n"
                          "sampler.n_iter = 30\nsampler.burn_in = 5\n")
        assert main(["run", "--config", str(config)]) == code
        assert capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, out", [
        ("run", "io.out =\n", None),
        ("run", "io.signal =\nio.out = out\n", None),
        ("run", "io.out = out\n", ""),
        ("replicate", "io.out =\n", None),
        ("replicate", "io.out = out\n", ""),
    ], ids=["run-io.out", "run-io.signal", "run-flag", "replicate-io.out", "replicate-flag"])
    def test_empty_path_is_config_error(self, tmp_path, capsys, monkeypatch, command, config,
                                        out):
        """An empty io.out, io.signal or --out is rejected, not read as the
        current directory, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(config + "sampler.n_iter = 30\nsampler.burn_in = 5\n"
                                          "model.flat_likelihood = true\n"
                                          "experiment.replications = 1\n")
        args = [command, "--config", "run.cfg"] + ([] if out is None else ["--out", out])
        assert main(args) == 2
        assert "empty path" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_empty_priors_plot_out_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["priors-plot", "--lambda", "5", "--kmax", "4", "--out", ""]) == 2
        assert "empty path" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_non_finite_signal_is_config_error(self, tmp_path, capsys):
        signal = tmp_path / "signal.txt"
        signal.write_text("0.5\nnan\n-0.5\n")
        config = tmp_path / "run.cfg"
        config.write_text(f"io.signal = {signal}\nio.out = {tmp_path / 'out'}\n"
                          "sampler.n_iter = 30\nsampler.burn_in = 5\n")
        assert main(["run", "--config", str(config)]) == 2
        assert "configuration error" in capsys.readouterr().err
