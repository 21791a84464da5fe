"""Config parsing, file outputs, reproducibility and the command-line surface."""
import warnings

import numpy as np
import pytest

from transjump.cli import (
    main,
    parse_config,
    priors_plot,
    read_signal,
    replicate,
    run_experiment,
    serialize_config,
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
        with pytest.raises(ConfigurationError, match="not both"):
            parse_config(text="model.lambda = 5\nmodel.lambda_prior = 1,0.001")

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
    ])
    def test_unusable_model_or_truth_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_config(text=text)

    def test_round_trip_identity(self):
        cfg = parse_config(text="""
            io.out = results
            sampler.n_iter = 4000
            sampler.burn_in = 50
            sampler.seed = 99
            sampler.ratio_mode = legacy
            model.delta2 = 42.5
            experiment.replications = 7
        """)
        assert parse_config(text=serialize_config(cfg)) == cfg

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("TRANSJUMP_SEED", "777")
        assert parse_config(text="sampler.seed = 5").seed == 777
        monkeypatch.setenv("TRANSJUMP_SEED", "many")
        with pytest.raises(ConfigurationError):
            parse_config(text="")


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

    def test_outputs_byte_stable(self, tmp_path):
        cfg = flat_config(tmp_path, n_iter=200, burn_in=50)
        first = run_experiment(cfg, out_dir=tmp_path / "a")
        second = run_experiment(cfg, out_dir=tmp_path / "b")
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
        a = replicate(cfg, out_dir=tmp_path / "a")["aggregate_csv"].read_bytes()
        b = replicate(cfg, out_dir=tmp_path / "b")["aggregate_csv"].read_bytes()
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

    def test_priors_plot_command(self, tmp_path, capsys):
        code = main(["priors-plot", "--lambda", "5", "--kmax", "12",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "priors.csv").exists()

    @pytest.mark.parametrize("args", [["--lambda", "nan"], ["--lambda", "inf"],
                                      ["--lambda", "0"], ["--lambda", "5", "--kmax", "-1"]])
    def test_bad_priors_plot_arguments_are_config_errors(self, tmp_path, capsys, args):
        assert main(["priors-plot", *args, "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "priors.csv").exists()

    @pytest.mark.parametrize("suite, lines", [
        ("toy-stationarity", [
            "PASS  stationary law TV vs normalized target (worst of 20 toys): "
            "value=7.91768e-13 (required < 1e-10)",
            "PASS  detailed balance cell residual (worst of 20 toys): "
            "value=3.46945e-18 (required < 1e-12)",
        ]),
        ("ratio-cancellation", [
            "PASS  birth ratio vs closed form, max relative error over 1000 configs: "
            "value=2.36986e-14 (required < 1e-09)",
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

    def test_non_finite_signal_is_config_error(self, tmp_path, capsys):
        signal = tmp_path / "signal.txt"
        signal.write_text("0.5\nnan\n-0.5\n")
        config = tmp_path / "run.cfg"
        config.write_text(f"io.signal = {signal}\nio.out = {tmp_path / 'out'}\n"
                          "sampler.n_iter = 30\nsampler.burn_in = 5\n")
        assert main(["run", "--config", str(config)]) == 2
        assert "configuration error" in capsys.readouterr().err
