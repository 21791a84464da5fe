"""Golden sha256 hashes of the CLI's byte-stable outputs, and the quadrature oracle's values.

The run-against-run byte-stability tests cannot see a chain that changed
consistently; these pin the files themselves.  The reference signal is
``synthesize((0.63, 0.68, 0.73), (20, 6.32, 20), 7 dB, N=64, rng_stream(5))``,
run for 1500 sweeps with 300 burn-in at seed 17; the ``flat`` run reads and
checks that signal, then runs on the prior alone.  The ``replicate`` hash is
taken over every file it writes, in name order, each as its name followed by
its bytes.  The values are those of IEEE-754 double arithmetic with the
platform's libm and BLAS; a port to another platform may re-record them,
once, with a note saying why.
"""
import hashlib

import pytest

from transjump.cli import main, parse_config, replicate, run_experiment, write_signal
from transjump.core import rng_stream
from transjump.oracle import quadrature_posterior_k
from transjump.sinusoid import synthesize

RUNS = {
    "corrected": ("", (
        "da931ceb85d43095cf22f9792a1fae69dab48922acadf4e63809083dc5c2aed9",
        "42535fef4120576f982a68a8fed3cdcab7aafd8c72e9948c6f27aa3d0fbc061a",
        "bcc370d761119188cd31e43bfdf29b5de7ce8a88ebfb72eec6710bd738d31a95")),
    "legacy": ("sampler.ratio_mode = legacy", (
        "0e8afdb1b50cf054863cb2c2cade2c292e9e9162a28b1a0d3a38833bc7667103",
        "f534aa8c780c39c88c8c542fb6f0dbe610f26b19ee371aac42b08adc6d3df95b",
        "6dcccb11fa8a4dcf62c3e0b5be922b78705fdf6645ad2b16e50dedef3b576bfa")),
    "sorted": ("sampler.representation = sorted", (
        "09633913d1d65c1686a2f7be9f99b55f8f713c159362e6f51089c756671a1693",
        "1d8978102f148f46245ec5b0b8454c3b4e2c642bab2857f4545153803273682f",
        "7bc0cddf7a01f62d9bf2de4cc2c322e602a626f972306d151db56cea53560cb9")),
    "fixed": ("model.lambda = 3\nmodel.delta2 = 50", (
        "544a398fa1ae17e9e31c1f4303a2cf10ab6e882d6e26f0cfe0e6b8d30098e4fb",
        "eb8eb0864be8c4934fe8d929266faff5b4b4ef4bc31e3f727fec1f7f84d5c3a6",
        "7476b68e12f00d7c95437808ae7fcd0862b8e20f1698c3ab080ead8a35cdc5b9")),
    "flat": ("model.flat_likelihood = true", (
        "c3c279624e5e39fa07755836362cb288fe085320176501de926f7eb848764ca1",
        "eb160b0fba44124d4e7e546c77547e7f605b6ba610e35c0f69eb302b9afe1d56",
        "8339fa86a87406dda9d038a90688d0c50e0d5ee0283d2376994771860ef46206")),
}
REPLICATE = "ab9502992b8e0df83d597f120405474cd376858c240c040dffc11787fa328f4f"
# quadrature_posterior_k on a one-tone signal (N = 32, 20 dB) at delta2 = 100,
# lam = 1, k_max = 2 and 200 grid points: P(k = 0), P(k = 1), P(k = 2).
# Re-recorded once when the oracle's projection norms came to be gathered from
# one Gram table per grid and its order-2 sum to run over i < j: the norms are
# no longer bit for bit the scalar path's.  The law from the scalar norms over
# the full G x G grid is QUADRATURE_SCALAR, which the new one stays within
# 1e-14 of.
QUADRATURE = (1.8604680445492492e-24, 0.9803183535507466, 0.019681646449253392)
QUADRATURE_SCALAR = (1.8604680445490663e-24, 0.9803183535507479, 0.01968164644925216)
PRIORS = ("c0b097bd085a03ef1560f145b18ed6128506372b89c4caeafd340e2a72f453c7",
          "cc98038cc2914dbcae67efa6bc1143c9bd46cb35a374f31732a22e18e302b295")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(RUNS))
def test_reference_run_hashes(tmp_path, name):
    extra, expected = RUNS[name]
    signal = tmp_path / "signal.txt"
    write_signal(signal, synthesize((0.63, 0.68, 0.73), (20, 6.32, 20), 7.0, 64,
                                    rng_stream(5)))
    cfg = parse_config(text=f"io.signal = {signal}\nio.out = {tmp_path / 'out'}\n"
                            "sampler.n_iter = 1500\nsampler.burn_in = 300\n"
                            f"sampler.seed = 17\n{extra}")
    paths = run_experiment(cfg)
    assert tuple(sha256(paths[k]) for k in ("trace", "components", "summary")) == expected


def test_replicate_hash(tmp_path):
    cfg = parse_config(text=f"io.out = {tmp_path}\nsampler.n_iter = 600\n"
                            "sampler.burn_in = 100\nsampler.seed = 3\n"
                            "experiment.replications = 3")
    replicate(cfg)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == REPLICATE


def test_priors_plot_hashes(tmp_path):
    assert main(["priors-plot", "--lambda", "5", "--kmax", "32",
                 "--out", str(tmp_path)]) == 0
    assert (sha256(tmp_path / "priors.csv"), sha256(tmp_path / "priors.svg")) == PRIORS


def test_quadrature_oracle_values():
    y = synthesize((0.63,), (20.0,), 20.0, 32, rng_stream(1, 0))
    pmf = quadrature_posterior_k(y, 100.0, 1.0, 2, 200)
    assert tuple(pmf) == QUADRATURE
    assert max(abs(p - q) for p, q in zip(pmf, QUADRATURE_SCALAR)) <= 1e-14
