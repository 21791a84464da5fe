"""Golden sha256 hashes of the CLI's byte-stable outputs, and the quadrature oracle's values.

The run-against-run byte-stability tests cannot see a chain that changed
consistently; these pin the files themselves.  The reference signal is
``synthesize((0.63, 0.68, 0.73), (20, 6.32, 20), 7 dB, N=64, rng_stream(5))``,
run for 1500 sweeps with 300 burn-in at seed 17.  The ``replicate`` hash is
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
        "de34a360fdf371b05137eceb69276909dd9bc4a19130516e830b9dc75daccbfa",
        "51f9258bedc6185dfbb93556c16b22636602dc5c5ccbf1eea85d58f1721f4313",
        "48466dc2a04d71ba2be641bd5fd8cd7f1e7b55a1b604500a0ffdcbe8af57c15f")),
    "legacy": ("sampler.ratio_mode = legacy", (
        "9aae693cd0ae27f211e5896398ece001a44b535ffc5f99e0037743b0789a6602",
        "e0a7d4529f3acf8da699f26326f709e6a0202640601fc3e6a6aef4476371b179",
        "e45851ca52f503f5504c919d19060e18e798195d6ebae7d755e797f87607fc07")),
    "sorted": ("sampler.representation = sorted", (
        "d676dbca0c34c719434789ffe15a2605b738970491544ebe75e849d1eb9ce80e",
        "6027dc1aa8aa924b1be7679b53dc2f205da1a8e445f8db220efd5a8ddeedfa17",
        "5750242ba4a4e18270b59dce8417acbeaade673fb859f170af7375beaba0e26f")),
    "fixed": ("model.lambda = 3\nmodel.delta2 = 50", (
        "544a398fa1ae17e9e31c1f4303a2cf10ab6e882d6e26f0cfe0e6b8d30098e4fb",
        "eb8eb0864be8c4934fe8d929266faff5b4b4ef4bc31e3f727fec1f7f84d5c3a6",
        "7476b68e12f00d7c95437808ae7fcd0862b8e20f1698c3ab080ead8a35cdc5b9")),
}
REPLICATE = "b7c5441e48540b0db02cef2f24947be2e6100d13bcb5e383bf443d4f5d975a53"
# quadrature_posterior_k on a one-tone signal (N = 32, 20 dB) at delta2 = 100,
# lam = 1, k_max = 2 and 200 grid points: P(k = 0), P(k = 1), P(k = 2).
QUADRATURE = (1.8604680445490663e-24, 0.9803183535507479, 0.01968164644925216)
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
    assert tuple(quadrature_posterior_k(y, 100.0, 1.0, 2, 200)) == QUADRATURE
