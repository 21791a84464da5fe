"""What the benchmark's tracer reads from a chain result, pinned on both drivers.

``bench/tracer.py`` takes each chain's k series, length and move tallies from
its result in the ``_on_chain`` hook; a change to ``ChainOutput`` that drops
what the hook reads fails here rather than in a traced benchmark run.  The
installed tracer must also see each driver once per call: a joint chain that
ran through the public ``run_chain`` would count its moves twice.
"""
import importlib.util
from pathlib import Path

import numpy as np

from transjump import core, experiment
from transjump.birthdeath import BirthDeathSchedule, bod_move_set
from transjump.core import VarDimState, rng_stream, run_chain
from transjump.experiment import run_joint_chain
from transjump.sinusoid import PriorOnlyTarget, synthesize

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chain_hook_reads_k_column_lengths_and_tallies():
    target = PriorOnlyTarget(5.0, 32)
    plain = run_chain(target, bod_move_set(target, BirthDeathSchedule.green(5.0, 32, 0.25)),
                      VarDimState(), 3000, 300, rng_stream(40, 1))
    y = synthesize((0.63, 0.68, 0.73), (20.0, 6.32, 20.0), 7.0, 64, rng_stream(40))
    joint = run_joint_chain(y, n_iter=400, burn_in=50, lambda_prior=(1.0, 1e-3),
                            delta2_prior=(2.0, 100.0), rng=rng_stream(40, 2))
    tracer = load_tracer().Tracer()
    results = {"core": plain, "experiment": joint}
    for layer, result in results.items():
        tracer._on_chain(layer)(result)

    for layer, result in results.items():
        [series] = tracer.k_series[layer]
        kept = np.frombuffer(result.k, dtype=np.int64)[result.config["burn_in"]:]
        assert series.dtype == np.int64
        np.testing.assert_array_equal(series, kept)
        assert tracer.chain_steps[layer] == result.config["n_iter"] == len(result.k)
    labels = set(plain.proposals) | set(joint.proposals)
    assert {"birth", "death", "lambda", "delta2", "update"} <= labels
    assert tracer.tallies == {
        label: [plain.proposals.get(label, 0) + joint.proposals.get(label, 0),
                plain.acceptances.get(label, 0) + joint.acceptances.get(label, 0)]
        for label in labels}


def test_installed_tracer_sees_each_driver_once():
    importlib.import_module("transjump.cli")  # the tracer wraps the CLI and validation too
    target = PriorOnlyTarget(5.0, 32)
    moves = bod_move_set(target, BirthDeathSchedule.green(5.0, 32, 0.25))
    y = synthesize((0.63, 0.68, 0.73), (20.0, 6.32, 20.0), 7.0, 64, rng_stream(41))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        outs = (core.run_chain(target, moves, VarDimState(), 500, 50, rng_stream(41, 1)),
                experiment.run_joint_chain(y, n_iter=400, burn_in=40, lambda_prior=(1.0, 1e-3),
                                           delta2_prior=(2.0, 100.0), rng=rng_stream(41, 2)))
    finally:
        tracer.uninstall()

    fired = tracer.fired()
    assert fired["core.run_chain"] == fired["experiment.run_joint_chain"] == 1
    assert tracer.chain_steps == {"core": 500, "experiment": 400}
    assert {"birth", "death", "update"} <= set(tracer.tallies)
    tracer.check_tallies()
    # Every decision goes through the one accept step, which tallies it.
    assert fired["core.mhg_accept"] == sum(sum(out.proposals.values()) for out in outs)
