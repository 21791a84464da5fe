"""Span recording around calls into transjump's public functions.

The tracer wraps each function named in ``SPANS`` from outside the package:
it replaces the function object in every ``transjump`` module that holds it
(the defining module and every module that imported the name), so a call made
through any binding is recorded.  Spans (name, start, end, parent, run id) are
kept in compact arrays in memory and written out when the benchmark ends.
``uninstall`` restores every original binding.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, attribute path).  A dotted attribute path names a method
# or classmethod, which is patched once on its class.
SPANS = (
    ("core.run_chain", "transjump.core", "run_chain"),
    ("core.select_move", "transjump.core", "select_move"),
    ("core.mhg_accept", "transjump.core", "mhg_accept"),
    ("birthdeath.birth", "transjump.birthdeath", "birth_propose_unsorted"),
    ("birthdeath.death", "transjump.birthdeath", "death_propose"),
    ("birthdeath.schedule_green", "transjump.birthdeath", "BirthDeathSchedule.green"),
    ("sinusoid.log_density", "transjump.sinusoid", "SinusoidPosterior.log_density"),
    ("sinusoid.prior_log_density", "transjump.sinusoid", "PriorOnlyTarget.log_density"),
    ("sinusoid.log_target", "transjump.sinusoid", "sinusoid_log_target"),
    ("sinusoid.lambda_normalizer", "transjump.sinusoid", "log_truncated_poisson_normalizer"),
    ("sinusoid.sample_lambda", "transjump.sinusoid", "sample_lambda"),
    ("sinusoid.sample_delta2", "transjump.sinusoid", "sample_delta2"),
    ("sinusoid.frequency_update", "transjump.sinusoid", "frequency_update_move"),
    ("sinusoid.cholesky", "numpy.linalg", "cholesky"),
    ("experiment.run_joint_chain", "transjump.experiment", "run_joint_chain"),
    ("oracle.transition_matrix", "transjump.oracle", "build_transition_matrix"),
    ("oracle.stationary", "transjump.oracle", "stationary_distribution"),
    ("oracle.quadrature", "transjump.oracle", "quadrature_posterior_k"),
    ("validation.toy_stationarity", "transjump.validation", "toy_stationarity"),
    ("cli.run_experiment", "transjump.cli", "run_experiment"),
    ("cli.replicate", "transjump.cli", "replicate"),
)

# Spans whose return value is a proposal; the next mhg_accept decides it.
PROPOSALS = {"birthdeath.birth": "birth", "birthdeath.death": "death",
             "sinusoid.frequency_update": "update"}


def _namespaces(module_name: str) -> list:
    """Modules that may hold a binding of a name defined in ``module_name``."""
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "transjump" or n.startswith("transjump."))]
    if not module_name.startswith("transjump"):
        mods.insert(0, sys.modules[module_name])
    return mods


class Tracer:
    """Records spans of wrapped calls; one instance per traced segment."""

    def __init__(self):
        self.names: list[str] = [name for name, _, _ in SPANS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._pending: str | None = None
        # (label, accepted) -> count, from mhg_accept results
        self.accepts: Counter = Counter()
        # label -> [proposals, acceptances], from the chain runners' own tallies
        self.tallies: dict[str, list[int]] = {}
        self.chain_steps: Counter = Counter()
        self.k_series: dict[str, list[np.ndarray]] = {"core": [], "experiment": []}
        self.emit_bytes: list[int] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "core.mhg_accept": self._on_accept,
            "core.run_chain": self._on_chain("core"),
            "experiment.run_joint_chain": self._on_chain("experiment"),
            "cli.run_experiment": self._on_emit,
        }
        for label in PROPOSALS:
            hooks[label] = self._on_proposal(label)
        try:
            for name, module_name, attr in SPANS:
                self._install_one(name, module_name, attr, hooks.get(name))
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, name, module_name, attr, hook) -> None:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, hook))
            else:
                wrapped = self._wrap(name, raw, hook)
            self._patch(cls, meth, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, hook)
        for ns in _namespaces(module_name):
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patch(ns, key, wrapped)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _wrap(self, name, fn, hook):
        nid = self._ids[name]
        names, parents, runs = self.name_id, self.parent, self.run
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(result)
            return result

        return wrapper

    # -- return hooks -----------------------------------------------------

    def _on_proposal(self, label):
        def hook(_result):
            self._pending = PROPOSALS[label]
        return hook

    def _on_accept(self, accepted) -> None:
        """Attribute an accept/reject to the proposal it decided.

        A proposal span sets the pending label; an mhg_accept made inside
        another span (the lambda and delta2 updates) is attributed to that span.
        """
        label = self._pending
        self._pending = None
        if label is None:
            parent = self._stack[-1]
            label = self.names[self.name_id[parent]] if parent >= 0 else "top"
        self.accepts[(label, bool(accepted))] += 1

    def _on_chain(self, layer):
        def hook(result):
            for label, n in result.proposals.items():
                row = self.tallies.setdefault(label, [0, 0])
                row[0] += n
                row[1] += result.acceptances.get(label, 0)
            self.chain_steps[layer] += result.config["n_iter"]
            self.k_series[layer].append(np.fromiter(
                (r.k for r in result.records if not r.burn_in), dtype=np.int64))
        return hook

    def _on_emit(self, paths) -> None:
        self.emit_bytes.append(sum(paths[key].stat().st_size
                                   for key in ("trace", "components", "summary")))

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {
            "name_id": name_id, "parent": parent,
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": start, "end": end, "dur": dur, "self": dur - child,
        }

    def calls(self, arr, name: str) -> np.ndarray:
        """Boolean mask of the spans named ``name``."""
        return arr["name_id"] == self._ids[name]

    def fired(self) -> Counter:
        arr = np.frombuffer(self.name_id, dtype=np.int32)
        counts = np.bincount(arr, minlength=len(self.names))
        return Counter({n: int(c) for n, c in zip(self.names, counts)})

    def accept_ratio(self, label: str) -> float:
        acc = self.accepts[(label, True)]
        total = acc + self.accepts[(label, False)]
        return acc / total if total else 0.0

    def check_tallies(self) -> None:
        """The attributed accept counts must equal the chain runners' own tallies."""
        for label in sorted(set(PROPOSALS.values()) & set(self.tallies)):
            proposed, accepted = self.tallies[label]
            seen = (self.accepts[(label, True)] + self.accepts[(label, False)],
                    self.accepts[(label, True)])
            if seen != (proposed, accepted):
                raise RuntimeError(
                    f"traced {label} (proposed, accepted)={seen} disagrees with "
                    f"the chain runner's tally {(proposed, accepted)}")

    def save(self, path) -> None:
        arr = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: arr[k] for k in ("name_id", "parent", "run", "start", "end")})
