"""Every imported name is referenced in its module, and every public definition somewhere.

The import scan covers the package modules, ``__init__`` included, and the test
modules.  An unused import reads as a live dependency, and a re-export in
``__init__`` as a second way to import a name; no linter ships with the
project, so this test is the check.  The definition scan keeps public code that
only its own unit test calls out of the package, and with it the fields of
public classes that no package or benchmark code reads; a fresh interpreter
shows what importing the CLI pulls in, and the README's library example runs
as written.
"""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from transjump.oracle import tv_distance
from transjump.sinusoid import accelerated_poisson_pmf

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "transjump").glob("*.py"))
MODULES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node in the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # An attribute chain such as np.zeros starts with the Name np.
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_only_unreferenced_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import pi, tau\nx: np.ndarray = pi\n")
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# -- public code that nothing calls -----------------------------------------

CALLERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))


def public_definitions(source: str) -> list[str]:
    """Public module-level functions and classes, and the public methods of those classes."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names.extend(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return names


def public_fields(source: str) -> list[str]:
    """The annotated fields of public module-level classes, as ``Class.field``."""
    return [f"{node.name}.{item.target.id}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and not item.target.id.startswith("_")]


def referenced_names(source: str) -> tuple[set[str], set[str], set[str]]:
    """(names read bare or as attributes, names a method may go by, attributes read).

    An import alone is not a reference.  A method counts as referenced only
    through an attribute read, in a file that stores no attribute of that
    name: there ``self.mean_k[i]`` reads the file's own data, not a method.
    A field counts as referenced through any attribute read; a store is not one.
    """
    tree = ast.parse(source)
    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    read = {node.attr for node in attributes if isinstance(node.ctx, ast.Load)}
    stored = {node.attr for node in attributes if isinstance(node.ctx, ast.Store)}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in attributes}, read - stored, read


def unreferenced(definitions: list[str], references: list[tuple[set[str], ...]]) -> list[str]:
    """The definitions that no file's references name; ``Class.method`` needs a method read."""
    names = set().union(*(r[0] for r in references))
    methods = set().union(*(r[1] for r in references))
    return [name for name in definitions
            if (name.partition(".")[2] not in methods if "." in name else name not in names)]


def unread_fields(fields: list[str], references: list[tuple[set[str], ...]]) -> list[str]:
    """The ``Class.field`` names whose field no file reads as an attribute."""
    read = set().union(*(r[2] for r in references))
    return [name for name in fields if name.partition(".")[2] not in read]


def test_definition_scan_flags_only_unreferenced_names():
    package = ("class A:\n    def used(self): pass\n    def spare(self): pass\n"
               "    def mean_k(self): pass\n    def _private(self): pass\n"
               "def called(): pass\ndef orphan(): pass\ndef _helper(): pass\n")
    caller = ("from pkg import orphan\nimport pkg\n"
              "pkg.called(); x = A(); x.used()\n")
    # A same-named attribute the file stores is its own data, not a call of A.mean_k.
    namesake = ("class B:\n    def __init__(self): self.mean_k = {}\n"
                "    def f(self): self.mean_k[0]\n")
    assert public_definitions(package) == ["A", "A.used", "A.spare", "A.mean_k", "called",
                                           "orphan"]
    assert unreferenced(public_definitions(package),
                        [referenced_names(caller), referenced_names(namesake)]) == [
        "A.spare", "A.mean_k", "orphan"]
    assert unreferenced(["A.mean_k"], [referenced_names("a.mean_k()\n")]) == []
    # A field counts only through an attribute read: a store or a bare name is not one.
    record = "class R:\n    size: int\n    spare: int = 0\n    _own: int = 0\n"
    user = "r = R(1); r.size + 1; r.spare = 2; spare = 3\n"
    assert public_fields(record) == ["R.size", "R.spare"]
    assert unread_fields(public_fields(record), [referenced_names(user)]) == ["R.spare"]


def test_every_public_definition_is_referenced():
    references = [referenced_names(p.read_text()) for p in CALLERS]
    assert [f"{p.stem}.{name}" for p in PACKAGE
            for name in unreferenced(public_definitions(p.read_text()), references)
            + unread_fields(public_fields(p.read_text()), references)] == []


def benchmark_reads(source: str) -> set[str]:
    """``module.name`` for each attribute read off a module imported ``from transjump``."""
    tree = ast.parse(source)
    modules = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "transjump"
               for a in node.names}
    return {f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_every_name_the_benchmark_reads_resolves():
    """A name the benchmark reads that the package no longer has would surface only
    as a failed benchmark run; here it fails the suite."""
    reads = set().union(*(benchmark_reads(p.read_text())
                          for p in sorted((ROOT / "bench").glob("*.py"))))
    assert {"core.VarDimState", "core.run_chain", "cli.replicate"} <= reads
    assert [name for name in sorted(reads) if not hasattr(
        importlib.import_module(f"transjump.{name.partition('.')[0]}"),
        name.partition(".")[2])] == []


def test_schedule_settings_are_read_in_birthdeath_only():
    """The ratio modes and representations have one owner: BirthDeathSchedule checks
    them, and every other module reaches the rule by building a schedule."""
    readers = sorted(p.name for p in (ROOT / "src" / "transjump").glob("*.py")
                     if {"RATIO_MODES", "REPRESENTATIONS"} & referenced_names(p.read_text())[0])
    assert readers == ["birthdeath.py"]


def test_chains_are_built_in_experiment_only():
    """run_joint_chain builds every birth-or-death chain: outside birthdeath, only
    experiment picks the sorted target, and only experiment and the toy oracle,
    which runs each move's proposal on every path of its draws, read the mixture."""
    def readers(name):
        return sorted(p.name for p in (ROOT / "src" / "transjump").glob("*.py")
                      if p.name != "birthdeath.py" and name in referenced_names(p.read_text())[0])
    assert readers("SortedRestriction") == ["experiment.py"]
    assert readers("bod_move_set") == ["experiment.py", "oracle.py"]


def test_ratio_is_read_in_birthdeath_only():
    """move_log_ratio is the one ratio code path and only the kernels call it: the
    toy oracle reaches it through their proposals, so it proves their draws too."""
    readers = sorted(p.name for p in PACKAGE
                     if "move_log_ratio" in referenced_names(p.read_text())[0])
    assert readers == ["birthdeath.py"]


def test_moves_are_decided_in_core_only():
    """ChainOutput.accept is the one accept step: every proposal of every sweep reaches
    mhg_accept through it, so no other package module reads the name."""
    readers = sorted(p.name for p in PACKAGE if "mhg_accept" in referenced_names(p.read_text())[0])
    assert readers == ["core.py"]


# One fresh interpreter: the prior-only work and the quadrature oracle first,
# then one factorisation.
PRIOR_ONLY_THEN_FACTORISE = """\
import json, sys
def loaded():
    return ['scipy.special' in sys.modules, 'scipy.linalg' in sys.modules]
import transjump
seen = {'import': loaded()}
import transjump.cli
from transjump import birthdeath, core, oracle, sinusoid
seen['cli'] = loaded()
target = sinusoid.PriorOnlyTarget(5.0, 32)
sched = birthdeath.BirthDeathSchedule.green(5.0, 32, 0.25, ratio_mode='corrected')
out = core.run_chain(target, birthdeath.bod_move_set(target, sched), core.VarDimState(),
                     n_iter=2000, burn_in=500, rng=core.rng_stream(11, 0))
seen['run_chain'] = loaded() + [len(out.k)]
code = transjump.cli.main(['priors-plot', '--lambda', '5', '--kmax', '12', '--out', sys.argv[1]])
seen['priors-plot'] = loaded() + [code]
y = sinusoid.synthesize((0.63,), (20.0,), 20.0, 32, core.rng_stream(7, 0))
pmf = oracle.quadrature_posterior_k(y, 100.0, 1.0, 2, 120)
seen['quadrature'] = loaded() + [len(pmf)]
seen['norm'] = repr(sinusoid._projection_norm2(y, (0.63,)))
seen['factorised'] = loaded()
print(json.dumps(seen))
"""


def test_no_factorisation_leaves_scipy_special_and_linalg_out(tmp_path):
    """Only the first scalar factorisation loads scipy.linalg; nothing loads scipy.special.

    Importing the package and the CLI, a prior-only chain and ``priors-plot``
    never factorise a design, and the quadrature oracle solves its stacked
    factors without LAPACK's dtrtrs, so they leave scipy.linalg (~0.3 s to
    import) unloaded; the package's log-sum-exp and the λ normaliser's closed form
    are its own, so scipy.special stays out too.  The first projection norm
    then loads scipy.linalg and gives the same float as this process, where
    scipy.linalg is loaded up front.  A fresh interpreter is needed, since
    the test suite itself imports scipy.
    """
    from scipy.linalg.lapack import dtrtrs

    from transjump import core, sinusoid

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", PRIOR_ONLY_THEN_FACTORISE, str(tmp_path)],
                            env=env, capture_output=True, text=True, check=True)
    seen = json.loads(result.stdout.splitlines()[-1])
    y = sinusoid.synthesize((0.63,), (20.0,), 20.0, 32, core.rng_stream(7, 0))
    assert seen == {"import": [False, False], "cli": [False, False],
                    "run_chain": [False, False, 2000], "priors-plot": [False, False, 0],
                    "quadrature": [False, False, 3],
                    "norm": repr(sinusoid._projection_norm2(y, (0.63,))),
                    "factorised": [False, True]}
    assert sinusoid._dtrtrs is dtrtrs
    assert (tmp_path / "priors.csv").is_file() and (tmp_path / "priors.svg").is_file()


def test_readme_library_example_runs(capsys):
    """The README's library example runs as written, importing each name from the
    module that defines it; its legacy chain lands on the law its comment names."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library example\n", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(compile(example.split("```", 1)[0], "README.md", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) >= 3
    assert tv_distance(namespace["out"].k_frequencies(32), accelerated_poisson_pmf(5.0, 32)) < 0.02
