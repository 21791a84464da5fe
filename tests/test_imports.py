"""Every imported name is referenced in its module, and every public definition somewhere.

The import scan covers the package modules (except ``__init__``, whose imports
are its public surface) and the test modules.  An unused import reads as a live
dependency; no linter ships with the project, so this test is the check.  The
definition scan keeps public code that only its own unit test calls out of the
package, and a fresh interpreter shows what importing the CLI pulls in.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "transjump").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")))


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

PACKAGE = sorted(p for p in (ROOT / "src" / "transjump").glob("*.py") if p.name != "__init__.py")
CALLERS = sorted((ROOT / "src" / "transjump").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


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


def referenced_names(source: str) -> set[str]:
    """Names read as a bare name or as an attribute; an import alone is not a reference."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unreferenced(definitions: list[str], references: set[str]) -> list[str]:
    return [name for name in definitions if name.rpartition(".")[2] not in references]


def test_definition_scan_flags_only_unreferenced_names():
    package = ("class A:\n    def used(self): pass\n    def spare(self): pass\n"
               "    def _private(self): pass\n"
               "def called(): pass\ndef orphan(): pass\ndef _helper(): pass\n")
    caller = ("from pkg import orphan\nimport pkg\n"
              "pkg.called(); x = A(); x.used()\n")
    assert public_definitions(package) == ["A", "A.used", "A.spare", "called", "orphan"]
    assert unreferenced(public_definitions(package),
                        referenced_names(caller)) == ["A.spare", "orphan"]


def test_every_public_definition_is_referenced():
    references = set().union(*(referenced_names(p.read_text()) for p in CALLERS))
    definitions = [f"{p.stem}.{name}" for p in PACKAGE
                   for name in public_definitions(p.read_text())]
    assert unreferenced(definitions, references) == []


def test_cli_import_leaves_scipy_special_out():
    """The package's one log-sum-exp is its own, so scipy.special is never loaded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, transjump.cli; print('scipy.special' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
