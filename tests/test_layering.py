"""Which package modules import which: the reference oracles stay off
the production paths, and the parity search stands on core and the
kernels alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arcinvert"


def _imported_modules(path):
    """The package modules that the module at path imports, by short
    name, whether by relative or by absolute import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.level == 0 and (node.module or "").startswith("arcinvert"):
                module = node.module.partition(".")[2] or None
            else:
                continue
            if module is None:  # from . import a, b
                names.update(alias.name for alias in node.names)
            else:
                names.add(module.split(".")[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _dot, rest = alias.name.partition(".")
                if top == "arcinvert" and rest:
                    names.add(rest.split(".")[0])
    return names


def test_only_the_front_ends_and_the_reductions_import_the_oracles():
    # the package front end and the CLI re-export the oracles, and the
    # reductions use the planted-optimum solvers; no other module may
    # lean on a reference implementation
    importers = sorted(path.stem for path in SRC.glob("*.py") if "oracles" in _imported_modules(path))
    assert set(importers) <= {"__init__", "cli", "reductions"}, importers


def test_the_parity_search_imports_no_higher_layer():
    imported = _imported_modules(SRC / "parity.py")
    assert imported, "parity.py imports nothing from the package"
    assert not imported & {"oracles", "feasibility", "approx", "simulation", "obstruction"}, imported
