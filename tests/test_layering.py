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


def _hinted_cut_calls(path):
    """The top-level functions of the module at path that call
    karc_deficient_cut with its fourth argument, the after hint."""
    callers = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "karc_deficient_cut" and (
                len(node.args) > 3 or any(kw.arg == "after" for kw in node.keywords)
            ):
                callers.add(top.name)
    return callers


def test_only_the_pair_searches_pass_the_cut_hint():
    # the oracles and the parity search ask every question unhinted, so
    # that the references the tests compare against stay independent of
    # the hinted reaches
    hinted = {
        f"{path.stem}.{name}" for path in SRC.glob("*.py") for name in _hinted_cut_calls(path)
    }
    assert hinted == {"approx._pair_search", "approx._greedy_pairs"}, hinted
