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


def test_the_exact_oracle_stays_off_the_parity_search():
    # oracles stands on core, the kernels and the errors, and on parity
    # for its public coset search only; the exact search and its
    # candidate stream, the reference the other searches are tested
    # against, name nothing from parity
    path = SRC / "oracles.py"
    assert _imported_modules(path) == {"_kernels", "core", "errors", "parity"}
    tree = ast.parse(path.read_text())
    from_parity = {"parity"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("parity"):
            from_parity.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(sub, ast.Name) and sub.id in from_parity for sub in ast.walk(node.value)
        ):
            from_parity.update(target.id for target in node.targets if isinstance(target, ast.Name))
    assert from_parity > {"parity"}, "the module-level names taken from parity went unseen"
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    # the two functions and the module's functions they call, in turn
    todo, seen = ["exact_inv_kp", "_exact_candidates"], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        named = {sub.id for sub in ast.walk(functions[name]) if isinstance(sub, ast.Name)}
        assert not named & from_parity, (name, sorted(named & from_parity))
        todo.extend(named & functions.keys() - seen)
    assert {"_validate_kp", "_stray"} <= seen, seen
