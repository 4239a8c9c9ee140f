"""perfbench's tracer on the package: it counts the GF(2) basis of the
coset search under its oracles name, and its uninstall puts back every
binding it wrapped."""

import importlib.util
import inspect
import sys
from pathlib import Path

from arcinvert import MultiDigraph, core, feasibility, parity

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _bindings():
    """Every function and class bound in a package module, and the two
    methods the tracer wraps."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "arcinvert" or mod_name.startswith("arcinvert.")):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    out[mod_name, attr] = obj
    out["Gf2Basis.add"] = parity.Gf2Basis.__dict__["add"]
    out["MultiDigraph.underlying"] = core.MultiDigraph.__dict__["underlying"]
    return out


def test_tracer_counts_the_coset_search_basis_and_uninstalls(monkeypatch):
    # n = 5 is below threshold(1, 3) = 6, so the decision runs the coset
    # search, whose span takes six Gf2Basis.add calls
    tracing = _load_tracing(monkeypatch)
    D = MultiDigraph(5, [(0, 3), (0, 4), (2, 1), (3, 1), (3, 2), (4, 3)])
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verdict = feasibility.is_kp_invertible(D, 1, 3, witness=True)
    finally:
        tracer.uninstall()
    assert verdict.reason == "kernel-exhaustive"
    assert [list(s) for s in verdict.witness.sets] == [[0, 1, 3], [0, 3, 4]]
    totals, _direct, _cells = tracer.totals()
    assert totals["feasibility.is_kp_invertible"]["calls"] == 1
    assert totals["oracles.Gf2Basis.add"]["calls"] == 6
    after = _bindings()
    assert all(after[key] is obj for key, obj in before.items())
