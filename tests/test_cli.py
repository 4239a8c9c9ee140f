import csv
import json

import pytest

from arcinvert import _kernels, cli, core, simulation
from arcinvert.cli import cli_dispatch
from arcinvert.core import (
    InversionFamily,
    MultiDigraph,
    apply_inversions,
    is_k_arc_strong,
    read_mdg,
    write_mdg,
)
from arcinvert.approx import approx_kp
from arcinvert.feasibility import is_kp_invertible
from arcinvert.obstruction import certificate_from_text, star_matching_obstruction
from arcinvert.oracles import exact_inv_kp
from arcinvert.simulation import simulate_pair
from arcinvert.reductions import rotative_tournament


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def _strip_millis(lines):
    return [ln for ln in lines if not ln.startswith("millis:")]


def _write_triangle(path):
    write_mdg(str(path), MultiDigraph(3, [(0, 1), (1, 2), (2, 0)]))
    return str(path)


def _write_obstruction(path):
    D, _cert = star_matching_obstruction(3)
    write_mdg(str(path), D)
    return str(path), D


def test_analyze_triangle_golden(tmp_path, capsys):
    f = _write_triangle(tmp_path / "tri.mdg")
    code, out, _err = run(capsys, "analyze", f)
    assert code == 0
    assert _strip_millis(out) == [
        f"command: arcinvert analyze {f}",
        "n: 3",
        "arcs: 3",
        "lambda: 2",
        "1-arc-strong: true",
        "2-arc-strong: false",
    ]


@pytest.mark.parametrize("k", ["0", "-3"])
def test_analyze_rejects_k_below_one(tmp_path, capsys, k):
    # as every other subcommand does: a usage error and no digest
    f = _write_triangle(tmp_path / "tri.mdg")
    code, out, err = run(capsys, "analyze", "--k", k, f)
    assert code == 2
    assert err == f"error: k must be a positive int, got {k}\n"
    assert out == []


def test_feasible_no_with_certificate(tmp_path, capsys):
    f, _D = _write_obstruction(tmp_path / "obs.mdg")
    code, out, _err = run(capsys, "feasible", "--k", "1", "--p", "3", f)
    assert code == 1
    assert "feasible: false" in out
    assert "reason: k-obstruction" in out
    cert_lines = _strip_millis(out[out.index("obstruction k=1"):])
    cert = certificate_from_text("\n".join(cert_lines))
    assert cert.k == 1


def test_feasible_yes_with_witness(tmp_path, capsys):
    f, D = _write_obstruction(tmp_path / "obs.mdg")
    code, out, _err = run(capsys, "feasible", "--k", "1", "--p", "4", "--witness", f)
    assert code == 0
    assert "feasible: true" in out
    assert "verified: true" in out
    fam = InversionFamily.from_lines([ln for ln in out if ln.startswith("inv:")])
    assert all(len(s) == 4 for s in fam.sets)
    assert is_k_arc_strong(apply_inversions(D, fam.sets), 1)


def test_obstruction_exit_codes(tmp_path, capsys):
    f, _D = _write_obstruction(tmp_path / "obs.mdg")
    code, out, _err = run(capsys, "obstruction", "--k", "1", f)
    assert code == 0 and "obstruction: true" in out
    t = _write_triangle(tmp_path / "tri.mdg")
    code, _out, err = run(capsys, "obstruction", "--k", "1", t)
    assert code == 3
    assert "n >= 4k+2" in err


def test_simulate_reports_verified(tmp_path, capsys):
    f, _D = _write_obstruction(tmp_path / "obs.mdg")
    code, out, _err = run(capsys, "simulate", "--p", "3", "--set", "0,2,4", f)
    assert code == 0
    assert "verified: true" in out


@pytest.mark.parametrize(
    "argv, code",
    [
        (("simulate", "--p", "4", "--set", "0,1"), 0),
        (("simulate", "--p", "5", "--set", "0,1,2,3,4"), 0),
        (("simulate", "--p", "5", "--set", "0,1,2,3"), 2),
        (("gen", "hm"), 0),
        (("gen", "do-m22inv"), 0),
        (("gen", "psi-ksi"), 0),
        (("gen", "npsi-22"), 0),
    ],
    ids=["simulate-pair", "simulate-quintuple", "simulate-four", "hm", "do-m22inv", "psi-ksi", "npsi-22"],
)
def test_simulate_set_sizes_and_gen_kinds(tmp_path, capsys, argv, code):
    if argv[0] == "simulate":
        f, D = _write_obstruction(tmp_path / "obs.mdg")
        got, out, err = run(capsys, *argv, f)
        assert got == code
        target = [int(v) for v in argv[-1].split(",")]
        if code == 2:
            assert out == [] and "--set must name 2, 3, or 5 vertices, got 4" in err
            return
        assert f"target: {' '.join(map(str, target))}" in out and "verified: true" in out
        plan = InversionFamily.from_lines([ln for ln in out if ln.startswith("inv:")])
        assert all(len(s) == int(argv[2]) for s in plan.sets)
        assert apply_inversions(D, plan.sets) == apply_inversions(D, [target])
        return
    out_path = str(tmp_path / "g.mdg")
    got, out, _err = run(capsys, *argv, "--seed", "3", "-o", out_path)
    assert got == code
    D = read_mdg(out_path)
    with open(out_path + ".meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["kind"] == argv[1] and f"kind: {argv[1]}" in out
    assert f"planted: {len(meta['planted'])}" in out
    assert is_k_arc_strong(apply_inversions(D, meta["planted"]), meta["params"]["k"])


def test_approx_reports_valid(tmp_path, capsys):
    fig2 = MultiDigraph(4, [(0, 1), (0, 3), (1, 2), (3, 2), (1, 3), (3, 1), (0, 2), (2, 0)])
    f = tmp_path / "fig2.mdg"
    write_mdg(str(f), fig2)
    code, out, _err = run(capsys, "approx", "--k", "2", "--p", "4", str(f))
    assert code == 0
    assert "valid: true" in out
    assert any(ln.startswith("eta: ") for ln in out)
    assert any(ln.startswith("ramsey-bound: R(") for ln in out)


def test_approx_without_a_pair_family_is_a_precondition_error(tmp_path, capsys):
    f = tmp_path / "parallel.mdg"
    write_mdg(str(f), MultiDigraph(2, [(0, 1, 2)]))
    for extra in ((), ("--heuristic",)):
        code, out, err = run(capsys, "approx", "--k", "1", "--p", "3", *extra, str(f))
        assert code == 3 and out == []
        assert "no pair inversion family" in err


def test_exact_infeasible_within_budget(tmp_path, capsys):
    f = _write_triangle(tmp_path / "tri.mdg")
    code, out, _err = run(capsys, "exact", "--k", "2", "--p", "3", "--lmax", "1", f)
    assert code == 1
    assert "value: none" in out


def test_single_vertex_approx_and_exact_report_value_zero(tmp_path, capsys):
    f = tmp_path / "one.mdg"
    write_mdg(str(f), MultiDigraph(1))
    for argv in (("approx", "--k", "1", "--p", "3"), ("exact", "--k", "1", "--p", "3", "--lmax", "0")):
        code, out, _err = run(capsys, *argv, str(f))
        assert code == 0
        assert "value: 0" in out


def test_each_command_computes_lambda_once(tmp_path, capsys, monkeypatch):
    # the report's lambda line and the library call read the same
    # memoised edge connectivity of UG(D)
    f = str(tmp_path / "rt9.mdg")
    write_mdg(f, rotative_tournament(9))
    calls = []
    cut_value = _kernels.min_cut_value
    monkeypatch.setattr(_kernels, "min_cut_value", lambda *a: calls.append(a[0]) or cut_value(*a))
    for argv in (
        ("feasible", "--k", "1", "--p", "3"),
        ("obstruction", "--k", "1"),
        ("approx", "--k", "1", "--p", "3"),
        ("exact", "--k", "1", "--p", "3"),
    ):
        calls.clear()
        code, out, _err = run(capsys, *argv, f)
        assert code in (0, 1) and "lambda: 8" in out
        assert calls == [9]


def test_gen_sidecar_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "g.mdg")
    code, out, _err = run(capsys, "gen", "p3p", "--seed", "5", "-o", out_path)
    assert code == 0
    D = read_mdg(out_path)
    with open(out_path + ".meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["kind"] == "p3p"
    assert meta["planted"] is not None
    fam = InversionFamily(meta["planted"])
    assert is_k_arc_strong(apply_inversions(D, fam.sets), meta["params"]["k"])


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.mdg"), str(tmp_path / "b.mdg")
    run(capsys, "gen", "push-n1", "--seed", "9", "-o", a)
    run(capsys, "gen", "push-n1", "--seed", "9", "-o", b)
    assert read_mdg(a) == read_mdg(b)
    meta_a = json.load(open(a + ".meta.json"))
    meta_b = json.load(open(b + ".meta.json"))
    assert meta_a == meta_b


def test_report_is_deterministic_modulo_millis(tmp_path, capsys):
    f, _D = _write_obstruction(tmp_path / "obs.mdg")
    _c1, out1, _e1 = run(capsys, "feasible", "--k", "1", "--p", "4", "--witness", f)
    _c2, out2, _e2 = run(capsys, "feasible", "--k", "1", "--p", "4", "--witness", f)
    assert _strip_millis(out1) == _strip_millis(out2)


def test_bench_csv_order_and_threads(tmp_path, capsys, monkeypatch):
    t = _write_triangle(tmp_path / "tri.mdg")
    o, _D = _write_obstruction(tmp_path / "obs.mdg")
    manifest = tmp_path / "man.txt"
    manifest.write_text(
        "# demo\n"
        "tri.mdg 1 2 exact\n"
        "obs.mdg 1 3 feasible\n"
        "tri.mdg 1 3 approx\n"
        "obs.mdg 1 4 feasible\n"
    )
    out_csv = str(tmp_path / "r.csv")
    code, _out, _err = run(capsys, "bench", str(manifest), "-o", out_csv)
    assert code == 0
    rows = list(csv.reader(open(out_csv)))
    assert rows[0] == ["instance", "k", "p", "solver", "value", "verified", "millis"]
    assert [r[0] for r in rows[1:]] == ["tri.mdg", "obs.mdg", "tri.mdg", "obs.mdg"]
    assert rows[1][4] == "0" and rows[1][5] == "true"  # already strong
    assert rows[2][4] == "0"  # infeasible verdict
    assert rows[4][4] == "1"
    # rows run one after another and no thread count is read, so even
    # a malformed one changes nothing
    monkeypatch.setenv("ARCINVERT_THREADS", "two")
    out2_csv = str(tmp_path / "r2.csv")
    code, _out, _err = run(capsys, "bench", str(manifest), "-o", out2_csv)
    assert code == 0
    rows2 = list(csv.reader(open(out2_csv)))
    assert [r[:-1] for r in rows] == [r[:-1] for r in rows2]
    # without -o the same CSV goes to stdout, after the command line
    code, out, _err = run(capsys, "bench", str(manifest))
    assert code == 0 and out[0] == f"command: arcinvert bench {manifest}"
    assert [r[:-1] for r in csv.reader(_strip_millis(out[1:]))] == [r[:-1] for r in rows]


def test_bench_rejects_malformed_manifests(tmp_path, capsys):
    manifest = tmp_path / "man.txt"
    manifest.write_text("tri.mdg 1 2 exact\ntri.mdg one 3 exact\n")
    code, _out, err = run(capsys, "bench", str(manifest))
    assert code == 2
    assert "line 2" in err


def test_parse_error_reports_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.mdg"
    bad.write_text("mdg 3\na 0 1\na 9 9\n")
    code, _out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 3" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code = cli_dispatch(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code, _out, err = run(capsys, "analyze", "/nonexistent/g.mdg")
    assert code == 2


def test_the_cli_applies_no_family_of_its_own(tmp_path, capsys, monkeypatch):
    # the CLI prints the library's own verification: each command makes
    # exactly the apply_inversions calls of the library call behind it,
    # one per reported family for a witness or an exact family
    applied = []
    apply = core.apply_inversions

    def counted(D, family):
        applied.append((D, InversionFamily(family).canonical()))
        return apply(D, family)

    monkeypatch.setattr(core, "apply_inversions", counted)
    monkeypatch.setattr(simulation, "apply_inversions", counted)
    monkeypatch.setattr(cli, "apply_inversions", counted, raising=False)
    f, D = _write_obstruction(tmp_path / "obs.mdg")
    B = MultiDigraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4), (4, 2)])
    b = str(tmp_path / "broken.mdg")
    write_mdg(b, B)
    cases = [
        (("feasible", "--k", "1", "--p", "4", "--witness", f), lambda: is_kp_invertible(D, 1, 4, witness=True)),
        (("exact", "--k", "1", "--p", "3", b), lambda: exact_inv_kp(B, 1, 3)),
        (("exact", "--k", "1", "--p", "3", "--le", b), lambda: exact_inv_kp(B, 1, 3, mode="at-most")),
        (("approx", "--k", "1", "--p", "3", b), lambda: approx_kp(B, 1, 3)),
        (("approx", "--k", "1", "--p", "3", "--heuristic", b), lambda: approx_kp(B, 1, 3, heuristic=True)),
        (("simulate", "--p", "4", "--set", "0,1", f), lambda: simulate_pair(D, (0, 1), 4)),
    ]
    rows = {
        "feasible": lambda: is_kp_invertible(B, 1, 4, witness=True),
        "exact": lambda: exact_inv_kp(B, 1, 4),
        "exact-le": lambda: exact_inv_kp(B, 1, 4, mode="at-most"),
        "approx": lambda: approx_kp(B, 1, 4),
        "approx-greedy": lambda: approx_kp(B, 1, 4, heuristic=True),
    }
    for solver, library in rows.items():
        (tmp_path / f"{solver}.txt").write_text(f"broken.mdg 1 4 {solver}\n")
        cases.append((("bench", str(tmp_path / f"{solver}.txt")), library))
    for argv, library in cases:
        applied.clear()
        library()
        want = list(applied)
        applied.clear()
        code, out, _err = run(capsys, *argv)
        assert code == 0 and applied == want, argv
        reported = InversionFamily.from_lines([ln for ln in out if ln.startswith("inv:")]).canonical()
        if argv[0] in ("feasible", "exact"):
            assert applied == [(D if argv[-1] == f else B, reported)]
        elif argv[0] != "bench":
            assert reported in [fam for _D, fam in applied]
