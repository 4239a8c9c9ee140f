"""The answers of the benchmark workloads against the checked-in digests."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ANSWERS = ROOT / "benchmarks" / "answers.py"
DIGESTS = ROOT / "benchmarks" / "answers_digests.txt"


def check(path):
    return subprocess.run(
        [sys.executable, str(ANSWERS), "--check", str(path)], capture_output=True, text=True
    )


def test_workload_answers_equal_the_checked_in_digests():
    # every answer of the decide, approx and exact workloads for seeds
    # 1, 2 and 7 stays byte-identical
    run = check(DIGESTS)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith("9 of 9 digests equal\n")


def test_workload_answers_equal_the_digests_under_the_compiled_backend(cimpl, monkeypatch, capsys):
    # the checked-in digests hold for both kernel backends: the same
    # check in this process, with the compiled kernels swapped in
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("answers", ANSWERS)
    answers = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(answers)
        monkeypatch.setattr(answers.A._kernels, "_impl", cimpl)
        assert answers.check(DIGESTS) == 0
    finally:
        sys.modules.pop("workloads", None)
    assert capsys.readouterr().out.endswith("9 of 9 digests equal\n")


def test_answers_check_reports_a_changed_digest(tmp_path):
    line = next(x for x in DIGESTS.read_text().splitlines() if x.startswith("decide seed=1 "))
    changed = tmp_path / "digests.txt"
    wrong = line.rsplit("=", 1)[0] + "=" + "0" * 64
    changed.write_text(f"# one workload, one seed\n{wrong}\n")
    run = check(changed)
    assert run.returncode == 1, run.stdout + run.stderr
    assert f"got      {line}\n" in run.stdout
    assert run.stdout.endswith("0 of 1 digests equal\n")
