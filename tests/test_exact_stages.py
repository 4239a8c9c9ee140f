"""benchmarks/exact_stages.py: one pass returns the answers of the
committed change run, and counts the work of the exact search."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_pass_returns_the_committed_answers(tmp_path):
    out = tmp_path / "stages.json"
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "exact_stages.py"), "--passes", "1", "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=600,
    )
    run = json.loads(out.read_text())["runs"]["change"]
    committed = json.loads((ROOT / "BENCH_exact_stages.json").read_text())["runs"]["change"]
    assert run["answers_sha256"] == committed["answers_sha256"]
    counts = run["counts"]
    assert counts["sets read"] == committed["counts"]["sets read"] > 0
    assert counts["Y sets scored"] > counts["X sets built"] > 0
    assert counts["digraph matrix builds"] > 0 and counts["digraph matrix memo hits"] > 0
