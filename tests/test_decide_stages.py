"""benchmarks/decide_stages.py: one pass returns the answers of the
committed change run, and scans each digraph for k-obstructions once
per k."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_pass_returns_the_committed_answers(tmp_path):
    out = tmp_path / "stages.json"
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "decide_stages.py"), "--passes", "1", "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=600,
    )
    run = json.loads(out.read_text())["runs"]["change"]
    committed = json.loads((ROOT / "BENCH_decide_stages.json").read_text())["runs"]
    assert run["answers_sha256"] == committed["change"]["answers_sha256"]
    assert run["answers_sha256"] == committed["parent"]["answers_sha256"]
    counts = run["counts"]
    for name in ("scans run", "scan memo hits", "_extend calls"):
        assert counts[name] == committed["change"]["counts"][name]
    # the first pass scans each (digraph, k) once; the same calls on the
    # same digraphs scan nothing again
    calls = counts["scans run"] + counts["scan memo hits"]
    assert calls == committed["parent"]["counts"]["scans run"] > counts["scans run"] > 0
    assert counts["later pass: scans run"] == counts["later pass: _extend calls"] == 0
    assert counts["later pass: scan memo hits"] == calls
    assert set(run["median_s"]) == {
        "obstruction scan", "coset search", "pair search", "plans", "verification", "other", "total"
    }
