"""benchmarks/approx_stages.py: one pass returns the answers of the
committed change run, and counts the k = 1 reaches."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_pass_returns_the_committed_answers(tmp_path):
    out = tmp_path / "stages.json"
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "approx_stages.py"), "--passes", "1", "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=600,
    )
    run = json.loads(out.read_text())["runs"]["change"]
    committed = json.loads((ROOT / "BENCH_approx_stages.json").read_text())["runs"]["change"]
    assert run["answers_sha256"] == committed["answers_sha256"]
    assert run["counts"]["k=1 reach calls"] > 0 and run["counts"]["k=1 reach vertices"] > 0
