"""Benchmark for arcinvert: seeded decide / approx / exact workloads.

Run from the repository root:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload approx --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare perfbench/out/A.json perfbench/out/B.json
    python3 perfbench/run.py --record-golden 0-15

A run measures the package in ``src/`` as checked out; nothing is
installed.  Every workload runs in fresh single-threaded interpreters
(child.py): several that only set up, for ``setup_s``, and one that
issues the workload's call list back to back (a closed loop with one
caller) for ``--seconds`` and then checks every answer.  Times are
calibrated against the host's speed measured next to each call
(calib.py) and reported at the reference speed.  The measuring
interpreter has a wall-clock limit; calls still unfinished when it is
stopped count as failed.  ``--trace 1`` runs the traced variant
instead and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric by name with its unit.  The full result, with the run labels
(backend, Python version, nproc, seed, instance digests) and per-call
latencies, is written to perfbench/out/.  WORKLOADS.md says why each
workload exists and which end-to-end metric each layer metric moves.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("decide", "approx", "exact")
SETUP_ONLY_RUNS = 9
RUN_BUDGET_S = 170  # a run must end within 180 s
CHECK_SLACK_S = 60  # checks and digests after the timed passes
SETUP_LIMIT_S = 60
RECORD_LIMIT_S = 300


class Child:
    """One child interpreter, read line by line, stopped at ``limit``."""

    def __init__(self, mode, workload, seed, seconds, limit):
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        # byte-compiled once into the benchmark's own cache, as an
        # installed package would be, so set-up does not recompile
        env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["ARCINVERT_THREADS"] = "1"
        self.events = []
        self.stderr = []
        self.killed = False
        self.t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        readers = [
            threading.Thread(target=self._read_events, args=(proc.stdout,)),
            threading.Thread(target=self.stderr.extend, args=(proc.stderr,)),
        ]
        for r in readers:
            r.start()
        try:
            proc.wait(timeout=max(1.0, limit))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            self.killed = True
        for r in readers:
            r.join()
        self.returncode = proc.returncode

    def _read_events(self, stream):
        for line in stream:
            self.events.append(json.loads(line))

    def event(self, name):
        for ev in self.events:
            if ev["event"] == name:
                return ev
        return None

    def ok(self):
        return not self.killed and self.returncode == 0 and self.event("done") is not None

    def why(self):
        if self.killed:
            return "stopped at its wall-clock limit"
        tail = "".join(self.stderr[-5:]).strip()
        return f"exit code {self.returncode}: {tail}"


def declared_metrics():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_source():
    if not (ROOT / "src" / "arcinvert" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {ROOT / 'src' / 'arcinvert'}; run from a checkout of the repository")


def pass_times(child):
    """Per-pass lists of call times, complete passes only, keyed by pass."""
    ready = child.event("ready")
    n = ready["calls"] if ready else 0
    by_pass = {}
    for ev in child.events:
        if ev["event"] == "call":
            by_pass.setdefault(ev["pass"], {})[ev["i"]] = ev["s"]
    complete = {p: [d[i] for i in range(n)] for p, d in by_pass.items() if len(d) == n}
    finished = sum(len(d) for d in by_pass.values())
    unfinished = sum(n - len(d) for d in by_pass.values() if len(d) < n)
    if child.killed and not unfinished:
        unfinished = n if not by_pass else 0
    return complete, finished, unfinished


def speed_sample():
    """The calibration work's time now, median of three samples."""
    return statistics.median(calib.sample() for _ in range(3))


def calibrated(child, passes):
    """The call times of the given passes at the reference speed: each
    time multiplied by calib.REFERENCE_S over the mean of the two
    calibration samples taken just before and just after the call."""
    cals = {}
    for ev in child.events:
        if ev["event"] == "cal":
            cals.setdefault(ev["pass"], {})[ev["i"]] = ev["s"]
    out = []
    for p, times in passes.items():
        marks = sorted(cals.get(p, {}).items())
        if not marks or marks[0][0] != 0 or marks[-1][0] != len(times):
            continue
        scaled = []
        j = 0
        for i, t in enumerate(times):
            while marks[j + 1][0] <= i:
                j += 1
            scaled.append(t * calib.REFERENCE_S / ((marks[j][1] + marks[j + 1][1]) / 2))
        out.append(scaled)
    return out


def latency_metrics(passes, agg):
    """wall_s and per-call percentiles over the given complete passes.
    Each call's latency is ``agg`` of its times over the passes, and
    wall_s, the time one pass of the call list takes, is their sum."""
    per_call = [agg(col) for col in zip(*passes)]
    return {
        "wall_s": sum(per_call),
        "call_ms.p50": statistics.median(per_call) * 1000,
        "call_ms.p90": statistics.quantiles(per_call, n=10)[8] * 1000,
    }, per_call


def run(args):
    require_source()
    spec = declared_metrics()
    start = time.perf_counter()

    def remaining():
        return RUN_BUDGET_S - (time.perf_counter() - start)

    setup_samples = []
    setup_calibrated = []
    if not args.trace:
        for _ in range(SETUP_ONLY_RUNS):
            before = speed_sample()
            c = Child("setup", args.workload, args.seed, 0, min(SETUP_LIMIT_S, remaining()))
            after = speed_sample()
            ready = c.event("ready")
            if c.returncode != 0 or ready is None:
                sys.exit(f"error: set-up failed ({c.why()})")
            setup_samples.append(ready["t"] - c.t0)
            setup_calibrated.append(setup_samples[-1] * calib.REFERENCE_S / ((before + after) / 2))
    mode = "trace" if args.trace else "measure"
    limit = min(args.seconds + CHECK_SLACK_S, remaining())
    child = Child(mode, args.workload, args.seed, args.seconds, limit)
    ready = child.event("ready")
    if ready is None:
        sys.exit(f"error: the workload did not set up ({child.why()})")
    setup_samples.append(ready["t"] - child.t0)
    done = child.event("done") or {}
    complete, finished, unfinished = pass_times(child)
    untraced_n = done.get("untraced_passes", len(complete))
    untraced = [complete[p] for p in sorted(complete) if p < untraced_n]
    failures = list(done.get("failures", []))
    attempted = max(1, finished + unfinished)
    failed = len(failures) + unfinished
    if not child.ok():
        failures.append({"call": None, "error": f"benchmark interpreter {child.why()}"})
        if not done:
            failed = attempted  # it ended before checking any answer
    correct = child.ok() and failed == 0

    values = {}
    per_call = []
    raw = {}
    if untraced:
        # the fastest uncalibrated time of each call, kept beside the metrics
        raw = latency_metrics(untraced, min)[0]
        passes = calibrated(child, {p: complete[p] for p in sorted(complete) if p < untraced_n})
        if passes:
            lat, per_call = latency_metrics(passes, statistics.median)
            values.update(lat)
    if setup_calibrated:
        values["setup_s"] = statistics.median(setup_calibrated)
    raw["setup_s"] = statistics.median(setup_samples)
    rss_kb = done.get("rss_kb") or resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values["peak_rss_mb"] = rss_kb / 1024
    if args.trace:
        values.update(done.get("layers", {}))
        passes = calibrated(child, {p: complete[p] for p in sorted(complete) if p >= untraced_n})
        if passes and "wall_s" in values:
            values["trace.wall_s"] = latency_metrics(passes, statistics.median)[0]["wall_s"]
            values["trace.overhead"] = values["trace.wall_s"] / values["wall_s"]

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and correct:
        correct = False
        failures.append({"call": None, "error": f"metrics not measured: {', '.join(missing)}"})
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}

    labels = done.get("labels", {"workload": args.workload, "seed": args.seed})
    labels["trace"] = args.trace
    extra = {
        "calls": ready["calls"],
        "passes": len(untraced),
        "fail_rate": failed / attempted,
        "approx_sets": done.get("approx_sets"),
        "golden_checked": done.get("golden", False),
    }
    result = {
        "labels": labels,
        "metrics": metrics,
        "extra": extra,
        "setup_samples_s": setup_samples,
        "per_call_ms": [[label, t * 1000] for label, t in zip(done.get("call_labels", []), per_call)],
        "failures": failures,
        "uncalibrated": raw,
        "span_file": done.get("span_file"),
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  backend {labels.get('backend_name')}  "
          f"python {labels.get('python')}  nproc {labels.get('nproc')}")
    print(f"  calls per pass {extra['calls']}, {extra['passes']} untraced passes, one caller, closed loop")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_rate':48s} {extra['fail_rate']:>14.6g} failed/attempted ({failed}/{attempted})")
    if extra["approx_sets"] is not None:
        print(f"  {'approx_sets':48s} {extra['approx_sets']:>14d} count")
    if raw:
        print("  uncalibrated, for reference: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"  golden answers {'checked' if extra['golden_checked'] else 'not recorded for this seed'}")
    for f in failures[:10]:
        print(f"  FAILED {f.get('call')}: {f['error']}")
    print(f"  result written to {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def compare(path_a, path_b):
    """Print each metric of two result files side by side; refuse when
    their labels differ."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    differ = sorted(k for k in set(a["labels"]) | set(b["labels"]) if a["labels"].get(k) != b["labels"].get(k))
    if differ:
        print(f"refusing to compare: labels differ in {', '.join(differ)}")
        return 3
    print(f"{'metric':48s} {'A':>14s} {'B':>14s} {'B/A':>8s}")
    for name, ma in a["metrics"].items():
        va, vb = ma["value"], b["metrics"][name]["value"]
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"{name:48s} {va:>14.6g} {vb:>14.6g} {ratio} {ma['unit']}")
    return 0


def selftest(seed):
    """Same seed, same instance digests; another seed, other digests."""
    require_source()
    ok = True
    for w in WORKLOADS:
        runs = [Child("digests", w, s, 0, SETUP_LIMIT_S) for s in (seed, seed, seed + 1)]
        if not all(r.ok() for r in runs):
            print(f"{w}: digest run failed: {'; '.join(r.why() for r in runs if not r.ok())}")
            ok = False
            continue
        d = [r.event("done")["labels"] for r in runs]
        same = d[0] == d[1]
        other = d[0]["digests"] != d[2]["digests"]
        print(f"{w}: {len(d[0]['digests'])} instances; seed {seed} twice identical: {same}; "
              f"seed {seed + 1} differs: {other}")
        ok = ok and same and other
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def record_golden(seeds):
    """Record every call's answer for the given seeds into golden.json."""
    require_source()
    jobs = [(w, s) for w in WORKLOADS for s in seeds]

    def one(job):
        w, s = job
        return job, Child("record", w, s, 0, RECORD_LIMIT_S)

    answers = {w: {} for w in WORKLOADS}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for (w, s), c in pool.map(one, jobs):
            done = c.event("done")
            if not c.ok() or done["failures"]:
                problems = done["failures"][:3] if done else c.why()
                sys.exit(f"error: {w} seed {s} cannot be recorded: {problems}")
            answers[w][str(s)] = done["answers"]
            print(f"{w} seed {s}: {len(done['answers'])} answers")
    golden = {
        "about": "answer of every call per workload and seed, recorded with run.py --record-golden",
        "answers": answers,
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="check that the seed fixes the inputs")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files")
    ap.add_argument("--record-golden", metavar="LO-HI", help="record golden answers for these seeds")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest(args.seed)
    if args.record_golden:
        return record_golden(parse_seeds(args.record_golden))
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds is None:
        require_source()
        args.seconds = declared_metrics()["run_seconds"]
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
