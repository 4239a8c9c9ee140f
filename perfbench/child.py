"""One benchmark interpreter: set up a workload, run it, check it.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH.
It reports on standard output, one JSON object a line:

* ``ready``: the perf_counter reading when set-up (import, instance
  construction) has finished, the number of calls in a pass and, in
  trace mode, the set-up spans;
* ``call``: one line after each finished call, so that the parent knows
  which call was in flight if it has to stop this process;
* ``cal``: the time of one calibration sample (calib.py), taken before
  the call it names;
* ``done``: answers, failures, labels, memory and, in trace mode, the
  per-layer figures.

Modes: ``setup`` stops after ``ready``; ``measure`` runs passes of the
call list back to back for ``--seconds``; ``trace`` runs untraced passes
for half of that time and traced passes for the other half; ``record``
runs one pass and reports the answers for the golden file; ``digests``
reports the instance digests only.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALIBRATE_EVERY_S = 0.02


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def calibrate(index, i):
    """Time the calibration work before call ``i`` of pass ``index``
    (i = the number of calls: after the last one)."""
    emit({"event": "cal", "pass": index, "i": i, "s": calib.sample()})
    return time.perf_counter()


def run_pass(A, calls, index, tracer=None):
    """Issue every call once, back to back; returns (times, results).
    The pass times the calibration work at its start, at its end and
    between calls whenever CALIBRATE_EVERY_S has passed since the last
    time, outside the calls' own timing."""
    times = []
    results = []
    last_cal = calibrate(index, 0)
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = (index, i)
        if i and time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
            last_cal = calibrate(index, i)
        fn = getattr(A, call.fn)
        t0 = time.perf_counter()
        try:
            out = fn(*call.args, **call.kwargs)
            err = None
        except Exception as exc:  # a raising call is a failed call, not a crash
            out = None
            err = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        times.append(dt)
        results.append((out, err))
        emit({"event": "call", "pass": index, "i": i, "s": dt})
    calibrate(index, len(calls))
    return times, results


def answers_of(calls, results):
    return [err if err else calls[i].check(out, verify=False)[0] for i, (out, err) in enumerate(results)]


def run_passes(A, calls, seconds, first_index=0, tracer=None):
    """Closed loop: passes until the next one would end after
    ``seconds``; at least one pass.  Returns the call times of every
    pass, the results of the first pass, and the answers of the later
    ones; dropping their results keeps memory independent of how many
    passes fit."""
    start = time.perf_counter()
    times = []
    first = None
    later = []
    while True:
        gc.collect()
        t, results = run_pass(A, calls, first_index + len(times), tracer)
        times.append(t)
        if first is None:
            first = results
        else:
            later.append(answers_of(calls, results))
        del results
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(sum(p) for p in times) > seconds:
            return times, first, later


def check_passes(calls, first, later, golden):
    """Answers of the first pass, and one failure record per failed call
    of any pass: it raised, a check rejected it, its answer differs from
    the golden answer or, in a later pass, from the first pass."""
    failures = []
    answers = []
    for i, (out, err) in enumerate(first):
        answer = None
        if err is None:
            answer, err = calls[i].check(out)
        answers.append(answer)
        if err is None and golden is not None and answer != golden[i]:
            err = f"answer {answer} differs from golden {golden[i]}"
        if err is not None:
            failures.append({"pass": 0, "call": calls[i].label, "error": err})
    for index, got in enumerate(later, start=1):
        for i, answer in enumerate(got):
            if answer != answers[i]:
                failures.append({"pass": index, "call": calls[i].label,
                                 "error": f"answer {answer} differs from the first pass {answers[i]}"})
    return answers, failures


def load_golden(workload, seed):
    path = HERE / "golden.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["answers"].get(workload, {}).get(str(seed))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "record", "digests"), required=True)
    args = ap.parse_args(argv)

    import arcinvert as A

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()  # before set-up, for reductions.gen.s
    import workloads

    if not Path(A.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"arcinvert imported from {A.__file__}, not from {ROOT / 'src'}")
    w = workloads.build(args.workload, args.seed)
    ready = time.perf_counter()
    setup_spans = None
    if tracer is not None:
        tracer.uninstall()
        totals, _under, _cells = tracer.totals()
        setup_spans = {name: t["s"] for name, t in totals.items()}
    emit({"event": "ready", "t": ready, "calls": len(w.calls), "setup_spans": setup_spans})
    if args.mode == "setup":
        return

    labels = {
        "workload": args.workload,
        "seed": args.seed,
        "backend_name": A._kernels.backend_name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.mode == "digests":
        labels["digests"] = [[label, *workloads.digest(g)] for label, g in w.instances]
        emit({"event": "done", "labels": labels})
        return

    traced = []
    if args.mode == "record":
        t, first = run_pass(A, w.calls, 0)
        times, later = [t], []
    elif args.mode == "measure":
        times, first, later = run_passes(A, w.calls, args.seconds)
    else:
        times, first, later = run_passes(A, w.calls, args.seconds / 2)
        tracer.spans.clear()
        tracer.install()
        try:
            traced, traced_first, traced_later = run_passes(A, w.calls, args.seconds / 2, len(times), tracer)
        finally:
            tracer.uninstall()
        later += [answers_of(w.calls, traced_first)] + traced_later
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    golden = None if args.mode == "record" else load_golden(args.workload, args.seed)
    if golden is not None and len(golden) != len(w.calls):
        raise SystemExit(f"golden answers list {len(golden)} calls, the workload has {len(w.calls)}")
    answers, failures = check_passes(w.calls, first, later, golden)
    labels["digests"] = [[label, *workloads.digest(g)] for label, g in w.instances]
    approx_sets = None
    if args.workload == "approx":
        approx_sets = sum(len(out[0]) for out, err in first if err is None)
    done = {
        "event": "done",
        "labels": labels,
        "call_labels": [c.label for c in w.calls],
        "untraced_passes": len(times),
        "answers": answers,
        "failures": failures,
        "golden": golden is not None,
        "approx_sets": approx_sets,
        "rss_kb": rss_kb,
    }
    if tracer is not None:
        done["layers"] = layer_metrics(tracer, w, len(traced), setup_spans)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        dump = tracer.dump()
        dump["call_labels"] = done["call_labels"]
        dump_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        dump_path.write_text(json.dumps(dump))
        done["span_file"] = str(dump_path.relative_to(ROOT))
    emit(done)


def layer_metrics(tracer, w, traced_passes, setup_spans):
    """Per-pass per-layer figures from the traced passes."""
    totals, under, cells = tracer.totals()
    per = max(1, traced_passes)

    def get(name, field):
        return totals.get(name, {}).get(field, 0) / per

    out = {}
    for name, fields in LAYER_TABLE:
        source = LAYER_SOURCE.get(name, name)
        for field in fields:
            out[f"{name}.{field}"] = get(source, field)
    out["kernels.cells"] = cells / per
    out["approx.min_k2_inversion_set.nodes"] = (
        under.get("approx.min_k2_inversion_set", {}).get("kernels.karc_deficient_cut", 0) / per
    )
    tried = totals.get("obstruction.extend_to_certificate", {})
    out["obstruction.yield"] = tried.get("found", 0) / tried["calls"] if tried.get("calls") else 0.0
    # is_kp_invertible spans per benchmark call that asked for a witness
    witness_ids = {i for i, c in enumerate(w.calls) if c.fn == "is_kp_invertible" and c.kwargs.get("witness")}
    decisions = sum(
        1 for rec in tracer.spans
        if rec[0] == "feasibility.is_kp_invertible" and rec[4] is not None and rec[4][1] in witness_ids
    )
    out["feasibility.is_kp_invertible.calls_per_witness"] = (
        decisions / (len(witness_ids) * per) if witness_ids else 0.0
    )
    out["reductions.gen.s"] = sum(s for name, s in (setup_spans or {}).items() if name.startswith("reductions.gen_"))
    return out


# (metric prefix, fields) reported per traced pass; see WORKLOADS.md for
# which end-to-end metric each one should move
LAYER_TABLE = (
    ("kernels.global_min_cut", ("calls", "s")),
    ("kernels.karc_deficient_cut", ("calls", "s")),
    ("kernels.st_max_flow", ("calls", "s")),
    ("core.edge_connectivity", ("calls",)),
    ("core.underlying", ("calls",)),
    ("core.is_k_arc_strong", ("calls", "s")),
    ("core.apply_inversions", ("s",)),
    ("feasibility.is_kp_invertible", ("calls",)),
    ("feasibility.construct_witness", ("s", "self_s")),
    ("obstruction.is_k_obstruction", ("s", "self_s")),
    ("obstruction.extend_to_certificate", ("calls",)),
    ("simulation.simulate_pair", ("s",)),
    ("simulation.simulate_triple", ("s",)),
    ("simulation.independent_triple", ("calls",)),
    ("oracles.gf2_reachable", ("s", "self_s")),
    ("oracles.Gf2Basis.add", ("calls",)),
    ("oracles.exact_inv_kp", ("s", "self_s")),
    ("oracles.exists_k_arc_strong_orientation", ("s",)),
    ("approx.min_k2_inversion_set", ("s", "self_s")),
    ("approx.greedy_k2_inversion_set", ("s",)),
    ("approx.minimally_k_arc_strong", ("s",)),
    ("approx.pack_independent_pairs", ("s",)),
)
# the method MultiDigraph.underlying, which core.underlying() also calls
LAYER_SOURCE = {"core.underlying": "core.MultiDigraph.underlying"}


if __name__ == "__main__":
    main()
