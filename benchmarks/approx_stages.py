"""Per-stage time and kernel-call counts of one approx workload pass.

Builds the seeded ``approx`` workload of perfbench/workloads.py (120
``approx_kp`` calls on broken cycles, n = 12 to 40, for seed 1) and
issues its call list under the pure kernel backend.  The first pass
counts kernel calls; the next ``--passes`` passes time the stages, and
each stage's figure is the median over them of its time in one pass,
calibrated as perfbench calibrates a call: multiplied by
``calib.REFERENCE_S`` over the mean of the two ``calib.sample()`` times
taken just before and just after the pass (``raw_median_s`` has the
uncalibrated medians):

- ``pair search``: the exact pair branch and bound (``_min_pairs``, and
  ``_pair_search`` where the package has it), also when the greedy
  repair falls back to it;
- ``greedy walk``: ``_greedy_pairs`` without the exact search it falls
  back to;
- ``minimal core``: ``_minimal_core``;
- ``packing``: ``pack_independent_pairs``;
- ``verification``: ``_strong_after`` and ``_verified``;
- ``other``: the rest of ``approx_kp`` (argument checks, the trace,
  and the lambda of each underlying multigraph, which the counting
  pass computes and the digraph keeps).

Each stage's time excludes the stages it calls.  The counts are of the
kernel dispatcher's ``karc_deficient_cut`` calls, of those that reach
the backend, and of the backend's ``st_max_flow`` and ``_flow`` calls.
``k=1 reach calls`` counts the backend's ``_reach`` calls inside its
k = 1 ``karc_deficient_cut`` calls, and ``k=1 reach vertices`` the
vertices they expand (each expansion reads one row or column of the
matrix as a slice, and those reads are counted).
``answers_sha256`` hashes every call's output and pair families, so
runs on two checkouts show whether they returned the same answers.

Results go to BENCH_<label>.json at the repository root (``--out``
names another file), under the run's name; runs of other names already
in the file are kept:

    python3 benchmarks/approx_stages.py --run parent --src ../parent/src
    python3 benchmarks/approx_stages.py --run change

``--src`` names the package source to measure (default: this
checkout's ``src``); the workload recipes always come from this
checkout.  The standard library is all it needs.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from ladder import source_commit

ROOT = Path(__file__).resolve().parent.parent
STAGES = {
    "_min_pairs": "pair search",
    "_pair_search": "pair search",
    "_greedy_pairs": "greedy walk",
    "_minimal_core": "minimal core",
    "pack_independent_pairs": "packing",
    "_strong_after": "verification",
    "_verified": "verification",
}


class StageClock:
    """Self time per stage: a stage called inside another is taken out
    of the outer one's time."""

    def __init__(self):
        self.totals = Counter()
        self.stack = []

    def wrap(self, stage, fn):
        def timed(*args, **kwargs):
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                inner = self.stack.pop()
                self.totals[stage] += spent - inner
                if self.stack:
                    self.stack[-1] += spent

        return timed


def counted(counts, name, fn):
    def call(*args):
        counts[name] += 1
        return fn(*args)

    return call


class RowReads(list):
    """A capacity matrix that counts its slices: a reach reads one row
    (backward: one column) per vertex it expands."""

    def __init__(self, caps, counts):
        super().__init__(caps)
        self.counts = counts

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.counts["k=1 reach vertices"] += 1
        return list.__getitem__(self, i)


def counted_k1_reaches(counts, pyimpl, karc):
    """karc, counted as a backend call, whose k = 1 calls count their
    reaches and the vertices those expand."""
    reach = pyimpl._reach

    def k1_reach(n, caps, *args):
        counts["k=1 reach calls"] += 1
        return reach(n, RowReads(caps, counts), *args)

    def call(n, caps, k, *args):
        counts["backend karc_deficient_cut"] += 1
        if k != 1:
            return karc(n, caps, k, *args)
        pyimpl._reach = k1_reach
        try:
            return karc(n, caps, k, *args)
        finally:
            pyimpl._reach = reach

    return call


def run_pass(A, calls):
    """Issues the call list once; returns its wall time and a hash of
    its answers."""
    answers = []
    start = time.perf_counter()
    for call in calls:
        fam, trace = getattr(A, call.fn)(*call.args, **call.kwargs)
        answers.append((fam.canonical(), trace.base_pairs.canonical()))
    wall = time.perf_counter() - start
    return wall, hashlib.sha256(repr(answers).encode()).hexdigest()[:16]


def measure(src, seed, passes):
    os.environ["ARCINVERT_KERNEL"] = "py"
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True
    import arcinvert as A
    import calib
    import workloads
    from arcinvert import _kernels, approx
    from arcinvert._kernels import _pyimpl

    calls = workloads.build("approx", seed).calls

    counts = Counter()
    originals = {name: getattr(_pyimpl, name) for name in ("karc_deficient_cut", "st_max_flow", "_flow")}
    dispatch = _kernels.karc_deficient_cut
    for name in ("st_max_flow", "_flow"):
        setattr(_pyimpl, name, counted(counts, f"backend {name}", originals[name]))
    _pyimpl.karc_deficient_cut = counted_k1_reaches(counts, _pyimpl, originals["karc_deficient_cut"])
    _kernels.karc_deficient_cut = counted(counts, "dispatcher karc_deficient_cut", dispatch)
    _wall, answers = run_pass(A, calls)
    for name, fn in originals.items():
        setattr(_pyimpl, name, fn)
    _kernels.karc_deficient_cut = dispatch

    clock = StageClock()
    for name, stage in STAGES.items():
        if hasattr(approx, name):
            setattr(approx, name, clock.wrap(stage, getattr(approx, name)))
    names = ["pair search", "greedy walk", "minimal core", "packing", "verification", "other", "total"]
    return {
        "calls": len(calls),
        "answers_sha256": answers,
        "counts": dict(sorted(counts.items())),
        **time_stages(clock, calib, lambda: run_pass(A, calls), answers, passes, names),
    }


def time_stages(clock, calib, one_pass, answers, passes, names):
    """Runs one_pass (returning its wall time and answer hash) passes
    times under clock; the per-stage medians, calibrated and raw, and
    each pass's figures.  A pass that returns other answers than
    answers raises."""
    per_pass = []
    scales = []
    for _ in range(passes):
        clock.totals.clear()
        before = calib.sample()
        wall, digest = one_pass()
        after = calib.sample()
        if digest != answers:
            raise RuntimeError("a timed pass returned other answers than the counted one")
        stages = dict(clock.totals)
        stages["other"] = wall - sum(stages.values())
        stages["total"] = wall
        per_pass.append(stages)
        scales.append(calib.REFERENCE_S / ((before + after) / 2))
    return {
        "median_s": {
            name: statistics.median(p.get(name, 0.0) * c for p, c in zip(per_pass, scales))
            for name in names
        },
        "raw_median_s": {name: statistics.median(p.get(name, 0.0) for p in per_pass) for name in names},
        "passes_s": per_pass,
        "calibration": scales,
    }


def main(argv=None, label="approx_stages", measure=measure, doc=__doc__):
    """The command line of a stages script: measure(src, seed, passes)
    gives the result that is printed and saved."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--label", default=label, help="writes BENCH_<label>.json")
    ap.add_argument("--run", default="change", help="name of this run in the file")
    ap.add_argument("--src", default=str(ROOT / "src"), help="package source to measure")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=7)
    ap.add_argument("--out", default=None, help="result file (default: BENCH_<label>.json)")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    src = str(Path(args.src).resolve())
    result = measure(src, args.seed, args.passes)
    for name, value in result["median_s"].items():
        print(f"{name:<14} {value * 1000:8.2f} ms")
    for name, value in result["counts"].items():
        print(f"{name:<32} {value:>6}")

    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    data = json.loads(out.read_text()) if out.exists() else {"label": args.label, "runs": {}}
    data["runs"][args.run] = {
        "commit": source_commit(src),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "passes": args.passes,
        **result,
    }
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
