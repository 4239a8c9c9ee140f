"""Per-stage time and work counts of one decide workload pass.

Builds the seeded ``decide`` workload of perfbench/workloads.py
(``is_kp_invertible`` with and without witnesses along an n ladder, the
n = 64 cliff, perturbed obstructions and disconnected inputs, for seed
1) and issues its call list under the pure kernel backend.  The first
pass, on freshly built inputs, counts the work; a second pass on the
same inputs counts it again, under names that start with ``later
pass:``.  Then the stages are timed, each figure the median over
``--passes`` passes of its time in one pass, calibrated as
approx_stages.py calibrates it.  ``median_s`` times passes that reuse
the counted inputs, as perfbench's later passes do; ``fresh`` times
passes that each get a newly built copy of the inputs, as a first pass
does:

- ``obstruction scan``: ``obstruction._obstruction_scan``, the
  k-obstruction test of odd p above the threshold;
- ``coset search``: ``parity._gf2_search``, the decisions below the
  threshold and the triple families of odd witnesses;
- ``pair search``: ``approx._min_pairs``, the pair families of even
  witnesses;
- ``plans``: ``simulation._plan_sets``, which rewrites small sets into
  exact-size-p sets;
- ``verification``: ``_strong_after`` and ``_verified``;
- ``other``: the rest of the pass (argument checks, the lambda of each
  underlying multigraph, which the first pass computes and the digraph
  keeps).

Each stage's time excludes the stages it calls.  The counts:

- ``scans run`` / ``scan memo hits``: calls of ``_obstruction_scan``
  that scan, and those whose digraph already holds the answer for
  their k (a package without the memo scans on every call);
- ``_extend calls``: the candidate Y sets the scans try;
- ``st_max_flow calls``: calls of the kernel dispatcher's
  ``st_max_flow``, which the scans' partitions and the witnesses'
  searches make.

``answers_sha256`` hashes every call's verdict, certificate and
witness, so runs on two checkouts show whether they returned the same
answers.  Results go to BENCH_decide_stages.json at the repository
root (``--out`` names another file), under the run's name; runs of
other names already in the file are kept:

    python3 benchmarks/decide_stages.py --run parent --src ../parent/src
    python3 benchmarks/decide_stages.py --run change

``--src`` names the package source to measure (default: this
checkout's ``src``); the workload recipes always come from this
checkout.  The standard library is all it needs.
"""

import os
import sys
from collections import Counter

import approx_stages
from approx_stages import ROOT, StageClock, counted
from exact_stages import patch, run_pass

STAGES = {
    "_obstruction_scan": "obstruction scan",
    "_gf2_search": "coset search",
    "_min_pairs": "pair search",
    "_plan_sets": "plans",
    "_strong_after": "verification",
    "_verified": "verification",
}
COUNTS = ("scans run", "scan memo hits", "_extend calls", "st_max_flow calls")


def answer(v):
    """A comparable form of one verdict."""
    cert = v.certificate
    return (
        v.feasible,
        v.reason,
        None if cert is None else (cert.k, cert.x_parts, cert.y),
        None if v.witness is None else v.witness.canonical(),
    )


def counted_scan(counts, scan):
    """scan, counting its calls as scans run or memo hits."""

    def call(D, k):
        kept = getattr(D, "_obs", None) or {}
        counts["scan memo hits" if k in kept else "scans run"] += 1
        return scan(D, k)

    return call


def counted_pass(A, modules, calls, prefix=""):
    """Issues the call list once with the counters on; the counts, each
    name led by prefix, and the answer hash."""
    from arcinvert import _kernels, obstruction

    counts = Counter(dict.fromkeys(COUNTS, 0))
    undo = patch(modules, "_obstruction_scan", lambda fn: counted_scan(counts, fn))
    undo += patch([obstruction], "_extend", lambda fn: counted(counts, "_extend calls", fn))
    undo += patch([_kernels], "st_max_flow", lambda fn: counted(counts, "st_max_flow calls", fn))
    try:
        _wall, answers = run_pass(A, calls, answer)
    finally:
        for module, name, original in undo:
            setattr(module, name, original)
    return {prefix + name: value for name, value in counts.items()}, answers


def measure(src, seed, passes):
    os.environ["ARCINVERT_KERNEL"] = "py"
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True
    import arcinvert as A
    import calib
    import workloads

    calls = workloads.build("decide", seed).calls
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("arcinvert.")]

    counts, answers = counted_pass(A, modules, calls)
    later, again = counted_pass(A, modules, calls, "later pass: ")
    if again != answers:
        raise RuntimeError("the second pass returned other answers than the first")

    clock = StageClock()
    for name, stage in STAGES.items():
        patch(modules, name, lambda fn, stage=stage: clock.wrap(stage, fn))
    names = ["obstruction scan", "coset search", "pair search", "plans", "verification", "other", "total"]
    time_stages = approx_stages.time_stages
    reused = time_stages(clock, calib, lambda: run_pass(A, calls, answer), answers, passes, names)
    # each fresh pass gets inputs built before the timing starts
    fresh_calls = [workloads.build("decide", seed).calls for _ in range(passes)]
    fresh = time_stages(clock, calib, lambda: run_pass(A, fresh_calls.pop(), answer), answers, passes, names)
    return {
        "calls": len(calls),
        "answers_sha256": answers,
        "counts": dict(sorted({**counts, **later}.items())),
        **reused,
        "fresh": fresh,
    }


if __name__ == "__main__":
    sys.exit(approx_stages.main(label="decide_stages", measure=measure, doc=__doc__))
