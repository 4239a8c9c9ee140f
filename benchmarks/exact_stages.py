"""Per-stage time and work counts of one exact workload pass.

Builds the seeded ``exact`` workload of perfbench/workloads.py
(``exact_inv_kp`` on planted reductions and perturbed digraphs,
sub-threshold witnesses and orientations, for seed 1) and issues its
call list under the pure kernel backend.  The first pass, on the
freshly built inputs, counts the work; the next ``--passes`` passes
reuse those inputs, as perfbench's later passes do, and time the
stages.  Each stage's figure is the median over them of its time in
one pass, calibrated as approx_stages.py calibrates it:

- ``candidates``: ``oracles._exact_candidates``, the sets the nodes of
  ``exact_inv_kp`` try, timed over every set drawn from it;
- ``kernel``: the kernel dispatcher's ``karc_deficient_cut``,
  ``st_max_flow`` and ``min_cut_value``, wherever they are called;
- ``verification``: ``_strong_after`` and ``_verified``;
- ``other``: the rest of the pass (the searches' own nodes, the
  workload's other solvers, argument checks).

Each stage's time excludes the stages it calls.  The counts:

- ``digraph matrix builds`` / ``digraph matrix memo hits``: calls of
  ``MultiDigraph.caps_flat``, the one matrix reader, that build the
  matrix, and those that copy a kept one (a package without the memo
  builds it on every call);
- ``degree builds``: calls of ``core._degrees``, under any module's
  name for it; ``degree memo hits``: calls of
  ``MultiDigraph._degree_lists`` that copy kept lists;
- ``nodes budget=<b> <mode>``: the search nodes that ask for
  candidates, by sets left and mode;
- ``Y sets scored``, ``X sets built``: executions of the lines of
  ``_exact_candidates`` that start a Y set (``ys = seed + add``) and
  that build a set (``tuple(sorted(``), counted by a line tracer on the
  counting pass only; ``sets read``: the sets the nodes draw.

``answers_sha256`` hashes every call's answer, so runs on two checkouts
show whether they returned the same answers.  Results go to
BENCH_exact_stages.json at the repository root (``--out`` names
another file), under the run's name; runs of other names already in
the file are kept:

    python3 benchmarks/exact_stages.py --run parent --src ../parent/src
    python3 benchmarks/exact_stages.py --run change

``--src`` names the package source to measure (default: this
checkout's ``src``); the workload recipes always come from this
checkout.  The standard library is all it needs.
"""

import hashlib
import inspect
import os
import sys
import time
from collections import Counter

import approx_stages
from approx_stages import ROOT, StageClock, counted

LINES = {"ys = seed + add": "Y sets scored", "tuple(sorted(": "X sets built"}


def answer(out):
    """A comparable form of one call's result."""
    if out is None or isinstance(out, (bool, int, str)):
        return out
    if hasattr(out, "canonical"):
        return out.canonical()
    if hasattr(out, "arcs"):
        return tuple(out.arcs())
    return (out.feasible, out.reason, answer(out.witness))


def run_pass(A, calls):
    """Issues the call list once; returns its wall time and a hash of
    its answers."""
    answers = []
    start = time.perf_counter()
    for call in calls:
        answers.append(answer(getattr(A, call.fn)(*call.args, **call.kwargs)))
    wall = time.perf_counter() - start
    return wall, hashlib.sha256(repr(answers).encode()).hexdigest()[:16]


def line_counter(fn, counts):
    """A sys.settrace function that counts, in the frames of fn, the
    executions of the lines that hold a key of LINES."""
    lines, first = inspect.getsourcelines(fn)
    names = {}
    for i, text in enumerate(lines):
        for key, name in LINES.items():
            if key in text:
                names[first + i] = name
    if set(names.values()) != set(LINES.values()):
        raise RuntimeError(f"{fn.__name__} has no line for some of {sorted(LINES)}")
    code = fn.__code__

    def local(frame, event, _arg):
        if event == "line" and frame.f_lineno in names:
            counts[names[frame.f_lineno]] += 1
        return local

    def trace(frame, _event, _arg):
        return local if frame.f_code is code else None

    return trace


def counted_stream(counts, stream):
    """stream, counting its nodes by (budget, mode) and the sets read."""

    def nodes(n, caps, adj, k, p, mode, side, budget, short):
        counts[f"nodes budget={budget} {mode}"] += 1
        for xs in stream(n, caps, adj, k, p, mode, side, budget, short):
            counts["sets read"] += 1
            yield xs

    return nodes


def counted_caps(counts, read):
    """read, counting its calls as builds or memo hits."""

    def call(D, *args):
        kept = getattr(D, "_caps", None) is not None
        counts["digraph matrix memo hits" if kept else "digraph matrix builds"] += 1
        return read(D, *args)

    return call


def counted_degree_lists(counts, degree_lists):
    def call(D):
        if D._deg is not None:
            counts["degree memo hits"] += 1
        return degree_lists(D)

    return call


class TimedStream:
    """An iterator over a generator's items whose every step is timed
    as one call of stage under clock."""

    def __init__(self, clock, stage, gen):
        self.step = clock.wrap(stage, gen.__next__)

    def __iter__(self):
        return self

    def __next__(self):
        return self.step()


def patch(modules, name, wrapper):
    """Replaces name, in every module that has it, by wrapper(original);
    returns the undo list."""
    undo = []
    for module in modules:
        if hasattr(module, name):
            original = getattr(module, name)
            undo.append((module, name, original))
            setattr(module, name, wrapper(original))
    return undo


def measure(src, seed, passes):
    os.environ["ARCINVERT_KERNEL"] = "py"
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True
    import arcinvert as A
    import calib
    import workloads
    from arcinvert import _kernels, core, oracles

    calls = workloads.build("exact", seed).calls
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("arcinvert.")]
    digraph = core.MultiDigraph

    counts = Counter()
    stream = oracles._exact_candidates
    undo = patch(modules, "_degrees", lambda fn: counted(counts, "degree builds", fn))
    undo += patch([digraph], "caps_flat", lambda fn: counted_caps(counts, fn))
    undo += patch([digraph], "_degree_lists", lambda fn: counted_degree_lists(counts, fn))
    undo += patch([oracles], "_exact_candidates", lambda fn: counted_stream(counts, fn))
    sys.settrace(line_counter(stream, counts))
    try:
        _wall, answers = run_pass(A, calls)
    finally:
        sys.settrace(None)
        for module, name, original in undo:
            setattr(module, name, original)

    clock = StageClock()
    for name in ("karc_deficient_cut", "st_max_flow", "min_cut_value"):
        patch([_kernels], name, lambda fn: clock.wrap("kernel", fn))
    for name in ("_strong_after", "_verified"):
        patch(modules, name, lambda fn: clock.wrap("verification", fn))
    patch([oracles], "_exact_candidates", lambda fn: lambda *a: TimedStream(clock, "candidates", fn(*a)))
    names = ["candidates", "kernel", "verification", "other", "total"]
    return {
        "calls": len(calls),
        "answers_sha256": answers,
        "counts": dict(sorted(counts.items())),
        **approx_stages.time_stages(clock, calib, lambda: run_pass(A, calls), answers, passes, names),
    }


if __name__ == "__main__":
    sys.exit(approx_stages.main(label="exact_stages", measure=measure, doc=__doc__))
