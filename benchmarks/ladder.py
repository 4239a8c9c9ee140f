"""Wall time of public entry points on a fixed ladder of instance sizes.

Each rung is one call on one seeded instance.  There are two call
groups:

- ``witness``: ``is_kp_invertible(D, 1, p, witness=True)`` for p = 3
  and 5 on cycle unions at n = 64, 128 and 256, built from the recipes
  of perfbench/workloads.py: ``cycle_union(rng, n, 1, n)`` broken by
  ``break_by_triples(rng, D, 1, 4)``, with rng ``random.Random(1)``.
- ``near-tournament``: the same call for p = 3 on the n = 64
  tournament that ``near_tournament`` below draws from
  ``random.Random(5)``, where the coset search's span has partial
  rank.
- ``pairs``: ``min_k2_inversion_set(D, 1)`` on broken cycles at n = 40
  and 50, seeds 1 and 2, built by ``reversed_chorded_cycle`` below.
- ``greedy``: ``greedy_k2_inversion_set(D, 1)``, the greedy pair repair
  and its exact fallback, on the same broken cycles.

Every call runs in a child interpreter of its own under a wall-clock
cap, which bounds the whole child (import, instance and call).  A rung
whose call hits the cap is recorded as ``capped`` with the cap, and is
not repeated; the others get the median of REPEAT calls, timed inside
the child around the call alone, and the medians of the children's
peak RSS (``ru_maxrss``, which counts the import and the instance
too) and of their floor RSS (``ru_maxrss`` after the import and the
instance build, just before the call).  Peak minus floor is what the
call added.  The child checks the family itself (every set has the rung's
size and the inverted digraph is 1-arc-strong) and reports a hash of
it, so runs on two checkouts show whether they returned the same
family.  Rungs run under the pure backend, and under the compiled one
when benchmarks/compare_kernels.py can load it (the installed
extension, or _cimpl.c built with gcc into a temporary directory).

Results go to BENCH_<label>.json at the repository root, under the
run's name; runs of other names already in the file are kept, so the
parent of a change and the change can share one file:

    python3 benchmarks/ladder.py --label pair_memo --run parent \\
        --src ../parent/src
    python3 benchmarks/ladder.py --label pair_memo --run change

``--src`` names the package source to measure (default: this
checkout's ``src``); the recipes always come from this checkout.  The
standard library is all it needs.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLS = {
    "witness": "is_kp_invertible(D, 1, p, witness=True)",
    "near-tournament": "is_kp_invertible(D, 1, p, witness=True)",
    "pairs": "min_k2_inversion_set(D, 1)",
    "greedy": "greedy_k2_inversion_set(D, 1)",
}
# (call group, n, set size, seed)
RUNGS = (
    [("witness", n, p, 1) for n in (64, 128, 256) for p in (3, 5)]
    + [("near-tournament", 64, 3, 5)]
    + [(call, n, 2, seed) for call in ("pairs", "greedy") for n in (40, 50) for seed in (1, 2)]
)
REPEAT = 3
CAP_S = 120.0  # seconds per child; no rung has taken more than about 40 s


def reversed_chorded_cycle(A, n, seed):
    """A random Hamilton dicycle with 3n/10 of its arcs reversed, plus
    random chords on new vertex pairs up to n + n/2 arcs."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    for i in rng.sample(range(n), 3 * n // 10):
        arcs[i] = arcs[i][::-1]
    pairs = {frozenset(a) for a in arcs}
    while len(arcs) < n + n // 2:
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in pairs:
            pairs.add(frozenset((u, v)))
            arcs.append((u, v))
    return A.MultiDigraph(n, arcs)


def near_tournament(A, n, seed):
    """A random tournament on n vertices, each pair u < v turned u -> v
    or v -> u with probability 1/2; if it is strong, every arc at
    vertex 0 is turned out of 0."""
    rng = random.Random(seed)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in combinations(range(n), 2)]
    D = A.MultiDigraph(n, arcs)
    if A.is_k_arc_strong(D, 1):
        D = A.MultiDigraph(n, [(h, t) if h == 0 else (t, h) for t, h in arcs])
    return D


def child(src, call, n, p, seed, cimpl_path):
    """Builds the rung's instance, times its call once and returns its
    record."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True
    import arcinvert as A
    import workloads

    if cimpl_path:
        spec = importlib.util.spec_from_file_location("arcinvert._kernels._cimpl", cimpl_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        A._kernels._impl = module
    if call == "witness":
        rng = random.Random(seed)
        D = workloads.break_by_triples(rng, workloads.cycle_union(rng, n, 1, n), 1, 4)
    elif call == "near-tournament":
        D = near_tournament(A, n, seed)
    else:
        D = reversed_chorded_cycle(A, n, seed)
    floor_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    if call == "pairs":
        fam, reason = A.min_k2_inversion_set(D, 1), None
    elif call == "greedy":
        fam, reason = A.greedy_k2_inversion_set(D, 1), None
    else:
        verdict = A.is_kp_invertible(D, 1, p, witness=True)
        fam, reason = verdict.witness, verdict.reason
    wall = time.perf_counter() - start
    sets = [] if fam is None else [sorted(s) for s in fam.sets]
    verified = fam is not None and all(len(s) == p for s in sets) and A.is_k_arc_strong(
        A.apply_inversions(D, fam), 1
    )
    return {
        "backend": A._kernels._impl.BACKEND,
        "instance": workloads.digest(D),
        "reason": reason,
        "sets": len(sets),
        "family_sha256": hashlib.sha256(repr(sets).encode()).hexdigest()[:16],
        "verified": verified,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "floor_rss_mb": floor_rss,
    }


def run_call(src, rung, cimpl_path):
    """The child's record, or None when it hit the cap."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", *map(str, rung),
           "--src", src]
    if cimpl_path:
        cmd += ["--cimpl", cimpl_path]
    env = dict(os.environ, ARCINVERT_KERNEL="py", PYTHONHASHSEED="0")
    try:
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CAP_S,
                             check=True)
    except subprocess.TimeoutExpired:
        return None
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(f"rung {rung} failed:\n{exc.stderr}") from None
    return json.loads(out.stdout.splitlines()[-1])


def run_rung(src, rung, cimpl_path):
    """One rung's entry: medians over the calls, or capped."""
    call, n, p, seed = rung
    entry = {"call": call, "n": n, "p": p, "seed": seed, "cap_s": CAP_S}
    records = []
    for _ in range(REPEAT):
        rec = run_call(src, rung, cimpl_path)
        if rec is None:
            return {**entry, "capped": True, "verified": None}
        records.append(rec)
    first = records[0]
    if any(r["family_sha256"] != first["family_sha256"] for r in records):
        raise RuntimeError(f"rung {rung} returned different families")
    if first["backend"] != ("c" if cimpl_path else "py"):
        raise RuntimeError(f"rung {rung} ran on the {first['backend']} backend")
    walls = [r["wall_s"] for r in records]
    rss = [r["peak_rss_mb"] for r in records]
    floor = [r["floor_rss_mb"] for r in records]
    return {
        **entry, "capped": False,
        "verified": all(r["verified"] for r in records),
        "median_s": statistics.median(walls), "wall_s": walls,
        "median_rss_mb": statistics.median(rss), "peak_rss_mb": rss,
        "median_floor_rss_mb": statistics.median(floor), "floor_rss_mb": floor,
        **{key: first[key] for key in ("reason", "sets", "family_sha256", "instance")},
    }


def compiled_kernel(src, build_dir):
    """Path of the compiled kernel for the package at src, as
    compare_kernels.py loads it, or None."""
    sys.path[:0] = [src, str(ROOT / "benchmarks")]
    sys.dont_write_bytecode = True
    import compare_kernels

    module = compare_kernels.load_cimpl(build_dir)
    return None if module is None else module.__file__


def source_commit(src):
    """The git commit of the checkout holding src, with ``-dirty``
    appended when its tracked files differ from it, or None."""
    try:
        out = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="ladder", help="writes BENCH_<label>.json")
    ap.add_argument("--run", default="change", help="name of this run in the file")
    ap.add_argument("--src", default=str(ROOT / "src"), help="package source to measure")
    ap.add_argument("--child", nargs=4, metavar=("CALL", "N", "P", "SEED"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--cimpl", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    if args.child:
        call, n, p, seed = args.child
        print(json.dumps(child(src, call, int(n), int(p), int(seed), args.cimpl)))
        return 0

    with tempfile.TemporaryDirectory() as build_dir:
        kernels = {"py": None}
        path = compiled_kernel(src, build_dir)
        if path is None:
            print("compiled kernel not built and no gcc to build it; timing py only")
        else:
            kernels["c"] = path
        rungs = {}
        for backend, cimpl_path in kernels.items():
            rungs[backend] = []
            for rung in RUNGS:
                entry = run_rung(src, rung, cimpl_path)
                rungs[backend].append(entry)
                shown = "capped" if entry["capped"] else (
                    f"{entry['median_s']:.4f} s, {entry['median_rss_mb']:.1f} MB")
                call, n, p, seed = rung
                print(f"{backend} {call} n={n} p={p} seed={seed}: {shown}", flush=True)

    out = ROOT / f"BENCH_{args.label}.json"
    data = json.loads(out.read_text()) if out.exists() else {"label": args.label, "runs": {}}
    data["runs"][args.run] = {
        "commit": source_commit(src),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "repeat": REPEAT,
        "calls": CALLS,
        "rungs": rungs,
    }
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
