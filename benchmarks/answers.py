"""Digest of every answer the benchmark workloads get from the package.

Builds each named workload of perfbench/workloads.py for each seed,
issues its call list once, and prints one sha256 per workload and seed
over the repr of every result in a canonical form: families as their
sets in order, verdicts and traces field by field, digraphs and
multigraphs (orientations, minimal cores) as their sorted arcs or
edges.  A call that raises contributes its exception type and message
and counts as failed.  Two checkouts that print the same digests gave
byte-identical answers.  ``--check FILE`` recomputes every digest
line of FILE instead (``#`` lines are skipped), prints the lines that
differ and exits with status 1 if any does; answers_digests.txt holds
the digests of all three workloads for seeds 1, 2 and 7, which are the
same under both kernel backends.  Usage, from the repository root:

    python3 benchmarks/answers.py [--workloads decide,approx,exact]
                                  [--seeds 1,2,7]
    python3 benchmarks/answers.py --check benchmarks/answers_digests.txt

The package is imported from this checkout's ``src``; the workload
definitions are only read (no byte code is written next to them).
"""

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True

import arcinvert as A  # noqa: E402
import workloads  # noqa: E402


def canonical(x):
    """A nested tuple that fixes every detail of a result."""
    if isinstance(x, A.MultiDigraph):
        return ("MultiDigraph", x.n, tuple(x.arcs()))
    if isinstance(x, A.Multigraph):
        return ("Multigraph", x.n, tuple(x.edges()))
    if isinstance(x, A.InversionFamily):
        return ("InversionFamily", tuple(tuple(sorted(s)) for s in x.sets))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            (f.name, canonical(getattr(x, f.name))) for f in dataclasses.fields(x)
        )
    if isinstance(x, (set, frozenset)):
        return ("set", tuple(sorted(canonical(e) for e in x)))
    if isinstance(x, (list, tuple)):
        return tuple(canonical(e) for e in x)
    return x


def answers_digest(name, seed):
    """(calls, failed calls, sha256 hex) of one pass over a workload."""
    w = workloads.build(name, seed)
    h = hashlib.sha256()
    failed = 0
    for call in w.calls:
        try:
            out = canonical(getattr(A, call.fn)(*call.args, **call.kwargs))
        except Exception as exc:  # reported, not raised: the digest shows it
            out = ("raised", type(exc).__name__, str(exc))
            failed += 1
        h.update(f"{call.label}\t{out!r}\n".encode())
    return len(w.calls), failed, h.hexdigest()


def digest_line(name, seed):
    calls, failed, digest = answers_digest(name, seed)
    return f"{name} seed={seed} calls={calls} failed={failed} sha256={digest}"


def check(path):
    """Number of digest lines of the file at path that this checkout
    does not reproduce; each is printed with the line it gives."""
    text = Path(path).read_text()
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    differ = 0
    for line in lines:
        name, seed = line.split()[:2]
        got = digest_line(name, int(seed.removeprefix("seed=")))
        if got != line:
            differ += 1
            print(f"expected {line}\ngot      {got}")
    print(f"{len(lines) - differ} of {len(lines)} digests equal")
    return differ


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="1,2,7")
    ap.add_argument("--check", metavar="FILE", help="compare with the digest lines in FILE")
    args = ap.parse_args(argv)
    print(f"# arcinvert from {Path(A.__file__).parent}, backend {A._kernels.backend_name}")
    if args.check:
        return 1 if check(args.check) else 0
    seeds = [int(s) for s in args.seeds.split(",")]
    for name in args.workloads.split(","):
        for seed in seeds:
            print(digest_line(name, seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
