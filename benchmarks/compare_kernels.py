"""Compare the compiled flow/cut kernels against the pure-Python ones.

Runs the same randomly generated capacity matrices through both
backends, asserts they agree call by call, and reports per-operation
timings.  st_max_flow runs unbounded and limited to 1 (the pure
backend's reach) and 2.  min_cut_value gets the symmetrised matrices.  A second sweep
times min_cut_value on graph families (cycle, cycle plus n/6 chords,
complete, random 10-regular), karc_deficient_cut with k = 1 and 2 on
a union of k directed Hamilton cycles plus n/2 chords, and
karc_deficient_cut with k = 2 on such a union that lacks one arc into
the last vertex ("late"), at n = 64, 128 and 256.  A last pair of
rows asks karc_deficient_cut (k = 1) about the children of a broken
cycle, each one gaining pair flip away from it, without and with the
parent's side and the pair as the ``after`` hint; the hinted sides must
equal the unhinted ones.  ``--repeat N``
times every row N times, in N rounds over all rows, and reports the
median per backend, so that drift of the host shows in every row
alike instead of in whichever row ran during it.  The compiled
backend is the installed extension when there is one; otherwise, when
gcc and Python.h are present, the checked-in _cimpl.c is built into a
temporary directory, with warnings as errors, and loaded from there.
Usage:

    python3 benchmarks/compare_kernels.py [--sizes 10,20,40,60,128]
                                          [--samples 40] [--seed 7]
                                          [--repeat 1] [--csv out.csv]
"""

import argparse
import csv
import importlib
import importlib.util
import random
import shutil
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

from arcinvert import _kernels
from arcinvert._kernels import _pyimpl

FAMILY_SIZES = (64, 128, 256)


def load_cimpl(build_dir):
    """The compiled backend: the installed extension when there is one,
    else the checked-in _cimpl.c built with gcc into ``build_dir`` and
    loaded from there; None without gcc and Python.h.  This fallback
    build alone uses -Wall -Werror, so a new compiler warning fails it
    and its message carries gcc's output; setup.py builds the installed
    extension without -Werror."""
    try:
        return importlib.import_module("arcinvert._kernels._cimpl")
    except ImportError:
        pass
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not Path(include, "Python.h").exists():
        return None
    source = Path(_kernels.__file__).with_name("_cimpl.c")
    target = Path(build_dir) / ("_cimpl" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run(
        [gcc, "-O2", "-Wall", "-Werror", "-shared", "-fPIC", f"-I{include}", str(source),
         "-o", str(target)],
        capture_output=True,
        text=True,
    )
    if build.returncode != 0:
        raise RuntimeError(f"gcc failed to build {source.name}:\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("arcinvert._kernels._cimpl", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rand_caps(rng, n, density=0.35, mult_max=2):
    caps = [0] * (n * n)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                caps[u * n + v] = rng.randint(1, mult_max)
    return caps


def symmetrised(n, caps):
    return [caps[u * n + v] + caps[v * n + u] for u in range(n) for v in range(n)]


def sym_caps(n, edges):
    caps = [0] * (n * n)
    for u, v in edges:
        caps[u * n + v] += 1
        caps[v * n + u] += 1
    return caps


def family_graphs(rng, n):
    """(name, symmetric caps): a cycle, the cycle plus n/6 random chords,
    the complete graph and a union of 5 random Hamilton cycles (a
    10-regular multigraph)."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    chords = [tuple(rng.sample(range(n), 2)) for _ in range(n // 6)]
    tours = []
    for _ in range(5):
        order = rng.sample(range(n), n)
        tours += [(order[i], order[(i + 1) % n]) for i in range(n)]
    return [
        ("cycle", sym_caps(n, ring)),
        ("cycle+chords", sym_caps(n, ring + chords)),
        ("complete", sym_caps(n, [(u, v) for u in range(n) for v in range(u + 1, n)])),
        ("10-regular", sym_caps(n, tours)),
    ]


def cycle_union(rng, n, k):
    """Caps of k random directed Hamilton cycles plus n/2 random
    chords (parallel arcs allowed): a k-arc-strong digraph, on which a
    deficient-cut scan runs to the end."""
    caps = [0] * (n * n)
    for _ in range(k):
        order = rng.sample(range(n), n)
        for i in range(n):
            caps[order[i] * n + order[(i + 1) % n]] += 1
    for _ in range(n // 2):
        u, v = rng.sample(range(n), 2)
        caps[u * n + v] += 1
    return caps


def late_union(rng, n, k):
    """Caps of k random directed Hamilton cycles plus n/2 random chords
    that avoid n - 1, with one arc into n - 1 removed and its tail
    joined to the next vertex of its cycle instead.  Every cut other
    than the one around n - 1 still has at least k arcs out, and that
    one has k - 1: the scan runs to its end and fails at its last
    flow."""
    caps = [0] * (n * n)
    for j in range(k):
        order = rng.sample(range(n), n)
        for i in range(n):
            caps[order[i] * n + order[(i + 1) % n]] += 1
        if j == 0:
            i = order.index(n - 1)
            pred, succ = order[i - 1], order[(i + 1) % n]
            caps[pred * n + n - 1] -= 1
            caps[pred * n + succ] += 1
    for _ in range(n // 2):
        u, v = rng.sample(range(n - 1), 2)
        caps[u * n + v] += 1
    return caps


def broken_children(rng, n):
    """(child caps, after) for every pair flip that adds arcs out of the
    k = 1 side of a broken cycle: a directed Hamilton cycle with n/10 of
    its arcs turned round, plus n/2 chords.  Each child is the cycle's
    matrix with one such pair swapped, and after = (side, u, v)."""
    while True:
        order = rng.sample(range(n), n)
        caps = [0] * (n * n)
        for i in range(n):
            caps[order[i] * n + order[(i + 1) % n]] = 1
        for i in rng.sample(range(n), n // 10):
            t, h = order[i], order[(i + 1) % n]
            caps[t * n + h], caps[h * n + t] = 0, 1
        for _ in range(n // 2):
            u, v = rng.sample(range(n), 2)
            caps[u * n + v] += 1
        side = _pyimpl.karc_deficient_cut(n, caps, 1)
        if side != -1:
            break
    children = []
    for u in range(n):
        for v in range(n):
            # u in side, v not: the swap adds the v -> u arcs out of side
            if side >> u & 1 and not side >> v & 1 and caps[v * n + u] > caps[u * n + v]:
                child = list(caps)
                child[u * n + v], child[v * n + u] = caps[v * n + u], caps[u * n + v]
                children.append((child, (side, u, v)))
    return children


def bench_op(name, call, instances, cimpl):
    """Times one backend-agnostic closure over prebuilt instances,
    checks both backends return identical answers and returns (py s,
    c s or None)."""
    rows = []
    for impl in (_pyimpl, cimpl):
        if impl is None:
            rows.append(None)
            continue
        start = time.perf_counter()
        results = [call(impl, inst) for inst in instances]
        rows.append((time.perf_counter() - start, results))
    if rows[1] is not None and rows[0][1] != rows[1][1]:
        raise AssertionError(f"{name}: backends disagree")
    return rows[0][0], None if rows[1] is None else rows[1][0]


def table_rows(sizes, samples, seed):
    """(op, n, call, instances) of the random-matrix table."""
    rng = random.Random(seed)
    rows = []
    for n in sizes:
        caps_list = [rand_caps(rng, n) for _ in range(samples)]
        sym_list = [symmetrised(n, caps) for caps in caps_list]
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(samples)]
        flows = list(zip(caps_list, pairs))
        ops = [
            (
                "st_max_flow",
                lambda impl, inst, n=n: impl.st_max_flow(n, inst[0], *inst[1], -1),
                flows,
            ),
            (
                "st_max_flow limit=1",
                lambda impl, inst, n=n: impl.st_max_flow(n, inst[0], *inst[1], 1),
                flows,
            ),
            (
                "st_max_flow limit=2",
                lambda impl, inst, n=n: impl.st_max_flow(n, inst[0], *inst[1], 2),
                flows,
            ),
            (
                "min_cut_value",
                lambda impl, caps, n=n: impl.min_cut_value(n, caps),
                sym_list,
            ),
            (
                "karc_deficient_cut k=1",
                lambda impl, caps, n=n: impl.karc_deficient_cut(n, caps, 1),
                caps_list,
            ),
            (
                "karc_deficient_cut",
                lambda impl, caps, n=n: impl.karc_deficient_cut(n, caps, 2),
                caps_list,
            ),
        ]
        rows += [(name, n, call, instances) for name, call, instances in ops]
    return rows


def family_rows(sizes, seed):
    """(op, n, call, [caps]) of min_cut_value on each family graph, of
    karc_deficient_cut (k = 1, 2) on a k-cycle union and of
    karc_deficient_cut (k = 2) on a 2-cycle union that fails only at
    the last flow of the scan, one sample each; then karc_deficient_cut
    (k = 1) on the gaining children of one broken cycle, without and
    with the after hint."""
    rng = random.Random(seed)
    # the later streams keep the graphs of each kind those of a run
    # without the later kinds
    union_rng = random.Random(seed + 1)
    late_rng = random.Random(seed + 2)
    child_rng = random.Random(seed + 3)
    rows = []
    for n in sizes:
        rows += [
            (
                f"min_cut_value {family}",
                n,
                lambda impl, caps, n=n: impl.min_cut_value(n, caps),
                [caps],
            )
            for family, caps in family_graphs(rng, n)
        ]
        for k in (1, 2):
            rows.append((
                f"karc_deficient_cut k={k} union",
                n,
                lambda impl, caps, n=n, k=k: impl.karc_deficient_cut(n, caps, k),
                [cycle_union(union_rng, n, k)],
            ))
        rows.append((
            "karc_deficient_cut k=2 late",
            n,
            lambda impl, caps, n=n: impl.karc_deficient_cut(n, caps, 2),
            [late_union(late_rng, n, 2)],
        ))
        children = broken_children(child_rng, n)
        plain = [_pyimpl.karc_deficient_cut(n, caps, 1) for caps, _after in children]
        if [_pyimpl.karc_deficient_cut(n, caps, 1, after) for caps, after in children] != plain:
            raise AssertionError(f"karc_deficient_cut k=1 hinted, n = {n}: sides differ")
        rows += [
            (
                "karc_deficient_cut k=1 child",
                n,
                lambda impl, inst, n=n: impl.karc_deficient_cut(n, inst[0], 1),
                children,
            ),
            (
                "karc_deficient_cut k=1 hinted",
                n,
                lambda impl, inst, n=n: impl.karc_deficient_cut(n, inst[0], 1, inst[1]),
                children,
            ),
        ]
    return rows


def time_rows(rows, cimpl, repeat):
    """(op, n, samples, py ms, c ms or None) of each row: the medians
    over ``repeat`` rounds, each of which times every row once."""
    times = [([], []) for _ in rows]
    for _ in range(repeat):
        for (name, _n, call, instances), (py, c) in zip(rows, times):
            py_s, c_s = bench_op(name, call, instances, cimpl)
            py.append(py_s * 1000)
            if c_s is not None:
                c.append(c_s * 1000)
    return [
        (name, n, len(instances), statistics.median(py), statistics.median(c) if c else None)
        for (name, n, _call, instances), (py, c) in zip(rows, times)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10,20,40,60,128")
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--csv", default=None)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    sizes = [int(s) for s in args.sizes.split(",") if s]
    with tempfile.TemporaryDirectory() as build_dir:
        cimpl = load_cimpl(build_dir)
        if cimpl is None:
            print("compiled kernel not built and no gcc to build it; timing the pure backend only")
        rows = table_rows(sizes, args.samples, args.seed) + family_rows(FAMILY_SIZES, args.seed)
        table = time_rows(rows, cimpl, args.repeat)

    header = f"{'op':<32} {'n':>4} {'samples':>7} {'py ms':>9} {'c ms':>9} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, n, samples, py_ms, c_ms in table:
        c_txt = "-" if c_ms is None else f"{c_ms:9.2f}"
        ratio = "-" if c_ms is None else f"{py_ms / c_ms:7.1f}x"
        print(f"{name:<32} {n:>4} {samples:>7} {py_ms:9.2f} {c_txt:>9} {ratio:>8}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["op", "n", "samples", "py_ms", "c_ms"])
            for name, n, samples, py_ms, c_ms in table:
                writer.writerow([name, n, samples, f"{py_ms:.3f}",
                                 "" if c_ms is None else f"{c_ms:.3f}"])
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
