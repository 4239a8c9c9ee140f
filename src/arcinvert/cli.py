"""Command line front end.

Every subcommand prints a run report: the echoed command, an instance
digest (vertex count, arc count, underlying edge connectivity), the
subcommand's verdict lines, and the wall time.  Reports are
deterministic byte for byte for a fixed command and seed, except for
the millis line and the millis column of bench output.  The verified:
and valid: lines and the bench verified column report the library's
own check: every family or plan a library call returns has been
verified by that call, and one that fails raises before the report.

Exit codes: 0 answer yes / solved, 1 answer no / infeasible, 2 usage
or malformed input, 3 violated precondition or unsupported case.
"""

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from math import comb

from .approx import approx_kp
from .core import (
    _check_k,
    INFINITY,
    Multigraph,
    MultiDigraph,
    edge_connectivity,
    is_k_arc_strong,
    read_mdg,
    write_mdg,
)
from .errors import (
    InvalidArgumentError,
    ParseError,
    PreconditionViolatedError,
    UnsupportedError,
)
from .feasibility import is_kp_invertible
from .obstruction import certificate_to_text, is_k_obstruction
from .oracles import Hypergraph, exact_inv_kp
from .reductions import (
    gen_do_m22inv,
    gen_hm,
    gen_npsi_22,
    gen_p3p,
    gen_psi_ksi,
    gen_push_n1,
    random_pattern_source,
)
from .simulation import simulate_pair, simulate_quintuple, simulate_triple

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

GEN_KINDS = ("p3p", "hm", "do-m22inv", "push-n1", "psi-ksi", "npsi-22")
BENCH_SOLVERS = ("exact", "exact-le", "approx", "approx-greedy", "feasible")


def _lambda_text(G):
    lam = edge_connectivity(G)
    return "inf" if lam == INFINITY else str(lam)


def _digest_lines(D):
    return [
        f"n: {D.n}",
        f"arcs: {D.arc_count()}",
        f"lambda: {_lambda_text(D.underlying())}",
    ]


def _report(out, argv, body_lines, millis):
    print("command: arcinvert " + " ".join(argv), file=out)
    for line in body_lines:
        print(line, file=out)
    print(f"millis: {millis}", file=out)


def _cmd_analyze(args):
    D = read_mdg(args.file)
    _check_k(args.k)
    body = _digest_lines(D)
    for k in range(1, args.k + 1):
        flag = is_k_arc_strong(D, k)
        body.append(f"{k}-arc-strong: {str(flag).lower()}")
    return EXIT_YES, body


def _cmd_feasible(args):
    D = read_mdg(args.file)
    verdict = is_kp_invertible(D, args.k, args.p, witness=args.witness)
    body = _digest_lines(D)
    body.append(f"feasible: {str(verdict.feasible).lower()}")
    body.append(f"reason: {verdict.reason}")
    if verdict.certificate is not None:
        body.extend(certificate_to_text(verdict.certificate).splitlines())
    if verdict.witness is not None:
        body.extend(verdict.witness.to_lines())
        body.append("verified: true")
    return (EXIT_YES if verdict.feasible else EXIT_NO), body


def _cmd_obstruction(args):
    D = read_mdg(args.file)
    cert = is_k_obstruction(D, args.k)
    body = _digest_lines(D)
    if cert is None:
        body.append("obstruction: false")
        return EXIT_NO, body
    body.append("obstruction: true")
    body.extend(certificate_to_text(cert).splitlines())
    return EXIT_YES, body


def _cmd_simulate(args):
    D = read_mdg(args.file)
    target = tuple(_parse_id_list(args.set))
    if len(target) == 2:
        plan = simulate_pair(D, target, args.p)
    elif len(target) == 3:
        plan = simulate_triple(D, target, args.p)
    elif len(target) == 5:
        plan = simulate_quintuple(D, target, args.p)
    else:
        raise InvalidArgumentError(
            f"--set must name 2, 3, or 5 vertices, got {len(target)}"
        )
    body = _digest_lines(D)
    body.append("target: " + " ".join(str(v) for v in sorted(target)))
    body.append(f"sets: {len(plan.sets)}")
    body.extend(plan.family().to_lines() if plan.sets else [])
    body.append("verified: true")
    return EXIT_YES, body


def _cmd_approx(args):
    D = read_mdg(args.file)
    family, trace = approx_kp(D, args.k, args.p, heuristic=args.heuristic)
    body = _digest_lines(D)
    body.append(f"value: {len(family.sets)}")
    body.extend(family.to_lines())
    body.append(f"base-pairs: {len(trace.base_pairs.sets)}")
    body.append(f"base-optimal: {str(trace.base_optimal).lower()}")
    body.append(f"minimal-core-arcs: {trace.minimal_core.arc_count()}")
    body.append(f"packed: {len(trace.packed)}")
    body.append(f"leftover: {len(trace.leftover)}")
    body.append(f"eta: {trace.eta}")
    body.append(f"ramsey-bound: {trace.ramsey_bound}")
    body.append(f"guarantee-void: {str(trace.guarantee_void).lower()}")
    body.append("valid: true")
    return EXIT_YES, body


def _cmd_exact(args):
    D = read_mdg(args.file)
    mode = "at-most" if args.le else "exact-size"
    family = exact_inv_kp(D, args.k, args.p, mode=mode, l_max=args.lmax)
    body = _digest_lines(D)
    if family is None:
        body.append("value: none")
        body.append(f"infeasible with at most {args.lmax} sets")
        return EXIT_NO, body
    body.append(f"value: {len(family.sets)}")
    body.extend(family.to_lines())
    body.append("verified: true")
    return EXIT_YES, body


def _check_draws(count, name, fit=None):
    """Reject a count of distinct draws below 0, or above fit when
    there are only fit to draw from (a draw would fail or never end)."""
    if count < 0:
        raise InvalidArgumentError(f"{name} must be non-negative, got {count}")
    if fit is not None and count > fit:
        raise InvalidArgumentError(f"at most {fit} distinct edges fit")


def _random_bipartite(rng, n, edges):
    if n < 2:
        raise InvalidArgumentError("need at least 2 vertices")
    a = max(1, n // 2)
    pairs = [(u, v) for u in range(a) for v in range(a, n)]
    _check_draws(edges, "--edges", len(pairs))
    return Multigraph(n, rng.sample(pairs, edges))


def _random_uniform_hypergraph(rng, n, edges, arity):
    if n < arity:
        raise InvalidArgumentError("need at least arity many vertices")
    if arity < 1:
        raise InvalidArgumentError(f"--arity must be positive, got {arity}")
    _check_draws(edges, "--edges", comb(n, arity))
    chosen = set()
    while len(chosen) < edges:
        chosen.add(frozenset(rng.sample(range(n), arity)))
    return Hypergraph(n, sorted(chosen, key=sorted))


def _random_bridgeless(rng, n, extra):
    if n < 3:
        raise InvalidArgumentError("need at least 3 vertices")
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    _check_draws(extra, "--edges")
    extra = min(extra, len(candidates))
    edges.update(rng.sample(candidates, extra))
    return Multigraph(n, sorted(edges))


def _random_oriented(rng, n, density):
    if n < 3:
        raise InvalidArgumentError("need at least 3 vertices")
    if not 0 <= density <= 1:
        raise InvalidArgumentError(f"--density must be in [0, 1], got {density}")
    arcs = [(i, (i + 1) % n) for i in range(n)]
    present = {tuple(sorted(a)) for a in arcs}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in present or rng.random() >= density:
                continue
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return MultiDigraph(n, arcs)


def _build_instance(args, rng):
    k = args.k if args.k is not None else (2 if args.kind == "psi-ksi" else 1)
    if args.kind == "p3p":
        G = _random_bipartite(rng, args.vertices, args.edges)
        return gen_p3p(G, k)
    if args.kind == "hm":
        H = _random_uniform_hypergraph(rng, args.vertices, args.edges, args.arity)
        return gen_hm(H, k)
    if args.kind == "do-m22inv":
        G = _random_bridgeless(rng, args.vertices, args.edges)
        pool = [(u, v) for (u, v, _m) in G.edges()]
        _check_draws(args.deletable, "--deletable")
        F = rng.sample(pool, min(args.deletable, len(pool)))
        return gen_do_m22inv(G, F)
    if args.kind == "push-n1":
        D = _random_oriented(rng, args.vertices, args.density)
        return gen_push_n1(D)
    source = random_pattern_source(rng, args.parts, args.part_size, args.extra_edges)
    if args.kind == "psi-ksi":
        return gen_psi_ksi(*source, k)
    return gen_npsi_22(*source)


def _json_ready(value):
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_json_ready(v) for v in value]
        return sorted(items, key=str) if isinstance(value, (set, frozenset)) else items
    return value


def _cmd_gen(args):
    rng = random.Random(args.seed)
    inst = _build_instance(args, rng)
    write_mdg(args.output, inst.digraph, comment=f"generated: {inst.kind} seed={args.seed}")
    sidecar = {
        "kind": inst.kind,
        "seed": args.seed,
        "params": _json_ready(inst.params),
        "source_meta": _json_ready(inst.source_meta),
        "planted": None if inst.planted is None else [sorted(s) for s in inst.planted.sets],
    }
    with open(args.output + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    body = _digest_lines(inst.digraph)
    body.append(f"kind: {inst.kind}")
    body.append(f"k: {inst.params['k']}")
    body.append(f"p: {inst.params['p']}")
    body.append(f"planted: {'none' if inst.planted is None else len(inst.planted.sets)}")
    body.append(f"wrote: {args.output}")
    body.append(f"wrote: {args.output}.meta.json")
    return EXIT_YES, body


def _parse_manifest(path):
    """Rows (instance, k, p, solver); instance paths resolve relative
    to the manifest's directory."""
    base = os.path.dirname(os.path.abspath(path))
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(no, f"expected 'instance k p solver', got {raw.strip()!r}")
            name, k_text, p_text, solver = parts
            try:
                k, p = int(k_text), int(p_text)
            except ValueError:
                raise ParseError(no, f"k and p must be integers, got {raw.strip()!r}")
            if solver not in BENCH_SOLVERS:
                raise ParseError(no, f"unknown solver {solver!r}")
            rows.append((name, os.path.join(base, name), k, p, solver))
    return rows


def _bench_row(row):
    name, path, k, p, solver = row
    start = time.perf_counter()
    D = read_mdg(path)
    # only a missing exact family leaves a row unverified
    value, verified = -1, True
    if solver == "feasible":
        value = int(is_kp_invertible(D, k, p, witness=True).feasible)
    elif solver in ("approx", "approx-greedy"):
        family, _trace = approx_kp(D, k, p, heuristic=(solver == "approx-greedy"))
        value = len(family.sets)
    else:
        mode = "at-most" if solver == "exact-le" else "exact-size"
        family = exact_inv_kp(D, k, p, mode=mode)
        verified = family is not None
        if verified:
            value = len(family.sets)
    millis = int(round((time.perf_counter() - start) * 1000))
    return [name, str(k), str(p), solver, str(value), str(verified).lower(), str(millis)]


def _cmd_bench(args):
    rows = [_bench_row(row) for row in _parse_manifest(args.manifest)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["instance", "k", "p", "solver", "value", "verified", "millis"])
    writer.writerows(rows)
    text = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return EXIT_YES, [f"rows: {len(rows)}", f"wrote: {args.output}"]
    return EXIT_YES, text.rstrip("\n").splitlines()


def _parse_id_list(text):
    try:
        ids = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise InvalidArgumentError(f"--set expects integer ids, got {text!r}")
    if len(set(ids)) != len(ids):
        raise InvalidArgumentError("--set ids must be distinct")
    return ids


def _add_instance_arg(sub):
    sub.add_argument("file", help="input .mdg file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arcinvert",
        description="decide, witness, and approximate bounded-size arc inversions",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("analyze", help="report connectivity and arc-strongness flags")
    s.add_argument("--k", type=int, default=2, help="report flags for 1..k (default 2)")
    _add_instance_arg(s)
    s.set_defaults(func=_cmd_analyze)

    s = subs.add_parser("feasible", help="decide reachability of a k-arc-strong digraph")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--witness", action="store_true", help="emit a verified inversion family")
    _add_instance_arg(s)
    s.set_defaults(func=_cmd_feasible)

    s = subs.add_parser("obstruction", help="recognise blocking partitions")
    s.add_argument("--k", type=int, required=True)
    _add_instance_arg(s)
    s.set_defaults(func=_cmd_obstruction)

    s = subs.add_parser("simulate", help="replace one inversion by exact-size-p sets")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--set", required=True, help="target vertex ids, e.g. 0,1,2")
    _add_instance_arg(s)
    s.set_defaults(func=_cmd_simulate)

    s = subs.add_parser("approx", help="bounded-ratio family of (<=p)-inversions")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--heuristic", action="store_true", help="greedy pair stage, no ratio guarantee")
    _add_instance_arg(s)
    s.set_defaults(func=_cmd_approx)

    s = subs.add_parser("exact", help="minimum family by iterative deepening")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--le", action="store_true", help="sets of size at most p instead of exactly p")
    s.add_argument("--lmax", type=int, default=4, help="search budget in number of sets (default 4)")
    _add_instance_arg(s)
    s.set_defaults(func=_cmd_exact)

    s = subs.add_parser("gen", help="hardness-reduction instance generators")
    s.add_argument("kind", choices=GEN_KINDS)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("-o", "--output", required=True, help="output .mdg path")
    s.add_argument("--k", type=int, default=None, help="connectivity target (default 1; psi-ksi 2)")
    s.add_argument("--vertices", type=int, default=6, help="source size (p3p, hm, do-m22inv, push-n1)")
    s.add_argument("--edges", type=int, default=4, help="source edge count (p3p, hm) or extra chords (do-m22inv)")
    s.add_argument("--arity", type=int, default=3, help="hyperedge size (hm)")
    s.add_argument("--deletable", type=int, default=1, help="forced-deletable edge count (do-m22inv)")
    s.add_argument("--density", type=float, default=0.5, help="arc probability (push-n1)")
    s.add_argument("--parts", type=int, default=3, help="pattern colours (psi-ksi, npsi-22)")
    s.add_argument("--part-size", type=int, default=3, help="vertices per part (psi-ksi, npsi-22)")
    s.add_argument("--extra-edges", type=int, default=1, help="extra edges per pattern edge (psi-ksi, npsi-22)")
    s.set_defaults(func=_cmd_gen)

    s = subs.add_parser("bench", help="run a manifest of instances x solvers to CSV")
    s.add_argument("manifest", help="lines of: instance k p solver (# comments allowed)")
    s.add_argument("-o", "--output", help="CSV path (default: stdout, in the report between command: and millis:)")
    s.set_defaults(func=_cmd_bench)

    return parser


def cli_dispatch(argv):
    """Run one command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    start = time.perf_counter()
    try:
        code, body = args.func(args)
    except (ParseError, InvalidArgumentError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionViolatedError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    millis = int(round((time.perf_counter() - start) * 1000))
    _report(sys.stdout, argv, body, millis)
    return code


def main():
    return cli_dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
