"""Seeded instances, call lists and answer checks for the benchmark.

Each workload is built by ``build(name, seed)`` into a Workload: the
instances (for the run labels), the fixed list of public-API calls that
one pass issues back to back, and one check per call.  Instances come
from the standard library's random module seeded by the workload name
and the seed, plus the package's own public constructors and
generators, so the same seed always gives the same inputs.

A check turns a call's result into a short canonical answer string
(compared with the golden answers recorded at a fixed commit) and an
error message when the answer fails a check made from outside: a
witness that does not verify, a certificate that is rejected, a value
that differs from the planted optimum, or a family above the
approximation bound.
"""

import hashlib
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import ceil, comb

import arcinvert as A

WORKLOADS = ("decide", "approx", "exact")


@dataclass
class Call:
    label: str
    fn: str  # name of a public function of the arcinvert package
    args: tuple
    kwargs: dict
    # check(result, verify=True) -> (answer, error message or None); with
    # verify=False only the answer, which is cheap to compute
    check: object


@dataclass
class Workload:
    name: str
    seed: int
    instances: list = field(default_factory=list)  # (label, graph)
    calls: list = field(default_factory=list)

    def add_instance(self, label, graph):
        self.instances.append((label, graph))
        return len(self.instances) - 1

    def add_call(self, label, fn, args, kwargs, inst, check):
        """``label`` gets the instance index appended, which makes it
        unique within the workload."""
        self.calls.append(Call(f"{label} #{inst}", fn, tuple(args), dict(kwargs), check))


def digest(graph):
    """(n, arcs, lambda, content hash) of an instance; lambda of the
    underlying graph.  Instances of one recipe share n, arcs and lambda
    across seeds, so the hash of the arc list tells seeds apart."""
    if isinstance(graph, A.MultiDigraph):
        items = list(graph.arcs())
        lam = A.edge_connectivity(graph.underlying())
    else:
        items = list(graph.edges())
        lam = A.edge_connectivity(graph)
    content = hashlib.sha256(repr(items).encode()).hexdigest()[:16]
    return [graph.n, sum(m for *_ends, m in items), lam if lam != A.INFINITY else -1, content]


# -- instance generators -------------------------------------------------


def cycle_union(rng, n, k, chords):
    """Oriented graph: k Hamilton dicycles on pairwise distinct vertex
    pairs, plus ``chords`` arcs on pairs not yet adjacent.  It is
    k-arc-strong and its underlying graph 2k-edge-connected, since every
    cut is crossed by each dicycle both ways.

    Chords avoid vertex 0, so its degree 2k equals the edge
    connectivity: the fixed-root min-cut scan bounds its flows by the
    first one, from vertex 0, and costs about the same on every seed
    instead of two to three times more when vertex 0 has chords."""
    cycles = []
    pairs = set()
    while len(cycles) < k * n:
        perm = list(range(n))
        rng.shuffle(perm)
        cyc = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
        if not {frozenset(a) for a in cyc} & pairs:
            cycles.extend(cyc)
            pairs.update(frozenset(a) for a in cyc)
    free = [(u, v) for u in range(1, n) for v in range(u + 1, n) if frozenset((u, v)) not in pairs]
    arcs = set(cycles)
    for u, v in rng.sample(free, min(chords, len(free))):
        arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    return A.MultiDigraph(n, sorted(arcs))


def break_by_triples(rng, D, k, triples):
    """Invert random triples of a k-arc-strong oriented D; while the
    result is still k-arc-strong, invert triples {v, a, b} with arcs
    v -> a and v -> b, each of which takes two arcs out of v, until some
    v has fewer than k arcs out.  Inverting the same triples again
    repairs D, so the result is (k, 3)-invertible by construction."""
    n = D.n
    out = A.apply_inversions(D, [rng.sample(range(n), 3) for _ in range(triples)])
    order = list(range(n))
    rng.shuffle(order)
    for v in order * 3:
        if not A.is_k_arc_strong(out, k):
            return out
        heads = [h for h in range(n) if out.has_arc(v, h)]
        while len(heads) >= 2 and len(heads) >= k:
            out = A.apply_inversions(out, [[v, *rng.sample(heads, 2)]])
            heads = [h for h in range(n) if out.has_arc(v, h)]
    if A.is_k_arc_strong(out, k):
        raise RuntimeError("internal error: could not break the instance")
    return out


def relabel(rng, D):
    perm = list(range(D.n))
    rng.shuffle(perm)
    return A.MultiDigraph(D.n, [(perm[t], perm[h], m) for (t, h, m) in D.arcs()])


def broken_cycle(rng, n, k, bare, hidden, chords):
    """k Hamilton dicycles plus chords, with ``bare + hidden`` cycle arcs
    reversed.  The ``bare`` reversed arcs are vertex-disjoint and no
    chord touches their ends, so each leaves its tail with k - 1 arcs out
    and its head with k - 1 arcs in: the pair optimum is at least
    ``bare`` (one pair flip mends two such vertices) and at most
    ``bare + hidden``.  The ``hidden`` ones sit between vertices that
    chords may touch, where no degree shows them, and are what the pair
    search has to find."""
    while True:
        D = cycle_union(rng, n, k, 0)
        cycle = [(t, h) for (t, h, _m) in D.arcs()]
        rng.shuffle(cycle)
        used, bare_arcs = set(), []
        for (t, h) in cycle:
            if len(bare_arcs) < bare and t not in used and h not in used:
                bare_arcs.append((t, h))
                used.update((t, h))
        if len(bare_arcs) == bare:
            break
    rest = [a for a in cycle if a not in bare_arcs and not set(a) & used]
    hidden_arcs = rest[:hidden]
    arcs = set(cycle)
    pairs = {frozenset(a) for a in cycle}
    free = [(u, v) for u in range(n) for v in range(u + 1, n)
            if u not in used and v not in used and frozenset((u, v)) not in pairs]
    for u, v in rng.sample(free, min(chords, len(free))):
        arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    for (t, h) in bare_arcs + hidden_arcs:
        arcs.discard((t, h))
        arcs.add((h, t))
    return A.MultiDigraph(n, sorted(arcs))


def bridgeless_multigraph(rng, n, k, chords):
    """k Hamilton cycles plus random chords: a 2k-edge-connected
    multigraph in which the chords leave vertices of odd degree."""
    edges = []
    for _ in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        edges.extend((perm[i], perm[(i + 1) % n]) for i in range(n))
    for _ in range(chords):
        edges.append(tuple(rng.sample(range(n), 2)))
    return A.Multigraph(n, edges)


def bipartite_source(rng, n, edges):
    half = n // 2
    pairs = [(u, v) for u in range(half) for v in range(half, n)]
    return A.Multigraph(n, rng.sample(pairs, edges))


def uniform_hypergraph(rng, n, edges, arity):
    chosen = rng.sample([frozenset(c) for c in combinations(range(n), arity)], edges)
    return A.Hypergraph(n, sorted(chosen, key=sorted))


# -- checks ----------------------------------------------------------------


def _verifies(D, fam, k):
    return A.is_k_arc_strong(A.apply_inversions(D, fam), k)


def check_decide(D, k, p, witness, expect):
    """``expect`` is the verdict known by construction: "feasible",
    "k-obstruction", "not-2k-edge-connected", or None when only the
    golden answer knows it."""

    def check(v, verify=True):
        answer = f"{'T' if v.feasible else 'F'}:{v.reason}"
        if witness and v.feasible and p == 2 and v.reason == "theorem-even":
            answer += f":pairs={len(v.witness)}"  # p = 2 witnesses are optimal pair families
        if not verify:
            return answer, None
        if expect == "feasible" and not v.feasible:
            return answer, "verdict infeasible, feasible by construction"
        if expect in ("k-obstruction", "not-2k-edge-connected") and v.reason != expect:
            return answer, f"reason {v.reason}, expected {expect}"
        if v.reason == "k-obstruction":
            if v.certificate is None or not A.verify_certificate(D, v.certificate):
                return answer, "obstruction certificate rejected"
        if witness and v.feasible:
            if v.witness is None:
                return answer, "feasible verdict without the requested witness"
            if any(len(s) != p for s in v.witness.sets):
                return answer, "witness set of the wrong size"
            if not _verifies(D, v.witness, k):
                return answer, "witness does not make D k-arc-strong"
        elif v.witness is not None:
            return answer, "unrequested or infeasible witness attached"
        return answer, None

    return check


def check_approx(D, k, p, heuristic, bare):
    """``bare`` is a lower bound on the size of any pair family known by
    construction (broken_cycle) and bare + 1 an upper bound on the pair
    optimum."""

    def check(result, verify=True):
        fam, trace = result
        pairs = len(trace.base_pairs)
        if heuristic:
            answer = f"sets={len(fam)}"
        else:
            answer = f"pairs={pairs}:sets={len(fam)}"
        if not verify:
            return answer, None
        if any(not 2 <= len(s) <= p for s in fam.sets):
            return answer, "family set outside sizes 2..p"
        if not _verifies(D, fam, k):
            return answer, "family does not make D k-arc-strong"
        if not _verifies(D, trace.base_pairs, k):
            return answer, "pair family does not make D k-arc-strong"
        if trace.guarantee_void != heuristic:
            return answer, "guarantee flag does not match the heuristic switch"
        if pairs < bare:
            return answer, f"pair family of {pairs} below the lower bound {bare}"
        if heuristic:
            return answer, None
        if pairs > bare + 1:
            return answer, f"optimal pair count {pairs} above the upper bound {bare + 1}"
        per_set = min(comb(p, 2), (2 * k - 1) * (p - 1))
        bound = A.eta(p, k) * ceil(pairs / per_set) + len(trace.leftover)
        if len(fam) > bound:
            return answer, f"{len(fam)} sets exceed the bound {bound}"
        return answer, None

    return check


def check_exact(D, k, p, mode, expect_size):
    """``expect_size`` is the planted optimum, None for a refutation
    (the call must find nothing), or -1 when unknown in advance."""

    def check(fam, verify=True):
        answer = "none" if fam is None else f"size={len(fam)}"
        if not verify:
            return answer, None
        if expect_size is None:
            return answer, None if fam is None else "refutation call returned a family"
        if fam is None:
            return answer, None if expect_size == -1 else "no family found"
        if expect_size != -1 and len(fam) != expect_size:
            return answer, f"size {len(fam)} differs from the planted {expect_size}"
        sizes_ok = all(len(s) == p if mode == "exact-size" else 2 <= len(s) <= p for s in fam.sets)
        if not sizes_ok:
            return answer, "family set of the wrong size"
        if not _verifies(D, fam, k):
            return answer, "family does not make D k-arc-strong"
        return answer, None

    return check


def check_orientation(G, k):
    def check(D, verify=True):
        if not verify:
            return "none" if D is None else "oriented", None
        if D is None:
            return "none", "no orientation of a 2k-edge-connected multigraph"
        if D.underlying() != G:
            return "oriented", "result is not an orientation of the input"
        if not A.is_k_arc_strong(D, k):
            return "oriented", "orientation is not k-arc-strong"
        return "oriented", None

    return check


# -- workloads ---------------------------------------------------------------


def _on_ladder(k, n, p, witness):
    """Ladder points left out.

    Witnesses above n = 24 for k = 1 and above n = 17 for k = 2: the
    exhaustive GF(2) searches behind them (the pair precheck for even p,
    the triple family for odd p) ran for minutes on a few instances in a
    thousand, and a run with such a call fails; no search has a budget
    yet.  Seen on a k = 1, n = 48, p = 4 witness, a k = 2, n = 24, p = 5
    witness and one of 150 sampled k = 2, n = 32, p = 2 instances.

    To keep a pass near 4 s on the pure backend, so that a run holds
    many passes: p = 5 decisions from n = 32 on (the same
    obstruction scan as p = 3) and the k = 2, p = 3 decision at n = 48
    (the scan is measured there for k = 1 and at n = 64)."""
    if witness:
        return n <= (24 if k == 1 else 17)
    return not ((n >= 32 and p == 5) or (n == 48 and k == 2 and p == 3))


def _decide(w, rng):
    """Decisions and witnesses along an n ladder, the n = 64 routing
    cliff, odd-inversion-perturbed obstructions and disconnected inputs."""
    ladder = (7, 9, 16, 17, 24, 32, 48)
    for k in (1, 2):
        for n in ladder:
            for p in (2, 3, 4, 5):
                modes = [witness for witness in (False, True) if _on_ladder(k, n, p, witness)]
                if not modes:
                    continue
                # one instance per (k, n, p), shared by the decision and
                # the witness call: the pass then averages over four
                # instances per size instead of depending on one
                base = cycle_union(rng, n, k, 3 * n)
                D = break_by_triples(rng, base, k, 2 if n < 10 else 3)
                i = w.add_instance(f"ladder k={k} n={n} p={p}", D)
                above = n >= A.threshold(k, p)
                expect = "feasible" if above or p == 3 else None
                for witness in modes:
                    label = f"ladder k={k} n={n} p={p}{' witness' if witness else ''}"
                    w.add_call(label, "is_kp_invertible", (D, k, p), {"witness": witness}, i,
                               check_decide(D, k, p, witness, expect))
    base = cycle_union(rng, 64, 1, 3 * 64)
    D = break_by_triples(rng, base, 1, 3)
    i = w.add_instance("cliff k=1 n=64", D)
    w.add_call("cliff k=1 n=64 p=3", "is_kp_invertible", (D, 1, 3), {}, i,
               check_decide(D, 1, 3, False, "feasible"))
    # odd-size inversions keep an obstruction an obstruction; the vertex
    # labels stay as built, because the min-cut scan's cost depends on
    # which vertex is vertex 0
    sources = [(1, A.star_matching_obstruction(m)[0]) for m in (3, 4, 6, 8)]
    sources += [(2, A.doubled_clique_obstruction(2, r)[0]) for r in (4, 5)]
    for k, D0 in sources:
        D = A.apply_inversions(D0, [rng.sample(range(D0.n), 3) for _ in range(2)])
        i = w.add_instance(f"obstruction k={k} n={D.n}", D)
        for p in (3, 5):
            for witness in (False, True):
                label = f"obstruction k={k} n={D.n} p={p}{' witness' if witness else ''}"
                w.add_call(label, "is_kp_invertible", (D, k, p), {"witness": witness}, i,
                           check_decide(D, k, p, witness, "k-obstruction"))
        w.add_call(f"obstruction k={k} n={D.n} p=4", "is_kp_invertible", (D, k, 4), {}, i,
                   check_decide(D, k, 4, False, "feasible"))
    # one spanning cycle and chords that avoid vertex 0: lambda = 2 < 2k
    for n in (16, 32):
        arcs = [(v, (v + 1) % n) for v in range(n)]
        pairs = {frozenset(a) for a in arcs}
        while len(arcs) < n + n // 2:
            u, v = rng.sample(range(1, n), 2)
            if frozenset((u, v)) not in pairs:
                pairs.add(frozenset((u, v)))
                arcs.append((u, v))
        D = relabel(rng, A.MultiDigraph(n, arcs))
        i = w.add_instance(f"disconnected n={n}", D)
        for p in (3, 4):
            w.add_call(f"disconnected k=2 n={n} p={p} witness", "is_kp_invertible", (D, 2, p),
                       {"witness": True}, i, check_decide(D, 2, p, True, "not-2k-edge-connected"))


# (k, n, bare reversed arcs, exact calls, heuristic calls); each instance
# has one hidden reversal more and n // 6 chords, so the pair optima run
# from 1 to 10.  Every call gets an instance of its own, and the calls of
# one size take p = 3, 4, 5 in turn.  Why these counts:
#
# - The time of one instance varies with the seed: a pass that reused one
#   instance for its p = 3, 4, 5 calls moved wall_s by 18 % from seed to
#   seed.  Many cheap instances and few large ones keep wall_s steady.
#   At n >= 36 the GF(2) precheck's search takes 40 ms on most instances
#   and seconds on about one in a hundred (3.7 s once at n = 40), so
#   those sizes get three calls between them.
# - The 18 calls at n = 16, where the precheck's scan of all 2^n cuts
#   costs about 0.2 s, are 15 % of the calls, so call_ms.p90 falls
#   among them; n = 17 is the first size without that scan.  With 12
#   such calls p90 was the fastest two of them and spread by 0.10 of
#   its median over ten seeds.
# - Below n = 17 the greedy pass either succeeds in milliseconds or falls
#   back to the exact search and its 2^n scan, as the seed decides; the
#   exact calls at n = 16 measure that scan, so heuristic calls start at
#   n = 17.
#
# Denser chords, k = 2 above n = 24, or more hidden reversals give
# instances on which the precheck runs for seconds to minutes on some
# seeds.
APPROX_LADDER = (
    (1, 12, 1, 6, 0), (1, 14, 2, 6, 0), (1, 16, 2, 9, 0), (1, 16, 3, 9, 0),
    (1, 17, 3, 6, 3), (1, 20, 4, 6, 3), (1, 22, 4, 6, 3), (1, 24, 5, 6, 3),
    (1, 28, 6, 6, 3), (1, 32, 7, 6, 3), (1, 36, 8, 1, 0), (1, 40, 9, 2, 0),
    (2, 12, 1, 6, 0), (2, 14, 2, 6, 0), (2, 17, 2, 6, 3), (2, 20, 3, 6, 3),
    (2, 24, 3, 3, 0),
)


def _approx(w, rng):
    """Pair-stage approximations on broken cycles along an n ladder."""
    for k, n, bare, exact_calls, heuristic_calls in APPROX_LADDER:
        tag = f"broken-cycle k={k} n={n} bare={bare}"
        for heuristic, calls in ((False, exact_calls), (True, heuristic_calls)):
            for c in range(calls):
                p = (3, 4, 5)[c % 3]
                D = broken_cycle(rng, n, k, bare, 1, n // 6)
                i = w.add_instance(tag, D)
                label = f"{tag} p={p}{' heuristic' if heuristic else ''}"
                w.add_call(label, "approx_kp", (D, k, p), {"heuristic": heuristic}, i,
                           check_approx(D, k, p, heuristic, bare))


# Each recipe below is drawn this many times (orientations four times as
# often).  The per-call cost of the small instances varies with the seed
# (an orientation takes from 1 to 13 ms, a k = 2 sub-threshold witness
# at n = 8 from 6 to 20 ms): with two draws the time of a pass moved by
# 8 % from seed to seed, and with eight draws still by 8 to 11 %, mostly
# from k = 2 orientations and sub-threshold witnesses.
EXACT_COPIES = 16


def _exact(w, rng):
    """Oracle calls on planted reduction instances and small inputs.

    Reduction sources stay small: the search behind a planted optimum
    of 3 costs hundreds of milliseconds on 27 vertices, and a 5-vertex
    hypergraph source can take 20 s."""
    planted = []
    for k, sources in ((1, ((3, 2), (4, 3), (4, 4), (5, 4), (5, 5), (5, 6))), (2, ((3, 2), (4, 3), (4, 4)))):
        for n, edges in sources * EXACT_COPIES:
            planted.append(A.gen_p3p(bipartite_source(rng, n, edges), k))
    # the complete 3-uniform hypergraph on 4 vertices: with 2 or 3 of its
    # edges the search that finds the planted optimum took from 1 s to
    # over 200 s depending on the seed
    planted.append(A.gen_hm(uniform_hypergraph(rng, 4, 4, 3), 1))
    for inst in planted:
        k, p = inst.params["k"], inst.params["p"]
        value = inst.source_meta["predicted_value"]
        D = inst.digraph
        i = w.add_instance(f"{inst.kind} k={k} n={D.n}", D)
        w.add_call(f"{inst.kind} k={k} n={D.n} find l_max={value}", "exact_inv_kp", (D, k, p),
                   {"mode": "at-most", "l_max": value}, i, check_exact(D, k, p, "at-most", value))
        w.add_call(f"{inst.kind} k={k} n={D.n} refute l_max={value - 1}", "exact_inv_kp", (D, k, p),
                   {"mode": "at-most", "l_max": value - 1}, i, check_exact(D, k, p, "at-most", None))
    for k, n in ((1, 6), (1, 7), (1, 8), (1, 9), (2, 7), (2, 8), (2, 9)) * EXACT_COPIES:
        D = break_by_triples(rng, cycle_union(rng, n, k, 3 * n), k, 1)
        i = w.add_instance(f"perturbed k={k} n={n}", D)
        for p in (3, 4):
            w.add_call(f"perturbed k={k} n={n} p={p} exact-size", "exact_inv_kp", (D, k, p),
                       {"mode": "exact-size", "l_max": 3}, i,
                       check_exact(D, k, p, "exact-size", -1))
    for k, n, ps in ((1, 5, (3,)), (2, 7, (3, 5)), (2, 8, (3, 5)), (2, 9, (3, 5))) * EXACT_COPIES:
        D = break_by_triples(rng, cycle_union(rng, n, k, 3 * n), k, 2)
        i = w.add_instance(f"subthreshold k={k} n={n}", D)
        for p in ps:
            w.add_call(f"subthreshold k={k} n={n} p={p} witness", "is_kp_invertible", (D, k, p),
                       {"witness": True}, i,
                       check_decide(D, k, p, True, "feasible" if p == 3 else None))
    for k, n, chords in ((1, 8, 3), (1, 10, 5), (1, 12, 7), (2, 8, 3), (2, 10, 5)) * (4 * EXACT_COPIES):
        G = bridgeless_multigraph(rng, n, k, chords)
        i = w.add_instance(f"orientation k={k} n={n}", G)
        w.add_call(f"orientation k={k} n={n}", "exists_k_arc_strong_orientation", (G, k), {}, i,
                   check_orientation(G, k))


def build(name, seed):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    w = Workload(name, seed)
    rng = random.Random(f"{name}:{seed}")
    {"decide": _decide, "approx": _approx, "exact": _exact}[name](w, rng)
    return w
