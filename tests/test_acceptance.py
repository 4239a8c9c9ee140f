"""End-to-end validation matrix.

One test per numbered behaviour contract; each prints a single
"criterion N: PASS/FAIL" line so a full run reads as a scoreboard.
All randomised checks run from fixed seeds.  The sub-threshold
feasibility sweep (criterion 4) additionally builds its comparison
table in a temporary directory and checks it byte for byte against
experiments/subthreshold_feasibility.csv, so a changed sub-threshold
verdict fails the run instead of rewriting the checked-in table.  The
table's agree column is observational: below the threshold the formula
is not promised to hold, and a disagreeing row is no failure.
"""

import contextlib
import csv
import itertools
import math
import os
import random
import time
from fractions import Fraction

from conftest import (
    rand_2kec_digraph,
    rand_digraph,
    rand_family,
    rand_multidigraph,
    rand_multigraph,
    record_criterion,
)

from arcinvert.approx import approx_kp, eta, min_k2_inversion_set
from arcinvert.core import (
    InversionFamily,
    MultiDigraph,
    Multigraph,
    apply_inversions,
    edge_connectivity,
    frames,
    is_k_arc_strong,
)
from arcinvert.feasibility import is_kp_invertible, threshold
from arcinvert.obstruction import (
    doubled_clique_obstruction,
    exhaustive_obstruction_search,
    is_k_obstruction,
    star_matching_obstruction,
    verify_certificate,
)
from arcinvert.oracles import (
    Hypergraph,
    brute_edge_connectivity,
    brute_frames,
    brute_is_k_arc_strong,
    exact_inv_kp,
    exists_k_arc_strong_orientation,
    gf2_reachable,
    max_hypergraph_matching,
    max_p3_packing,
)
from arcinvert.reductions import (
    gen_hm,
    gen_npsi_22,
    gen_p3p,
    gen_psi_ksi,
    minimal_pattern_source,
)
from arcinvert.simulation import simulate_triple
from arcinvert.errors import UnsupportedError

EXPERIMENTS_DIR = os.path.join(os.path.dirname(__file__), "..", "experiments")


@contextlib.contextmanager
def _criterion(num):
    """Emit the scoreboard line even when the body's asserts fire."""
    ok = False
    try:
        yield
        ok = True
    finally:
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
        print(line, flush=True)
        record_criterion(line)


def test_criterion_1_connectivity_and_strongness_match_brute_force():
    with _criterion(1):
        rng = random.Random(101)
        start = time.perf_counter()
        for _ in range(300):
            D = rand_multidigraph(rng, n_max=10)
            G = D.underlying()
            assert edge_connectivity(G) == brute_edge_connectivity(G)
            for k in (1, 2, 3):
                assert is_k_arc_strong(D, k) == brute_is_k_arc_strong(D, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_orientation_witnesses_match_connectivity():
    with _criterion(2):
        rng = random.Random(202)
        for _ in range(200):
            G = rand_multigraph(rng, n_max=8)
            lam = edge_connectivity(G)
            for k in (1, 2):
                W = exists_k_arc_strong_orientation(G, k)
                if lam >= 2 * k:
                    assert W is not None
                    assert W.underlying() == G
                    assert is_k_arc_strong(W, k)
                else:
                    assert W is None


def test_criterion_3_inversion_algebra():
    with _criterion(3):
        rng = random.Random(303)
        for _ in range(1000):
            D = rand_multidigraph(rng, n_max=7)
            sets = rand_family(rng, D.n)
            fam = InversionFamily(sets)
            out = apply_inversions(D, fam)
            # involution
            assert apply_inversions(out, fam) == D
            # order independence
            shuffled = list(sets)
            rng.shuffle(shuffled)
            assert apply_inversions(D, InversionFamily(shuffled)) == out
            # digons are preserved by every inversion
            assert sorted(D.digon_pairs()) == sorted(out.digon_pairs())


def _strong_2kec(rng, k, n, max_tries=200):
    for _ in range(max_tries):
        D = rand_2kec_digraph(rng, k, n)
        if is_k_arc_strong(D, k):
            return D
    raise RuntimeError(f"no k-arc-strong sample found for k={k}, n={n}")


def _perturbed_2kec(rng, k, n, p, max_sets):
    """2k-edge-connected digraph that usually needs repairing: start
    from a k-arc-strong sample and invert a few small sets.  Inversions
    keep the underlying graph, so connectivity survives, and undoing
    the perturbation bounds the optimum by max_sets."""
    D = _strong_2kec(rng, k, n)
    sets = [rng.sample(range(n), rng.randint(2, min(p, n))) for _ in range(rng.randint(1, max_sets))]
    return apply_inversions(D, InversionFamily(sets))


def _sparse_strong(rng, n):
    """1-arc-strong digraph with a 2-edge-connected underlying graph
    that small inversions can actually break: a directed cycle plus a
    few chords."""
    arcs = {(v, (v + 1) % n) for v in range(n)}
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(range(n), 2)
        arcs.add((u, v))
    return MultiDigraph(n, sorted(arcs))


def _formula_verdict(D, k, p):
    """What the structural rule would claim if it applied at this size."""
    if edge_connectivity(D.underlying()) < 2 * k:
        return False
    if p % 2 == 0:
        return True
    return exhaustive_obstruction_search(D, k) is None


def test_criterion_4_feasibility_matches_exhaustive_search(tmp_path):
    with _criterion(4):
        rng = random.Random(404)
        csv_rows = []
        for k, p in ((1, 3), (1, 4), (2, 3)):
            t = threshold(k, p)
            pool = [rand_2kec_digraph(rng, k, t - 2 + i % 3) for i in range(200)]
            if p % 2 == 1:
                # make sure the infeasible branch above the threshold is hit
                if k == 1:
                    obs, _ = star_matching_obstruction(3)
                else:
                    obs, _ = doubled_clique_obstruction(2, 4)
                assert obs.n >= t
                pool.append(obs)
            for idx, D in enumerate(pool):
                verdict = is_kp_invertible(D, k, p, witness=True)
                fam = gf2_reachable(D, k, p, mode="exact-size")
                assert verdict.feasible == (fam is not None)
                if verdict.feasible:
                    w = verdict.witness
                    assert w is not None
                    assert all(len(s) == p for s in w.sets)
                    assert is_k_arc_strong(apply_inversions(D, w), k)
                elif D.n >= t and p % 2 == 1:
                    # the only structural reason left is an obstruction
                    assert verdict.reason == "k-obstruction"
                    assert verify_certificate(D, verdict.certificate)
                    assert is_k_obstruction(D, k) is not None
                if D.n < t:
                    exhaustive = fam is not None
                    formula = _formula_verdict(D, k, p)
                    csv_rows.append(
                        [k, p, D.n, idx, exhaustive, formula, exhaustive == formula]
                    )
        assert csv_rows, "no sub-threshold instances were sampled"
        out_path = tmp_path / "subthreshold_feasibility.csv"
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "p", "n", "index", "exhaustive", "formula", "agree"])
            writer.writerows(csv_rows)
        checked_in = os.path.join(EXPERIMENTS_DIR, "subthreshold_feasibility.csv")
        with open(checked_in, "rb") as fh:
            assert out_path.read_bytes() == fh.read()


def test_criterion_5_star_obstructions_survive_odd_inversions():
    with _criterion(5):
        rng = random.Random(505)
        for m in (3, 4, 5):
            D, cert = star_matching_obstruction(m)
            n = D.n
            assert n == 2 * m + 1
            assert verify_certificate(D, cert)
            assert is_k_obstruction(D, 1) is not None
            verdict = is_kp_invertible(D, 1, 3)
            assert not verdict.feasible and verdict.reason == "k-obstruction"
            cur = D
            for _ in range(100):
                size = rng.choice([s for s in (3, 5, 7) if s <= n])
                X = rng.sample(range(n), size)
                cur = apply_inversions(cur, InversionFamily([X]))
                assert verify_certificate(cur, cert)
                assert not is_k_arc_strong(cur, 1)


def test_criterion_6_simulation_plans():
    with _criterion(6):
        rng = random.Random(606)
        total = 0
        for p in (3, 5, 7, 9, 11):
            produced = 0
            tries = 0
            while produced < 100:
                tries += 1
                assert tries < 5000, f"p={p}: could not sample enough triples"
                n = rng.randint(p + 2, p + 4)
                D = rand_digraph(rng, n_max=n, n_min=n, density=rng.uniform(0.3, 0.6))
                S = sorted(rng.sample(range(n), 3))
                try:
                    plan = simulate_triple(D, S, p)
                except UnsupportedError:
                    continue
                produced += 1
                total += 1
                assert plan.verify(D)
                assert all(len(s) == p for s in plan.sets)
                if p % 4 == 3:
                    assert len(plan.sets) == math.comb(p - 1, p - 3)
        assert total == 500


def test_criterion_7_approximation_guarantee():
    with _criterion(7):
        rng = random.Random(707)
        # (a) the output family always verifies
        for _ in range(50):
            k = 1
            D = rand_2kec_digraph(rng, k, rng.randint(6, 10))
            p = rng.choice((3, 4, 5, 6))
            fam, trace = approx_kp(D, k, p)
            assert is_k_arc_strong(apply_inversions(D, fam), k)
            assert all(2 <= len(s) <= p for s in fam.sets)
            h = p // 2
            assert len(fam.sets) == len(trace.packed) + len(trace.leftover)
            assert len(trace.base_pairs.sets) == h * len(trace.packed) + len(
                trace.leftover
            )
        for _ in range(10):
            D = rand_2kec_digraph(rng, 2, rng.randint(8, 10))
            p = rng.choice((3, 4))
            fam, trace = approx_kp(D, 2, p)
            assert is_k_arc_strong(apply_inversions(D, fam), 2)
            assert all(2 <= len(s) <= p for s in fam.sets)
        # (b) guarantee against the exact optimum when it is small
        checked = 0
        guard = 0
        while checked < 50:
            guard += 1
            assert guard < 2000, "could not sample instances with small optimum"
            p = rng.choice((3, 4))
            n = rng.randint(6, 10)
            D0 = _sparse_strong(rng, n)
            sets = [rng.sample(range(n), rng.randint(2, p)) for _ in range(rng.randint(1, 2))]
            D = apply_inversions(D0, InversionFamily(sets))
            if is_k_arc_strong(D, 1):
                continue
            opt_fam = exact_inv_kp(D, 1, p, mode="at-most", l_max=3)
            assert opt_fam is not None, "undoing the perturbation bounds the optimum"
            opt = len(opt_fam.sets)
            fam, trace = approx_kp(D, 1, p)
            assert trace.base_optimal and not trace.guarantee_void
            size = Fraction(len(fam.sets))
            leftover = len(trace.leftover)
            assert size <= trace.eta * opt + leftover
            assert size <= Fraction(len(trace.base_pairs.sets), p // 2) + leftover
            checked += 1
        # (c) pinned guarantee factors
        assert eta(4, 1) == Fraction(3, 2)
        assert eta(3, 1) == Fraction(2, 1)


def test_criterion_8_reference_instance(fig2):
    with _criterion(8):
        fam = min_k2_inversion_set(fig2, 2)
        assert fam is not None and len(fam.sets) == 2
        assert is_k_arc_strong(apply_inversions(fig2, fam), 2)
        # exactly one single-arc reversal repairs the instance
        units = []
        for t, h, m in fig2.arcs():
            units.extend([(t, h)] * m)
        fixes = []
        for i, (t, h) in enumerate(units):
            repaired = units[:i] + [(h, t)] + units[i + 1 :]
            if is_k_arc_strong(MultiDigraph(fig2.n, repaired), 2):
                fixes.append((t, h))
        assert fixes == [(0, 2)]


def _bipartite_four_vertex_graphs():
    all_edges = list(itertools.combinations(range(4), 2))
    for mask in range(1 << len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
        present = set(edges)
        if any(
            set(itertools.combinations(tri, 2)) <= present
            for tri in itertools.combinations(range(4), 3)
        ):
            continue  # a triangle is the only odd cycle on 4 vertices
        yield Multigraph(4, edges)


def _check_gadget_value(inst, size_key):
    """Planted family is an upper bound, an exhaustive search at one
    less rules out anything smaller, so the predicted value is exact."""
    value = inst.source_meta["predicted_value"]
    k, p = inst.params["k"], inst.params["p"]
    assert len(inst.planted.sets) == value
    assert is_k_arc_strong(apply_inversions(inst.digraph, inst.planted), k)
    if value > 0:
        assert exact_inv_kp(inst.digraph, k, p, mode="at-most", l_max=value - 1) is None
    n = inst.source_meta["source_vertices"]
    assert value == -(-(n - inst.source_meta[size_key]) // 2)


def test_criterion_9_reduction_gadgets():
    with _criterion(9):
        # packing gadget, every bipartite source on four vertices
        count = 0
        for G in _bipartite_four_vertex_graphs():
            inst = gen_p3p(G, 1)
            assert inst.source_meta["packing_size"] == len(max_p3_packing(G)[1])
            _check_gadget_value(inst, "packing_size")
            count += 1
        assert count > 30
        # matching gadget, every non-empty 3-uniform source on <= 4 vertices
        for n in (3, 4):
            triples = list(itertools.combinations(range(n), 3))
            for r in range(1, len(triples) + 1):
                for sub in itertools.combinations(triples, r):
                    H = Hypergraph(n, list(sub))
                    inst = gen_hm(H, 1)
                    assert inst.source_meta["matching_size"] == max_hypergraph_matching(H)[0]
                    _check_gadget_value(inst, "matching_size")
        # and a few seeded 5-vertex sources
        rng = random.Random(909)
        five = list(itertools.combinations(range(5), 3))
        for _ in range(3):
            H = Hypergraph(5, rng.sample(five, rng.randint(1, 3)))
            inst = gen_hm(H, 1)
            assert inst.source_meta["predicted_value"] <= 2
            _check_gadget_value(inst, "matching_size")
        # planted witnesses for the two pattern gadgets, five minutes each
        G, parts, H = minimal_pattern_source()
        start = time.perf_counter()
        psi = gen_psi_ksi(G, parts, H, 2)
        assert time.perf_counter() - start < 300.0
        assert psi.params == {"k": 2, "p": 9} and psi.digraph.n == 60
        assert len(psi.planted.sets) == 1
        assert is_k_arc_strong(apply_inversions(psi.digraph, psi.planted), 2)
        start = time.perf_counter()
        npsi = gen_npsi_22(G, parts, H)
        assert time.perf_counter() - start < 300.0
        assert npsi.params["ell"] == 36 and npsi.digraph.n == 70
        assert len(npsi.planted.sets) == 36
        assert is_k_arc_strong(apply_inversions(npsi.digraph, npsi.planted), 2)


def test_criterion_10_pair_family_bounds_and_frames():
    with _criterion(10):
        rng = random.Random(1010)
        # chained size bounds between pair families and size-p families
        compared = 0
        guard = 0
        while compared < 25:
            guard += 1
            assert guard < 2000, "could not sample enough repairable instances"
            k = 2 if guard % 4 == 0 else 1
            n = 8 if k == 2 else rng.randint(5, 8)
            D = _perturbed_2kec(rng, k, n, 3, max_sets=2)
            if is_k_arc_strong(D, k):
                continue
            base2 = min_k2_inversion_set(D, k)
            assert base2 is not None, "pairs can always undo the perturbation"
            for p in (3, 4):
                opt_p = exact_inv_kp(D, k, p, mode="at-most", l_max=4)
                assert opt_p is not None and opt_p.sets
                assert len(base2.sets) <= (2 * k - 1) * (p - 1) * len(opt_p.sets)
                fam, trace = approx_kp(D, k, p)
                assert len(trace.base_pairs.sets) <= math.comb(p, 2) * len(opt_p.sets)
                compared += 1
        # density of a minimum pair family inside any small window
        windows = 0
        guard = 0
        while windows < 10:
            guard += 1
            assert guard < 2000, "could not sample enough window instances"
            k = 2 if guard % 4 == 0 else 1
            n = 8 if k == 2 else rng.randint(5, 8)
            D0 = _strong_2kec(rng, k, n)
            v0 = sorted(rng.sample(range(n), rng.randint(4, n)))
            sets = [rng.sample(v0, rng.randint(2, 3)) for _ in range(rng.randint(1, 2))]
            D = apply_inversions(D0, InversionFamily(sets))
            if is_k_arc_strong(D, k):
                continue
            X = min_k2_inversion_set(D, k, support=v0)
            assert X is not None, "undoing the perturbation stays inside the window"
            assert X.sets and all(s <= set(v0) for s in X.sets)
            for size in range(2, min(6, len(v0)) + 1):
                for U in itertools.combinations(v0, size):
                    inside = sum(1 for s in X.sets if s <= set(U))
                    assert inside <= (2 * k - 1) * (len(U) - 1)
            windows += 1
        # frame partitions agree with brute force
        for _ in range(60):
            G = rand_multigraph(rng, n_max=10)
            for k in (1, 2, 3):
                assert set(frames(G, k).blocks) == set(brute_frames(G, k))
