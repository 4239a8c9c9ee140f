import random
import signal
import sys

import pytest

from arcinvert import approx, core, feasibility, obstruction, oracles, simulation
from arcinvert.core import (
    InversionFamily,
    MultiDigraph,
    apply_inversions,
    is_k_arc_strong,
)
from arcinvert.errors import PreconditionViolatedError, UnsupportedError
from arcinvert.feasibility import (
    construct_witness,
    is_kp_invertible,
    threshold,
)
from arcinvert.obstruction import star_matching_obstruction, verify_certificate
from arcinvert.oracles import _gf2_search, orientation_bfs_reachable
from arcinvert.reductions import rotative_tournament
from arcinvert.simulation import simulate_pair, simulate_triple

from conftest import rand_2kec_digraph, rand_digraph


def test_threshold_closed_form():
    assert threshold(1, 3) == 6
    assert threshold(1, 4) == 6
    assert threshold(2, 3) == 10
    assert threshold(1, 6) == 8
    assert threshold(2, 4) == 6
    assert threshold(3, 4) == 8
    assert threshold(1, 7) == 9
    assert threshold(2, 7) == 10


def test_even_p_above_threshold_is_always_feasible():
    rng = random.Random(601)
    for _ in range(25):
        k = rng.choice([1, 2])
        n = rng.randint(threshold(k, 4), threshold(k, 4) + 3)
        D = rand_2kec_digraph(rng, k, n)
        verdict = is_kp_invertible(D, k, 4, witness=True)
        assert verdict.feasible and verdict.reason == "theorem-even"
        assert verdict.witness is not None
        assert all(len(s) == 4 for s in verdict.witness.sets)
        assert is_k_arc_strong(apply_inversions(D, verdict.witness.sets), k)


def test_odd_p_above_threshold_splits_on_obstructions():
    rng = random.Random(602)
    reasons = {"theorem-odd": 0, "k-obstruction": 0}
    for _ in range(40):
        D = rand_2kec_digraph(rng, 1, rng.randint(6, 8))
        verdict = is_kp_invertible(D, 1, 3, witness=True)
        if verdict.feasible:
            assert verdict.reason == "theorem-odd"
            assert is_k_arc_strong(apply_inversions(D, verdict.witness.sets), 1)
            assert all(len(s) == 3 for s in verdict.witness.sets)
            assert construct_witness(D, 1, 3) == verdict.witness
        else:
            assert verdict.reason == "k-obstruction"
            assert verify_certificate(D, verdict.certificate)
        reasons[verdict.reason] += 1
    assert reasons["theorem-odd"] > 20


def test_obstruction_fixture_verdict():
    D, _cert = star_matching_obstruction(3)
    verdict = is_kp_invertible(D, 1, 3, witness=True)
    assert not verdict.feasible
    assert verdict.reason == "k-obstruction"
    assert verify_certificate(D, verdict.certificate)
    assert verdict.witness is None
    # the same digraph is fixable with even sets
    assert is_kp_invertible(D, 1, 4).feasible


def test_not_connected_reason():
    D = MultiDigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    verdict = is_kp_invertible(D, 2, 3)
    assert not verdict.feasible
    assert verdict.reason == "not-2k-edge-connected"


def test_sub_threshold_uses_the_exhaustive_kernel():
    # checked against the BFS over orientation states, which shares no
    # code with the parity-space search behind the decision
    rng = random.Random(603)
    agree = 0
    for _ in range(40):
        n = rng.choice([4, 5])
        D = rand_digraph(rng, n_max=n, n_min=n)
        verdict = is_kp_invertible(D, 1, 3, witness=True)
        assert verdict.feasible == orientation_bfs_reachable(D, 1, 3, mode="exact-size")
        if verdict.feasible:
            assert verdict.reason == "kernel-exhaustive"
            assert is_k_arc_strong(apply_inversions(D, verdict.witness.sets), 1)
        agree += 1
    assert agree == 40


def test_witness_is_empty_when_already_strong():
    T = rotative_tournament(9)
    verdict = is_kp_invertible(T, 1, 3, witness=True)
    assert verdict.feasible
    assert verdict.witness is not None and verdict.witness.sets == ()


def test_construct_witness_rejects_infeasible_inputs():
    D, _cert = star_matching_obstruction(3)
    with pytest.raises(PreconditionViolatedError):
        construct_witness(D, 1, 3)


def test_pair_witness_route():
    rng = random.Random(604)
    for _ in range(10):
        D = rand_2kec_digraph(rng, 1, 6)
        verdict = is_kp_invertible(D, 1, 2, witness=True)
        if not verdict.feasible:
            continue
        assert all(len(s) == 2 for s in verdict.witness.sets)
        assert is_k_arc_strong(apply_inversions(D, verdict.witness.sets), 1)


def test_tournament_even_witness_falls_back_cleanly():
    # digon-free tournament: the windowed pair construction cannot work,
    # the builder must still return a verified exact-size family
    T = rotative_tournament(7)
    flipped = apply_inversions(T, [[0, 1]])
    verdict = is_kp_invertible(flipped, 1, 4, witness=True)
    assert verdict.feasible
    assert all(len(s) == 4 for s in verdict.witness.sets)
    assert is_k_arc_strong(apply_inversions(flipped, verdict.witness.sets), 1)


def _count_calls(monkeypatch, module, name, counter):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] = counter.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_odd_witness_decides_once(monkeypatch):
    # one connectivity check and one obstruction scan per decision, also
    # when a witness is built (the parity-space search that builds the
    # triple family, oracles._gf2_search, checks no connectivity)
    rng = random.Random(605)
    built = 0
    while built < 6:
        p = rng.choice([3, 5])
        D = rand_2kec_digraph(rng, 1, rng.randint(threshold(1, p), 9))
        if is_k_arc_strong(D, 1):
            continue  # the witness would be empty
        counts = {}
        with monkeypatch.context() as m:
            for module in (feasibility, obstruction, approx):
                _count_calls(m, module, "edge_connectivity", counts)
            _count_calls(m, feasibility, "_obstruction_scan", counts)
            verdict = is_kp_invertible(D, 1, p, witness=True)
        assert counts == {"edge_connectivity": 1, "_obstruction_scan": 1}
        if verdict.feasible:
            built += 1
            assert all(len(s) == p for s in verdict.witness.sets)
            assert is_k_arc_strong(apply_inversions(D, verdict.witness.sets), 1)


def test_sub_threshold_decision_checks_once(monkeypatch):
    # one connectivity check per decision below the threshold too; the
    # parity search behind it runs its forced-parity refutation at most
    # once, from its first backtrack on
    rng = random.Random(606)
    built = 0
    while built < 6:
        n = rng.randint(6, threshold(2, 3) - 1)
        D = rand_2kec_digraph(rng, 2, n)
        if is_k_arc_strong(D, 2):
            continue  # decided before any search
        counts = {}
        with monkeypatch.context() as m:
            for module in (feasibility, obstruction, approx, oracles):
                _count_calls(m, module, "edge_connectivity", counts)
            _count_calls(m, oracles, "_forced_parity_refuted", counts)
            verdict = is_kp_invertible(D, 2, 3, witness=True)
        assert counts.pop("edge_connectivity") == 1
        assert counts in ({}, {"_forced_parity_refuted": 1})
        assert verdict.reason == "kernel-exhaustive"
        if verdict.feasible:
            built += 1
            assert all(len(s) == 3 for s in verdict.witness.sets)
            assert is_k_arc_strong(apply_inversions(D, verdict.witness.sets), 2)


def test_odd_witness_skips_the_parity_refutation(monkeypatch):
    # above the threshold the decision has proved that a triple family
    # exists, so the witness search runs without the 2^n cut scan
    def refuse(*_args):
        raise AssertionError("the witness route ran the forced-parity refutation")

    monkeypatch.setattr(oracles, "_forced_parity_refuted", refuse)
    rng = random.Random(607)
    for p in (3, 5):
        built = 0
        while built < 2:
            D = rand_digraph(rng, n_max=16, n_min=16, oriented=True)
            v = rng.randrange(16)
            into_v = [u for u in range(16) if D.has_arc(u, v)]
            if not into_v:
                continue
            D = apply_inversions(D, [[v, *into_v]])  # v becomes a source
            verdict = is_kp_invertible(D, 1, p, witness=True)
            if not verdict.feasible:
                continue
            built += 1
            assert verdict.reason == "theorem-odd"
            assert all(len(s) == p for s in verdict.witness.sets)
            assert is_k_arc_strong(apply_inversions(D, verdict.witness.sets), 1)


def test_odd_witness_search_needs_no_deep_recursion():
    # the coset search places one simple arc per step; 435 of them must
    # not need 435 stack frames
    T = rotative_tournament(30)
    into_zero = [u for u in range(30) if T.has_arc(u, 0)]
    D = apply_inversions(T, [[0, *into_zero]])  # vertex 0 becomes a source
    assert len(D.simple_arcs()) == 435 and not is_k_arc_strong(D, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        verdict = is_kp_invertible(D, 1, 3, witness=True)
    finally:
        sys.setrecursionlimit(limit)
    assert verdict.feasible and verdict.reason == "theorem-odd"
    assert verdict.witness.sets
    assert all(len(s) == 3 for s in verdict.witness.sets)
    assert is_k_arc_strong(apply_inversions(D, verdict.witness.sets), 1)


def _break_by_triples(rng, D, k, triples):
    """Invert random triples of the k-arc-strong tournament D, then
    triples {v, a, b} with arcs v -> a and v -> b until some v has fewer
    than k arcs out; inverting the same triples again repairs D."""
    n = D.n
    out = apply_inversions(D, [rng.sample(range(n), 3) for _ in range(triples)])
    order = list(range(n))
    rng.shuffle(order)
    for v in order * 3:
        if not is_k_arc_strong(out, k):
            return out
        heads = [h for h in range(n) if out.has_arc(v, h)]
        while len(heads) >= 2 and len(heads) >= k:
            out = apply_inversions(out, [[v, *rng.sample(heads, 2)]])
            heads = [h for h in range(n) if out.has_arc(v, h)]
    raise AssertionError("could not break the tournament")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_dense_odd_witness_finishes():
    # a triple inversion moves every out-degree of a tournament by an
    # even amount, so the coset search needs out-degree >= 2 wherever the
    # out-degree is even; without that bound this search ran for minutes
    D = _break_by_triples(random.Random(7), rotative_tournament(64), 1, 4)

    def too_slow(_signum, _frame):
        raise TimeoutError("the n = 64 odd-p witness took more than 60 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        verdict = is_kp_invertible(D, 1, 3, witness=True)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert verdict.feasible and verdict.reason == "theorem-odd"
    assert all(len(s) == 3 for s in verdict.witness.sets)
    assert is_k_arc_strong(apply_inversions(D, verdict.witness.sets), 1)


# -- the witness route: plan sets built privately, one verification

def _sink_digraph(rng, n, tournament):
    """Random digraph on n vertices whose vertex 0 is a sink, so that no
    witness is empty.  A tournament has no digon and no non-adjacent
    pair (no anchor for even p) and independence number 1 (no
    independent triple for p = 1 mod 4)."""
    density = rng.uniform(0.5, 0.95)
    arcs = [(v, 0) for v in range(1, n)]
    for u in range(1, n):
        for v in range(u + 1, n):
            r = rng.random()
            if not tournament and r < 0.15:
                arcs += [(u, v), (v, u)]
            elif tournament or r < density:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return MultiDigraph(n, arcs)


def _witness_inputs(rng, count):
    """count feasible (D, k, p, verdict) with a witness, p in 4, 5, 6, 7,
    9 and n at or above the threshold; about one in five a tournament."""
    out = []
    while len(out) < count:
        p = rng.choice([4, 5, 6, 7, 9])
        k = rng.choice([1, 1, 2]) if p in (4, 6) else 1
        D = _sink_digraph(rng, rng.randint(threshold(k, p), threshold(k, p) + 2), rng.random() < 0.2)
        verdict = is_kp_invertible(D, k, p, witness=True)
        if verdict.feasible:
            assert verdict.reason in ("theorem-even", "theorem-odd") and verdict.witness.sets
            out.append((D, k, p, verdict))
    return out


def test_witness_is_the_symmetric_difference_of_the_public_plans():
    # set for set, the witness the private route builds is the one the
    # public simulate_* plans of its base family merge to, or, where a
    # plan is unsupported, the exhaustive search's family
    fallbacks = {0: 0, 1: 0}
    for D, k, p, verdict in _witness_inputs(random.Random(611), 220):
        if p % 2 == 0:
            base, simulate = approx._min_pairs(D, k), simulate_pair
        else:
            base, simulate = _gf2_search(D, k, 3, "exact-size"), simulate_triple
        try:
            plans = [simulate(D, sorted(s), p).family() for s in base.sets]
            want = InversionFamily.symmetric_difference(*plans)
        except UnsupportedError:
            fallbacks[p % 2] += 1
            want = _gf2_search(D, k, p, "exact-size")
        assert verdict.witness.sets == want.sets
    assert fallbacks[0] > 5 and fallbacks[1] > 5


def test_a_witness_applies_one_family_and_calls_no_public_simulation(monkeypatch):
    applied = []
    apply = core.apply_inversions

    def counted(D, family):
        applied.append(family)
        return apply(D, family)

    def refuse(*_args):
        raise AssertionError("the witness route called a public simulate_* function")

    monkeypatch.setattr(core, "apply_inversions", counted)
    monkeypatch.setattr(simulation, "apply_inversions", counted)
    for name in ("simulate_pair", "simulate_triple"):
        monkeypatch.setattr(simulation, name, refuse)
        monkeypatch.setattr(feasibility, name, refuse, raising=False)
    for D, k, p, _verdict in _witness_inputs(random.Random(612), 30):
        applied.clear()
        verdict = is_kp_invertible(D, k, p, witness=True)
        assert applied == [verdict.witness]
