import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from arcinvert.core import InversionFamily, MultiDigraph, Multigraph, apply_inversions
from arcinvert.errors import (
    InvalidArgumentError,
    PreconditionViolatedError,
    UnsupportedError,
)
from arcinvert.reductions import rotative_tournament
from arcinvert.simulation import (
    SimulationPlan,
    independent_triple,
    simulate_disjoint_triples,
    simulate_pair,
    simulate_quintuple,
    simulate_triple,
)

from conftest import rand_digraph


def test_triple_plans_verify_and_have_the_closed_form_size():
    rng = random.Random(401)
    for p in (3, 7, 11):
        for _ in range(25):
            D = rand_digraph(rng, n_max=p + 4, n_min=p + 2)
            S = rng.sample(range(D.n), 3)
            plan = simulate_triple(D, S, p)
            assert plan.verify(D)
            assert all(len(x) == p for x in plan.sets)
            # p = 3 mod 4: the direct window construction is used
            assert len(plan.sets) == comb(p - 1, p - 3)


def test_triple_plans_for_p_1_mod_4_verify():
    rng = random.Random(402)
    produced = 0
    for p in (5, 9):
        for _ in range(30):
            D = rand_digraph(rng, n_max=p + 4, n_min=p + 2, density=0.35)
            S = rng.sample(range(D.n), 3)
            try:
                plan = simulate_triple(D, S, p)
            except UnsupportedError:
                continue
            assert plan.verify(D)
            assert all(len(x) == p for x in plan.sets)
            produced += 1
    assert produced > 20


def test_pair_plans_verify():
    rng = random.Random(403)
    produced = 0
    for p in (4, 6, 8):
        for _ in range(30):
            D = rand_digraph(rng, n_max=p + 4, n_min=p + 2, density=0.5)
            e = rng.sample(range(D.n), 2)
            try:
                plan = simulate_pair(D, e, p)
            except UnsupportedError:
                continue
            assert plan.verify(D)
            assert all(len(x) == p for x in plan.sets)
            produced += 1
    assert produced > 40


def test_pair_on_digon_or_non_adjacent_is_empty():
    D = MultiDigraph(6, [(0, 1), (1, 0), (2, 3)])
    assert simulate_pair(D, (0, 1), 4).sets == ()
    assert simulate_pair(D, (4, 5), 4).sets == ()


def test_pair_on_digon_free_tournament_is_unsupported():
    T = rotative_tournament(7)
    with pytest.raises(UnsupportedError):
        simulate_pair(T, (0, 1), 4)


def test_quintuple_plans_verify():
    rng = random.Random(404)
    for p in (5, 9):
        for _ in range(15):
            D = rand_digraph(rng, n_max=p + 4, n_min=p + 2)
            R = rng.sample(range(D.n), 5)
            plan = simulate_quintuple(D, R, p)
            assert plan.verify(D)
            assert all(len(x) == p for x in plan.sets)
            assert len(plan.sets) == comb(p - 3, p - 5)


def test_disjoint_triples_compose():
    rng = random.Random(405)
    for _ in range(15):
        D = rand_digraph(rng, n_max=9, n_min=7)
        verts = rng.sample(range(D.n), 6)
        plan = simulate_disjoint_triples(D, verts[:3], verts[3:], 5)
        assert plan.verify(D)
        direct = apply_inversions(D, [verts[:3], verts[3:]])
        assert apply_inversions(D, plan.sets) == direct


def test_independent_triple_scan():
    D = MultiDigraph(6, [(0, 1), (2, 3)])
    G = D.underlying()
    trip = independent_triple(G)
    assert trip is not None
    a, b, c = trip
    assert not (G.adjacent(a, b) or G.adjacent(a, c) or G.adjacent(b, c))
    T = rotative_tournament(5).underlying()
    assert independent_triple(T) is None


def _complete_without(n, missing):
    """K_n less the edges (u, v), u < v, in missing."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in missing]
    return Multigraph(n, edges)


def test_independent_triple_is_the_lexicographically_smallest():
    # 0 and 1 lie on no independent triple; {2, 5, 7} comes before {3, 4, 6}
    missing = {(0, 2), (2, 5), (2, 7), (5, 7), (3, 4), (3, 6), (4, 6)}
    assert independent_triple(_complete_without(30, missing)) == [2, 5, 7]


def test_independent_triple_is_found_above_30_vertices():
    # a greedy sweep that first picks a partner outside {4, 5, 6} from
    # every start gets stuck here; {4, 5, 6} is the only triple
    missing = {(4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6)}
    assert independent_triple(_complete_without(32, missing)) == [4, 5, 6]
    D = MultiDigraph(32, [(u, v) for u, v, _m in _complete_without(32, missing).edges()])
    plan = simulate_triple(D, (0, 1, 2), 5)
    assert plan.verify(D) and all(len(s) == 5 for s in plan.sets)


def test_parameter_validation():
    D = rand_digraph(random.Random(406), n_max=9, n_min=9)
    with pytest.raises(InvalidArgumentError):
        simulate_triple(D, (0, 1, 2), 4)  # even p
    with pytest.raises(InvalidArgumentError):
        simulate_pair(D, (0, 1), 5)  # odd p
    with pytest.raises(InvalidArgumentError):
        simulate_quintuple(D, (0, 1, 2, 3, 4), 7)  # p = 3 mod 4
    with pytest.raises(PreconditionViolatedError):
        simulate_triple(D, (0, 1, 2), 11)  # n < p + 2


def test_pair_plans_stay_inside_one_window():
    # a window of p + 2 vertices around the arc and an anchor always
    # suffices: the plan of every simple arc uses no other vertex
    rng = random.Random(407)
    checked = 0
    for p in (4, 6):
        for _ in range(12):
            D = rand_digraph(rng, n_max=10, n_min=max(6, p + 2), density=0.5)
            for t, h in D.simple_arcs():
                try:
                    plan = simulate_pair(D, (t, h), p)
                except UnsupportedError:
                    break
                assert plan.sets and all(len(x) == p for x in plan.sets)
                assert len(frozenset((t, h)).union(*plan.sets)) <= p + 2
                checked += 1
    assert checked > 100


def test_targets_reject_non_int_vertices():
    D = rand_digraph(random.Random(408), n_max=9, n_min=9)
    for bad in (2.5, True, 9):
        with pytest.raises(InvalidArgumentError):
            simulate_triple(D, (0, 1, bad), 3)
        with pytest.raises(InvalidArgumentError):
            simulate_pair(D, (0, bad), 4)


def test_disjoint_triples_reject_a_non_int_companion_vertex():
    D = rand_digraph(random.Random(409), n_max=9, n_min=9)
    for bad in (5.0, True, 9):
        with pytest.raises(InvalidArgumentError):
            simulate_disjoint_triples(D, (0, 1, 2), (3, 4, bad), 5)


# -- reference recipes: each plan built the way the per-recipe public
# -- calls built it, one nested simulate_* call per composed plan

def _ref_smallest_disjoint(n, avoid, size):
    return [v for v in range(n) if v not in set(avoid)][:size]


def _ref_padded(n, core, p, ext_size, sub_size):
    ext = _ref_smallest_disjoint(n, core, ext_size)
    return tuple(frozenset(xi) | frozenset(core) for xi in combinations(ext, sub_size))


def _ref_quintuple(n, r, p):
    return _ref_padded(n, sorted(r), p, p - 3, p - 5)


def _ref_disjoint_triples(n, r, r2, p):
    parts = [_ref_quintuple(n, sorted((set(r) - {u}) | set(r2)), p) for u in sorted(r)]
    return InversionFamily.symmetric_difference(*(InversionFamily(s) for s in parts)).sets


def _ref_via_independent(n, s, ind, p):
    overlap = len(set(s) & set(ind))
    if overlap == 0:
        return _ref_disjoint_triples(n, s, ind, p)
    if overlap == 2:
        s2 = _ref_smallest_disjoint(n, set(s) | set(ind), 3)
        first = _ref_disjoint_triples(n, ind, s2, p)
        second = _ref_disjoint_triples(n, s, s2, p)
    else:
        v = _ref_smallest_disjoint(n, set(s) | set(ind), 1)[0]
        s2 = sorted((set(ind) - set(s)) | {v})
        first = _ref_via_independent(n, s2, ind, p)
        second = _ref_disjoint_triples(n, s, s2, p)
    return InversionFamily.symmetric_difference(InversionFamily(first), InversionFamily(second)).sets


def _ref_triple(D, S, p):
    s = sorted(S)
    if p % 4 == 3:
        return _ref_padded(D.n, s, p, p - 1, p - 3)
    G = D.underlying()
    if not any(G.adjacent(u, v) for u, v in combinations(s, 2)):
        return ()
    return _ref_via_independent(D.n, s, independent_triple(G), p)


def test_triple_plans_equal_the_reference_recipes():
    # p = 1 mod 4: S is drawn to meet the independent triple in 0, 1 or
    # 2 vertices; the sets and their order match the reference
    rng = random.Random(410)
    overlaps = Counter()
    draws = 0
    while draws < 240:
        p = rng.choice((5, 9, 13))
        D = rand_digraph(rng, n_max=p + 5, n_min=p + 2, density=0.3)
        ind = independent_triple(D.underlying())
        if ind is None:
            continue
        overlap = draws % 3
        outside = [v for v in range(D.n) if v not in ind]
        S = rng.sample(ind, overlap) + rng.sample(outside, 3 - overlap)
        rng.shuffle(S)
        plan = simulate_triple(D, S, p)
        assert plan.sets == _ref_triple(D, S, p)
        assert plan.target == tuple(sorted(S)) and plan.p == p
        if plan.sets:
            overlaps[overlap] += 1
        draws += 1
    assert min(overlaps[o] for o in (0, 1, 2)) >= 20
    for p in (3, 7, 11):
        for _ in range(10):
            D = rand_digraph(rng, n_max=p + 4, n_min=p + 2)
            S = rng.sample(range(D.n), 3)
            assert simulate_triple(D, S, p).sets == _ref_triple(D, S, p)


def test_quintuple_and_disjoint_triple_plans_equal_the_reference_recipes():
    rng = random.Random(411)
    for p in (5, 9, 13):
        for _ in range(10):
            D = rand_digraph(rng, n_max=p + 4, n_min=p + 2)
            verts = rng.sample(range(D.n), 6)
            assert simulate_quintuple(D, verts[:5], p).sets == _ref_quintuple(D.n, verts[:5], p)
            plan = simulate_disjoint_triples(D, verts[:3], verts[3:], p)
            assert plan.sets == _ref_disjoint_triples(D.n, verts[:3], verts[3:], p)
            assert plan.companion == tuple(sorted(verts[3:]))


def test_each_public_simulation_checks_one_plan(monkeypatch):
    # the composed recipes are private set builders, so a public call
    # re-verifies only the plan it returns, whatever its recipe
    calls = []
    verify = SimulationPlan.verify
    monkeypatch.setattr(SimulationPlan, "verify", lambda plan, D: calls.append(plan) or verify(plan, D))
    rng = random.Random(412)
    cases = [
        lambda D: simulate_pair(D, (0, 1), 4),
        lambda D: simulate_triple(D, (0, 1, 2), 3),
        lambda D: simulate_triple(D, (0, 1, 2), 7),
        lambda D: simulate_quintuple(D, (0, 1, 2, 3, 4), 5),
        lambda D: simulate_disjoint_triples(D, (0, 1, 2), (3, 4, 5), 5),
    ]
    for p in (5, 9, 13):
        cases += [lambda D, p=p, i=i: simulate_triple(D, rng.sample(range(D.n), 3), p) for i in range(12)]
    checked = 0
    for call in cases:
        D = rand_digraph(rng, n_min=15, n_max=17, density=0.3)
        calls.clear()
        try:
            plan = call(D)
        except UnsupportedError:
            continue
        assert calls == [plan]
        checked += 1
    assert checked > 30


# -- argument errors: type, text and the order in which they fire, for
# -- every public call (recorded before the p checks were folded)

_NINE = MultiDigraph(9, [(i, (i + 1) % 9) for i in range(9)] + [(0, 4), (4, 0)])
_PARALLEL = MultiDigraph(9, [(0, 1), (0, 1), (1, 2)])
_INV, _PRE = InvalidArgumentError, PreconditionViolatedError
_SIMULATE = {
    "pair": simulate_pair,
    "triple": simulate_triple,
    "quintuple": simulate_quintuple,
    "disjoint": lambda D, S, p: simulate_disjoint_triples(D, S, (5, 6, 7), p),
}
_PINNED_ERRORS = [
    ("pair", _NINE, (0, 1), "4", _INV, "p must be even, got '4'"),
    ("pair", _NINE, (0, 1), 4.0, _INV, "p must be even, got 4.0"),
    ("pair", _NINE, (0, 1), True, _INV, "p must be even, got True"),
    ("pair", _NINE, (0, 1), None, _INV, "p must be even, got None"),
    ("pair", _NINE, (0, 1), -1, _INV, "p must be even, got -1"),
    ("pair", _NINE, (0, 1), 0, _INV, "p must be >= 4, got 0"),
    ("pair", _NINE, (0, 1), 2, _INV, "p must be >= 4, got 2"),
    ("pair", _NINE, (0, 1), 5, _INV, "p must be even, got 5"),
    ("pair", _NINE, (0, 1), 8, _PRE, "need n >= p+2 = 10, got n = 9"),
    ("pair", _NINE, (0, 2.5), 4, _INV, "vertex id 2.5 out of range 0..8"),
    ("pair", _NINE, (0, True), 4, _INV, "vertex id True out of range 0..8"),
    ("pair", _NINE, (0, 9), 4, _INV, "vertex id 9 out of range 0..8"),
    ("pair", _NINE, (0, 9), 5, _INV, "p must be even, got 5"),
    ("pair", _NINE, (0, 9), 2, _INV, "p must be >= 4, got 2"),
    ("pair", _NINE, (0,), 4, _INV, "target must have exactly 2 distinct vertices"),
    ("pair", _NINE, (0, 0), 2, _INV, "p must be >= 4, got 2"),
    ("pair", _NINE, (0, 1, 8), 4, _INV, "target must have exactly 2 distinct vertices"),
    ("pair", _PARALLEL, (0, 1), 4, _INV, "input has parallel arcs; a digraph is required"),
    ("pair", _PARALLEL, (0, 1), 5, _INV, "p must be even, got 5"),
    ("pair", [(0, 1)], (0, 1), 4, _INV, "simulation expects a MultiDigraph"),
    ("pair", [(0, 1)], (0, 1), "x", _INV, "p must be even, got 'x'"),
    ("triple", _NINE, (0, 1, 2), "4", _INV, "p must be an int >= 2, got '4'"),
    ("triple", _NINE, (0, 1, 2), True, _INV, "p must be an int >= 2, got True"),
    ("triple", _NINE, (0, 1, 2), 1, _INV, "p must be an int >= 2, got 1"),
    ("triple", _NINE, (0, 1, 2), 2, _INV, "p must be odd, got 2"),
    ("triple", _NINE, (0, 1, 2), 8, _INV, "p must be odd, got 8"),
    ("triple", _NINE, (0, 1, 2), 9, _PRE, "need n >= p+2 = 11, got n = 9"),
    ("triple", _NINE, (0, 1, 2), 11, _PRE, "need n >= p+2 = 13, got n = 9"),
    ("triple", _NINE, (0, 2.5, 2), 6, _INV, "vertex id 2.5 out of range 0..8"),
    ("triple", _NINE, (0, -1, 2), 2, _INV, "vertex id -1 out of range 0..8"),
    ("triple", _NINE, (0, 0, 2), 6, _INV, "target must have exactly 3 distinct vertices"),
    ("triple", _NINE, (0, 1, 2, 8), 2, _INV, "target must have exactly 3 distinct vertices"),
    ("triple", _PARALLEL, (0, 1, 2), 4, _INV, "input has parallel arcs; a digraph is required"),
    ("triple", [(0, 1)], (0, 1, 2), "x", _INV, "simulation expects a MultiDigraph"),
    ("quintuple", _NINE, (0, 1, 2, 3, 4), 4.0, _INV, "p must be an int >= 2, got 4.0"),
    ("quintuple", _NINE, (0, 1, 2, 3, 4), -1, _INV, "p must be an int >= 2, got -1"),
    ("quintuple", _NINE, (0, 1, 2, 3, 4), 2, _INV, "p must be odd, got 2"),
    ("quintuple", _NINE, (0, 1, 2, 3, 4), 3, _INV, "p mod 4 must be in [1], got 3 (p mod 4 = 3)"),
    ("quintuple", _NINE, (0, 1, 2, 3, 4), 6, _INV, "p must be odd, got 6"),
    ("quintuple", _NINE, (0, 1, 2, 3, 4), 9, _PRE, "need n >= p+2 = 11, got n = 9"),
    ("quintuple", _NINE, (0, 1, 2, 3, 4), 11, _INV, "p mod 4 must be in [1], got 11 (p mod 4 = 3)"),
    ("quintuple", _NINE, (0, 9, 2, 3, 4), 2, _INV, "vertex id 9 out of range 0..8"),
    ("quintuple", _NINE, (0, 1, 2, 3), 6, _INV, "target must have exactly 5 distinct vertices"),
    ("quintuple", _PARALLEL, (0, 1, 2, 3, 4), 5, _INV, "input has parallel arcs; a digraph is required"),
    ("quintuple", [(0, 1)], (0, 1, 2, 3, 4), 4, _INV, "simulation expects a MultiDigraph"),
    ("disjoint", _NINE, (0, 1, 2), None, _INV, "p must be an int >= 2, got None"),
    ("disjoint", _NINE, (0, 1, 2), 0, _INV, "p must be an int >= 2, got 0"),
    ("disjoint", _NINE, (0, 1, 2), 4, _INV, "p must be odd, got 4"),
    ("disjoint", _NINE, (0, 1, 2), 7, _INV, "p mod 4 must be in [1], got 7 (p mod 4 = 3)"),
    ("disjoint", _NINE, (0, 1, 2), 9, _PRE, "need n >= p+2 = 11, got n = 9"),
    ("disjoint", _NINE, (0, True, 2), 6, _INV, "vertex id True out of range 0..8"),
    ("disjoint", _NINE, (0, 1), 2, _INV, "target must have exactly 3 distinct vertices"),
    ("disjoint", _PARALLEL, (0, 1, 2), 4, _INV, "input has parallel arcs; a digraph is required"),
    ("disjoint", [(0, 1)], (0, 1, 2), 5, _INV, "simulation expects a MultiDigraph"),
]


@pytest.mark.parametrize("call, D, target, p, error, message", _PINNED_ERRORS)
def test_each_public_simulation_raises_its_pinned_error_first(call, D, target, p, error, message):
    with pytest.raises(error) as info:
        _SIMULATE[call](D, target, p)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "companion, message",
    [
        ((5, 6, 9), "vertex id 9 out of range 0..8"),
        ((5, 6), "companion must have exactly 3 distinct vertices"),
        ((2, 6, 7), "the two triples must be disjoint"),
        ((5, 6, 2.0), "vertex id 2.0 out of range 0..8"),
    ],
)
def test_disjoint_triples_pin_their_companion_errors(companion, message):
    with pytest.raises(InvalidArgumentError) as info:
        simulate_disjoint_triples(_NINE, (0, 1, 2), companion, 5)
    assert str(info.value) == message
