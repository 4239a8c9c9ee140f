import random
from math import comb

import pytest

from arcinvert.core import MultiDigraph, Multigraph, apply_inversions
from arcinvert.errors import (
    InvalidArgumentError,
    PreconditionViolatedError,
    UnsupportedError,
)
from arcinvert.reductions import rotative_tournament
from arcinvert.simulation import (
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
