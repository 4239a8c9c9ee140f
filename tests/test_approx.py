import random
from collections import Counter
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from arcinvert import _kernels, approx, core, oracles
from arcinvert._kernels import _pyimpl
from arcinvert.approx import (
    approx_kp,
    eta,
    greedy_k2_inversion_set,
    min_k2_inversion_set,
    minimally_k_arc_strong,
    pack_independent_pairs,
    pairs_independent,
    ramsey_bound_descriptor,
)
from arcinvert.core import (
    MultiDigraph,
    Multigraph,
    apply_inversions,
    edge_connectivity,
    is_k_arc_strong,
)
from arcinvert.errors import InvalidArgumentError, PreconditionViolatedError
from arcinvert.feasibility import is_kp_invertible
from arcinvert.oracles import exact_inv_kp, gf2_reachable

from conftest import rand_2kec_digraph, rand_digraph


def _cycles_digraph(rng, k, n, bundles):
    """k random Hamilton cycles plus a few chords, each edge oriented at
    random, so the underlying multigraph is 2k-edge-connected.  A
    repeated pair becomes a digon, or with bundles a parallel arc when
    both copies point the same way."""
    edges = []
    for _ in range(k):
        order = rng.sample(range(n), n)
        edges += [(order[i], order[i - 1]) for i in range(n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n // 2))]
    mult = {}
    for u, v in edges:
        t, h = (u, v) if rng.random() < 0.5 else (v, u)
        if not bundles and (t, h) in mult:
            t, h = h, t
        mult[t, h] = mult.get((t, h), 0) + 1
    return MultiDigraph(n, [(t, h, m) for (t, h), m in mult.items()])


def test_min_k2_matches_the_generic_exact_solver():
    # the pair search branches on positive-gain pairs only, the generic
    # solver on every crossing pair with unequal arc counts; both order
    # their branches by (-gain, set), so the first family is the same
    rng = random.Random(501)
    sizes = Counter()
    for _ in range(80):
        k = rng.choice((1, 2))
        D = _cycles_digraph(rng, k, rng.randint(4, 8), bundles=rng.random() < 0.4)
        mine = min_k2_inversion_set(D, k)
        generic = exact_inv_kp(D, k, 2, mode="exact-size", l_max=4)
        if generic is not None:
            assert mine == generic
        elif mine is not None:
            assert len(mine.sets) > 4
        if mine is not None:
            assert is_k_arc_strong(apply_inversions(D, mine.sets), k)
        sizes[D.is_digraph(), None if mine is None else min(len(mine.sets), 2)] += 1
    # digraphs and multidigraphs, with families of two or more pairs and
    # (with parallel arcs) none at all
    assert sizes[True, 2] > 5 and sizes[False, 2] > 5 and sizes[False, None] > 0
    # digraphs with digons at n = 8-11 whose optimum of 3 or 4 pairs
    # takes several deepening budgets, so the pair search's memo entries
    # carry over from one budget to the next
    deep = Counter()
    while deep[3] < 4 or deep[4] < 3:
        k = rng.choice((1, 2))
        D = _cycles_digraph(rng, k, rng.randint(8, 11), bundles=False)
        if not any(D.has_arc(h, t) for t, h, _m in D.arcs()):
            continue
        generic = exact_inv_kp(D, k, 2, mode="exact-size", l_max=4)
        if generic is not None and len(generic.sets) >= 3:
            assert min_k2_inversion_set(D, k) == generic
            deep[len(generic.sets)] += 1


def test_min_k2_handles_parallel_class_parity():
    # three parallel arcs: a pair flip only swaps the bundle, so no
    # family works even though the underlying graph is 3-edge-connected
    D = MultiDigraph(2, [(0, 1, 3)])
    assert min_k2_inversion_set(D, 1) is None


def test_min_k2_respects_support():
    rng = random.Random(502)
    seen_none = 0
    for _ in range(40):
        D = rand_2kec_digraph(rng, 1, 6)
        if is_k_arc_strong(D, 1):
            continue
        fam = min_k2_inversion_set(D, 1, support={0, 1})
        if fam is None:
            seen_none += 1
            continue
        assert all(s <= frozenset({0, 1}) for s in fam.sets)
    assert seen_none > 0


def test_min_k2_on_a_single_vertex():
    # no proper cut, so k-arc-strong already and the empty family is optimal
    assert min_k2_inversion_set(MultiDigraph(1), 1).sets == ()


def test_approx_kp_on_a_single_vertex():
    family, trace = approx_kp(MultiDigraph(1), 1, 3)
    assert family.sets == () and trace.base_pairs.sets == ()


def test_min_k2_requires_connectivity():
    D = MultiDigraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(PreconditionViolatedError):
        min_k2_inversion_set(D, 2)


def test_no_pair_family_raises_in_every_pair_stage():
    # two parallel arcs 0 -> 1: UG(D) is 2-edge-connected, but the only
    # pair flip reverses both arcs, so no pair family makes D strong
    D = MultiDigraph(2, [(0, 1, 2)])
    assert edge_connectivity(D.underlying()) == 2
    assert min_k2_inversion_set(D, 1) is None
    no_family = "no pair inversion family exists for this input"
    with pytest.raises(PreconditionViolatedError, match=no_family):
        greedy_k2_inversion_set(D, 1)
    for heuristic in (False, True):
        with pytest.raises(PreconditionViolatedError, match=no_family):
            approx_kp(D, 1, 3, heuristic=heuristic)
    with pytest.raises(PreconditionViolatedError, match="not k-arc-strong"):
        minimally_k_arc_strong(D, 1)


def test_greedy_output_is_valid_and_never_beats_exact():
    rng = random.Random(503)
    for _ in range(30):
        D = rand_2kec_digraph(rng, 1, rng.randint(4, 7))
        exact = min_k2_inversion_set(D, 1)
        greedy = greedy_k2_inversion_set(D, 1)
        assert is_k_arc_strong(apply_inversions(D, greedy.sets), 1)
        assert len(greedy.sets) >= len(exact.sets)


def _greedy_over_all_pairs(D, k):
    """The greedy pair repair with its former step, which scans all
    pairs u < v for the best crossing one, and its former fallback, an
    exact search with a memo of its own; and whether it fell back."""
    n = D.n
    caps = D.caps_flat()
    flipped = set()
    while True:
        side = _kernels.karc_deficient_cut(n, caps, k)
        if side == -1:
            return sorted(flipped), False
        best = None
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in flipped:
                    continue
                if ((side >> u) & 1) != ((side >> v) & 1) and caps[u * n + v] != caps[v * n + u]:
                    lo, hi = (u, v) if (side >> u) & 1 else (v, u)
                    gain = caps[hi * n + lo] - caps[lo * n + hi]
                    if gain > 0 and (best is None or (-gain, (u, v)) < best):
                        best = (-gain, (u, v))
        if best is None:
            return [tuple(sorted(s)) for s in approx._min_pairs(D, k).sets], True
        _g, (u, v) = best
        caps[u * n + v], caps[v * n + u] = caps[v * n + u], caps[u * n + v]
        flipped.add((u, v))


def test_greedy_crossing_step_matches_the_all_pairs_scan():
    # 2k-edge-connected digraphs with digons, broken by reversing every
    # simple arc that enters a random set X
    rng = random.Random(506)
    broken = digons = 0
    for k in (1, 2):
        for _ in range(40):
            D = rand_digraph(rng, 11, 2 * k + 2, density=rng.uniform(0.3, 0.6))
            if edge_connectivity(D.underlying()) < 2 * k:
                continue
            X = set(rng.sample(range(D.n), rng.randint(1, D.n // 2)))
            D = MultiDigraph(D.n, [
                (h, t, m) if t not in X and h in X and not D.mult(h, t) else (t, h, m)
                for (t, h, m) in D.arcs()
            ])
            broken += not is_k_arc_strong(D, k)
            digons += any(D.mult(h, t) for (t, h, _m) in D.arcs())
            fam = greedy_k2_inversion_set(D, k)
            assert [tuple(sorted(s)) for s in fam.sets] == _greedy_over_all_pairs(D, k)[0]
    assert broken >= 20 and digons >= 40


def test_minimally_k_arc_strong_is_minimal_and_small():
    rng = random.Random(504)
    for k in (1, 2):
        for _ in range(15):
            D = rand_2kec_digraph(rng, k, rng.randint(2 * k + 2, 8))
            fam = min_k2_inversion_set(D, k)
            strong = apply_inversions(D, fam.sets)
            core = minimally_k_arc_strong(strong, k)
            assert is_k_arc_strong(core, k)
            assert core.arc_count() <= 2 * k * (core.n - 1)
            for (t, h, m) in core.arcs():
                dropped = [
                    (a, b, mm - 1 if (a, b) == (t, h) else mm)
                    for (a, b, mm) in core.arcs()
                ]
                thinner = MultiDigraph(core.n, [(a, b, mm) for (a, b, mm) in dropped if mm])
                assert not is_k_arc_strong(thinner, k)


def _rand_k_arc_strong(rng, k):
    """Random k-arc-strong multidigraph with parallel arcs and digons."""
    while True:
        n = rng.randint(2, 8)
        density = rng.uniform(0.5, 0.95)
        arcs = [
            (t, h, rng.randint(1, 3))
            for t in range(n)
            for h in range(n)
            if t != h and rng.random() < density
        ]
        D = MultiDigraph(n, arcs)
        if is_k_arc_strong(D, k):
            return D


def _naive_minimal(D, k):
    """Drop each arc unit in sorted order exactly when the rest stays
    k-arc-strong."""
    units = Counter({(t, h): m for (t, h, m) in D.arcs()})
    for (t, h, m) in D.arcs():
        for _unit in range(m):
            units[(t, h)] -= 1
            if not is_k_arc_strong(MultiDigraph(D.n, [(a, b, c) for (a, b), c in units.items() if c]), k):
                units[(t, h)] += 1
    return MultiDigraph(D.n, [(a, b, c) for (a, b), c in units.items() if c])


def _dicycle_union(rng, k):
    """Sparse k-arc-strong multidigraph: k random Hamilton dicycles,
    parallel arcs kept, plus a few doubled chords; most arc units sit
    at a vertex of out- or in-degree k."""
    n = rng.randint(2, 9)
    units = Counter()
    for _ in range(k):
        order = rng.sample(range(n), n)
        for i in range(n):
            units[(order[i], order[(i + 1) % n])] += 1
    for _ in range(rng.randint(0, 2)):
        t, h = rng.sample(range(n), 2)
        units[(t, h)] += rng.randint(1, 2)
    return MultiDigraph(n, [(t, h, m) for (t, h), m in units.items()])


def test_minimally_k_arc_strong_matches_the_naive_deletion():
    rng = random.Random(509)
    for k in (1, 2, 3):
        for _ in range(12):
            D = _rand_k_arc_strong(rng, k)
            assert minimally_k_arc_strong(D, k) == _naive_minimal(D, k)
        for _ in range(12):
            D = _dicycle_union(rng, k)
            assert minimally_k_arc_strong(D, k) == _naive_minimal(D, k)


def test_minimally_k_arc_strong_runs_one_flow_per_unit(monkeypatch):
    calls = Counter()
    for name in ("st_max_flow", "karc_deficient_cut"):
        def counted(*args, _name=name, _fn=getattr(_kernels, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(_kernels, name, counted)
    # the inputs are k-arc-strong; skip the precondition's own cut scan
    monkeypatch.setattr(approx, "is_k_arc_strong", lambda D, k: True)
    rng = random.Random(510)
    forced = 0
    for k in (1, 2, 3):
        for _ in range(8):
            D = _rand_k_arc_strong(rng, k)
            calls.clear()
            core = minimally_k_arc_strong(D, k)
            kept = {(t, h): m for (t, h, m) in core.arcs()}
            # units of an arc are tried until the first one that must
            # stay; a unit whose tail has at most k arcs out or whose
            # head at most k arcs in, in the core so far, stays unflowed
            out, into = Counter(), Counter()
            for (t, h, m) in D.arcs():
                out[t] += m
                into[h] += m
            flows = 0
            for (t, h, m) in D.arcs():
                for unit in range(m):
                    if out[t] <= k or into[h] <= k:
                        forced += 1
                        break
                    flows += 1
                    if unit == m - kept.get((t, h), 0):
                        break
                    out[t] -= 1
                    into[h] -= 1
            assert calls["karc_deficient_cut"] == 0
            assert calls["st_max_flow"] == flows
    assert forced > 0


def test_approx_kp_tests_strongness_twice(monkeypatch):
    # once inside the pair stage, and once on the final family when its
    # sets differ from the pair family's, both in core._verified: the
    # minimal core reuses the pair stage's proof instead of testing
    # again, and an output with the pair family's sets applies to the
    # digraph that proof is about
    calls = []

    def counted(D, k, keep=True, _fn=core._deficient_side):
        calls.append(D.n)
        return _fn(D, k, keep)

    # every strongness question of core goes through _deficient_side
    monkeypatch.setattr(core, "_deficient_side", counted)
    rng = random.Random(511)
    seen = Counter()
    for heuristic in (False, True):
        for p in (3, 4):
            for _ in range(6):
                D = _cycles_digraph(rng, 1, rng.randint(6, 9), bundles=False)
                calls.clear()
                family, trace = approx_kp(D, 1, p, heuristic=heuristic)
                same = family.canonical() == trace.base_pairs.canonical()
                seen[same] += 1
                assert len(calls) == (1 if same else 2)
    assert seen[True] and seen[False]


def test_approx_kp_applies_the_pair_family_once(monkeypatch):
    # the pair stage's check hands its digraph to the minimal core, so
    # one approx_kp applies the pair family once, and the output again
    # only when its sets differ from the pair family's
    applied = []
    check = core._check_digraph

    def counted(D, what, simple=False):
        if what == "apply_inversions":
            applied.append(D.n)
        return check(D, what, simple)

    monkeypatch.setattr(core, "_check_digraph", counted)
    cycle = [(v, (v + 1) % 7) for v in range(7)]
    inputs = [MultiDigraph(7, [(1, 0)] + cycle[1:]), MultiDigraph(7, [(1, 0), (1, 2), (3, 2)] + cycle[3:])]
    rng = random.Random(513)
    inputs += [rand_2kec_digraph(rng, 1, rng.randint(5, 9)) for _ in range(6)]
    inputs += [_cycles_digraph(rng, 1, rng.randint(6, 9), bundles=False) for _ in range(6)]
    seen = Counter()
    for D in inputs:
        for heuristic, p in product((False, True), (3, 4)):
            applied.clear()
            family, trace = approx_kp(D, 1, p, heuristic=heuristic)
            same = family.canonical() == trace.base_pairs.canonical()
            seen[same] += 1
            assert applied == ([D.n] if same else [D.n, D.n])
            assert is_k_arc_strong(apply_inversions(D, family), 1)
            assert is_k_arc_strong(apply_inversions(D, trace.base_pairs), 1)
    assert seen[True] and seen[False]


def test_approx_kp_builds_each_digraph_matrix_at_most_once(monkeypatch):
    # caps_flat is the one matrix reader: the pair stage's check keeps
    # what it reads, so the minimal core copies the pair-stage digraph's
    # matrix instead of building it again, and the output's check, whose
    # digraph is dropped, keeps nothing
    builds = []
    caps_flat = MultiDigraph.caps_flat

    def counted(D, keep=True):
        if D._caps is None:
            builds.append(D)
        return caps_flat(D, keep)

    asked = []
    side = core._deficient_side
    monkeypatch.setattr(MultiDigraph, "caps_flat", counted)
    monkeypatch.setattr(core, "_deficient_side", lambda D, k, keep=True: asked.append(D) or side(D, k, keep))
    rng = random.Random(514)
    for heuristic, p in product((False, True), (3, 4)):
        for _ in range(6):
            D = _cycles_digraph(rng, 1, rng.randint(6, 9), bundles=False)
            builds.clear()
            asked.clear()
            approx_kp(D, 1, p, heuristic=heuristic)
            # builds holds every built digraph, so no id is reused
            assert len({id(E) for E in builds}) == len(builds) > 0
            assert asked[0]._caps is not None and all(E._caps is None for E in asked[1:])


def test_entry_points_share_one_lambda_per_digraph(monkeypatch):
    # is_kp_invertible and approx_kp both need lambda(UG(D)) >= 2k; the
    # kernel computes it for the first and the second reads the memo
    calls = []
    cut_value = _kernels.min_cut_value
    monkeypatch.setattr(_kernels, "min_cut_value", lambda *a: calls.append(a[0]) or cut_value(*a))
    rng = random.Random(512)
    for _ in range(8):
        # a copy: the generator has already computed its lambda
        E = rand_2kec_digraph(rng, 1, rng.randint(6, 9))
        D = MultiDigraph(E.n, list(E.arcs()))
        calls.clear()
        assert is_kp_invertible(D, 1, 3).reason != "not-2k-edge-connected"
        approx_kp(D, 1, 3)
        assert calls == [D.n]


def test_pairs_independent_cases():
    # two disjoint edges with nothing between them are independent
    G = Multigraph(6, [(0, 1), (2, 3), (4, 5, 2)])
    assert pairs_independent(frozenset({0, 1}), frozenset({2, 3}), G)
    # a third edge inside the union is forbidden
    crossed = Multigraph(6, [(0, 1), (2, 3), (0, 2)])
    assert not pairs_independent(frozenset({0, 1}), frozenset({2, 3}), crossed)
    # sharing a vertex is fine when the union induces only the two edges
    shared = Multigraph(4, [(0, 1), (1, 2)])
    assert pairs_independent(frozenset({0, 1}), frozenset({1, 2}), shared)
    # a doubled pair is never independent of anything
    assert not pairs_independent(frozenset({4, 5}), frozenset({0, 1}), G)


def test_pack_identity_and_group_independence():
    rng = random.Random(505)
    for _ in range(30):
        D = rand_2kec_digraph(rng, 1, 8)
        fam = min_k2_inversion_set(D, 1)
        strong = apply_inversions(D, fam.sets)
        core = minimally_k_arc_strong(strong, 1)
        G = core.underlying()
        for h in (2, 3):
            packed, leftover = pack_independent_pairs(list(fam.sets), G, 2 * h)
            assert len(fam.sets) == h * len(packed) + len(leftover)
            for group_union in packed:
                assert len(group_union) <= 2 * h


def test_eta_closed_form():
    assert eta(3, 1) == Fraction(2)
    assert eta(4, 1) == Fraction(3, 2)
    assert eta(5, 3) == Fraction(5)
    assert eta(6, 1) == Fraction(min(15, 5), 3)
    assert ramsey_bound_descriptor(4, 1) == "R(2,4,8) - 1"
    assert ramsey_bound_descriptor(7, 2) == "R(3,8,16) - 1"


def test_approx_verifies_and_meets_the_bound(fig2):
    rng = random.Random(506)
    for _ in range(25):
        k = rng.choice([1, 1, 2])
        D = rand_2kec_digraph(rng, k, rng.randint(2 * k + 2, 8))
        p = rng.choice([3, 4, 5])
        fam, trace = approx_kp(D, k, p)
        assert is_k_arc_strong(apply_inversions(D, fam.sets), k)
        assert all(len(s) <= p for s in fam.sets)
        h = p // 2
        base, left = len(trace.base_pairs.sets), len(trace.leftover)
        assert len(fam.sets) == (base - left) // h + left
        assert trace.base_optimal and not trace.guarantee_void
        opt = exact_inv_kp(D, k, p, mode="at-most", l_max=3)
        if opt is not None and opt.sets:
            assert len(fam.sets) <= trace.eta * len(opt.sets) + left


def test_approx_heuristic_flags_the_void_guarantee(fig2):
    fam, trace = approx_kp(fig2, 2, 4, heuristic=True)
    assert trace.guarantee_void
    assert is_k_arc_strong(apply_inversions(fig2, fam.sets), 2)


def test_fig2_needs_exactly_two_pair_inversions(fig2):
    fam = min_k2_inversion_set(fig2, 2)
    assert len(fam.sets) == 2


def test_min_k2_never_calls_the_reachability_oracle(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("min_k2_inversion_set consulted gf2_reachable")

    monkeypatch.setattr(oracles, "gf2_reachable", refuse)
    rng = random.Random(507)
    for _ in range(10):
        D = rand_2kec_digraph(rng, 1, rng.randint(4, 8))
        fam = min_k2_inversion_set(D, 1)
        assert is_k_arc_strong(apply_inversions(D, fam.sets), 1)


def test_pair_families_exist_on_every_2k_edge_connected_digraph():
    # the theorem in min_k2_inversion_set's docstring: with digons held
    # fixed, pair flips reach a k-arc-strong orientation whenever the
    # underlying multigraph is 2k-edge-connected
    rng = random.Random(508)
    for k in (1, 2):
        for _ in range(30):
            D = rand_2kec_digraph(rng, k, rng.randint(2 * k + 1, 8))
            assert gf2_reachable(D, k, 2, mode="exact-size") is not None
            assert min_k2_inversion_set(D, k) is not None


def test_min_k2_rejects_non_int_support_vertices():
    D = _cycles_digraph(random.Random(503), 1, 5, bundles=False)
    for support in ({0, 2.5}, {0, True}, {0, 5}):
        with pytest.raises(InvalidArgumentError):
            min_k2_inversion_set(D, 1, support=support)


# -- the pair stage's rules against references kept here ------------------


def _pair_scan(n, caps, sup):
    """The allowed pairs by the former scan of all pairs u < v of sup."""
    return [(u, v) for u in sup for v in sup if u < v and caps[u * n + v] != caps[v * n + u]]


def _reference_min_pairs(D, k, sup=None):
    """The pair search with the former n^2 pair scan and a recount of
    the deficient vertices at every node."""
    n = D.n
    sup = range(n) if sup is None else sup
    caps = D.caps_flat()
    allowed = {pr: 1 << i for i, pr in enumerate(_pair_scan(n, caps, sup))}
    outdeg, indeg = core._degrees(n, caps)

    def flip(u, v):
        uv, vu = caps[u * n + v], caps[v * n + u]
        caps[u * n + v], caps[v * n + u] = vu, uv
        outdeg[u] += vu - uv
        indeg[v] += vu - uv
        outdeg[v] += uv - vu
        indeg[u] += uv - vu

    def deficient():
        if n < 2:
            return 0
        return sum(1 for v in range(n) if outdeg[v] < k or indeg[v] < k)

    chain = []
    memo = {}

    def dfs(mask, budget):
        if deficient() > 2 * budget:
            return None
        entry = memo.get(mask)
        if entry is None:
            side = _kernels.karc_deficient_cut(n, caps, k)
            if side == -1:
                return core.InversionFamily(chain)
            entry = memo[mask] = (side, 0)
        side, failed = entry
        if budget <= failed:
            return None
        for _g, pr in approx._gaining_pairs(n, caps, side, allowed):
            bit = allowed[pr]
            if mask & bit:
                continue
            flip(*pr)
            chain.append(pr)
            fam = dfs(mask | bit, budget - 1)
            if fam is not None:
                return fam
            chain.pop()
            flip(*pr)
        memo[mask] = (side, budget)
        return None

    for budget in range(len(allowed) + 1):
        fam = dfs(0, budget)
        if fam is not None:
            return fam
    return None


def _pair_inputs(rng, count):
    """(D, k, support) with 2k-edge-connected underlying multigraphs:
    random orientations of k Hamilton cycles plus chords, with digons
    and, in a third of them, parallel arcs, and a vertex subset as the
    support in a quarter of them."""
    out = []
    for i in range(count):
        k = (1, 1, 2, 3)[i % 4]
        D = _cycles_digraph(rng, k, rng.randint(2 * k + 1, 2 * k + 5), bundles=i % 3 == 0)
        sup = None
        if rng.random() < 0.25:
            sup = set(rng.sample(range(D.n), rng.randint(2, D.n)))
        out.append((D, k, sup))
    return out


def test_pair_list_from_the_arc_dict_matches_the_all_pairs_scan():
    rng = random.Random(521)
    kinds = Counter()
    for D, k, sup in _pair_inputs(rng, 320):
        n = D.n
        caps = D.caps_flat()
        allowed = approx._asymmetric_pairs(D, sup)
        assert sorted(allowed) == _pair_scan(n, caps, range(n) if sup is None else sorted(sup))
        assert sorted(allowed.values()) == [1 << i for i in range(len(allowed))]
        kinds["digon"] += any(D.mult(h, t) for (t, h, _m) in D.arcs())
        kinds["parallel"] += any(m > 1 for (_t, _h, m) in D.arcs())
        kinds["support"] += sup is not None
    assert min(kinds.values()) >= 40


def test_running_deficiency_count_searches_as_the_recount_did(monkeypatch):
    # the same family, and the kernel asked about the same matrices in
    # the same order, so the count cut exactly the nodes the recount cut
    asked = []

    def karc(n, caps, k, after=None, matrix=None, _fn=_kernels.karc_deficient_cut):
        asked.append(tuple(caps))
        return _fn(n, caps, k, after, matrix)

    monkeypatch.setattr(_kernels, "karc_deficient_cut", karc)
    rng = random.Random(522)
    found = Counter()
    for D, k, sup in _pair_inputs(rng, 320):
        del asked[:]
        mine = approx._min_pairs(D, k, sup)
        mine_asked = list(asked)
        del asked[:]
        ref = _reference_min_pairs(D, k, sup)
        assert mine_asked == asked
        assert (mine and mine.sets) == (ref and ref.sets)
        found[mine is None] += 1
        found[f"k={k}"] += 1
    assert found[True] >= 10 and found[False] >= 200 and found["k=3"] >= 60


def _broken_cycles(rng, count):
    """(D, k): k random Hamilton cycles, each arc turned at random, plus
    chords; the greedy walk gets stuck on many of them."""
    out = []
    for i in range(count):
        k = (1, 1, 2, 3)[i % 4]
        out.append((_cycles_digraph(rng, k, rng.randint(2 * k + 3, 2 * k + 7), bundles=False), k))
    return out


def test_greedy_with_a_shared_memo_returns_the_fresh_fallback_family():
    rng = random.Random(523)
    fallbacks = Counter()
    for D, k in _broken_cycles(rng, 300):
        want, fell_back = _greedy_over_all_pairs(D, k)
        assert [tuple(sorted(s)) for s in approx._greedy_pairs(D, k).sets] == want
        fallbacks[fell_back] += 1
    assert fallbacks[True] >= 30 and fallbacks[False] >= 30


def test_greedy_fallback_asks_nothing_the_walk_asked(monkeypatch):
    """Every state the walk scanned is in the fallback's memo, so no
    matrix reaches the backend twice in one greedy repair."""
    seen = []

    def karc(n, caps, k, after=None, matrix=None):
        seen.append((n, tuple(caps), k))
        return _pyimpl.karc_deficient_cut(n, caps, k, after, matrix)

    monkeypatch.setattr(_kernels, "_impl", SimpleNamespace(
        karc_deficient_cut=karc, st_max_flow=_pyimpl.st_max_flow,
        min_cut_value=_pyimpl.min_cut_value, BACKEND="py",
    ))
    rng = random.Random(524)
    repeats = 0
    for D, k in _broken_cycles(rng, 120):
        del seen[:]
        _want, fell_back = _greedy_over_all_pairs(D, k)
        if not fell_back:
            continue
        # the reference asks again about the states its walk scanned
        repeats += len(seen) > len(set(seen))
        del seen[:]
        approx._greedy_pairs(D, k)
        assert len(seen) == len(set(seen))
    assert repeats >= 10


def test_pairs_must_be_distinct_int_vertices_of_the_graph():
    C6 = Multigraph(6, [(v, (v + 1) % 6) for v in range(6)])
    # a repeated pair used to be packed once, flipping what the input
    # family leaves alone
    with pytest.raises(InvalidArgumentError, match="repeated"):
        pack_independent_pairs([(0, 1), (1, 0), (3, 4)], C6, 4)
    with pytest.raises(InvalidArgumentError, match="repeated"):
        pack_independent_pairs([frozenset({2, 3}), (2, 3)], C6, 3)
    for bad in ((0, 9), (0, -1), (1.5, 2), (True, 2), ("0", 1)):
        with pytest.raises(InvalidArgumentError):
            pack_independent_pairs([(2, 3), bad], C6, 4)
        with pytest.raises(InvalidArgumentError):
            pairs_independent(bad, (2, 3), C6)
        with pytest.raises(InvalidArgumentError):
            pairs_independent((2, 3), bad, C6)
    with pytest.raises(InvalidArgumentError):
        pack_independent_pairs([(0, 1, 2)], C6, 4)
    with pytest.raises(InvalidArgumentError):
        pairs_independent((0, 1), (1, 0), C6)
    # the valid cases answer as before
    assert pack_independent_pairs([(0, 1), (3, 4)], C6, 4) == ([frozenset({0, 1, 3, 4})], [])
    assert pairs_independent((0, 1), (3, 4), C6)


def _broken_cycle(n, reversed_arcs, chords):
    """The dicycle 0 -> 1 -> ... -> n - 1 -> 0 with the arcs i -> i + 1
    of ``reversed_arcs`` turned round, plus the ``chords``."""
    arcs = [((i + 1) % n, i) if i in reversed_arcs else (i, (i + 1) % n) for i in range(n)]
    return MultiDigraph(n, arcs + list(chords))


def _reach_reads(monkeypatch):
    """Counts the vertices the pure reaches expand: each expansion reads
    one row or column of caps as a slice."""
    reads = Counter()
    reach = _pyimpl._reach

    class Rows(list):
        def __getitem__(self, i):
            if isinstance(i, slice):
                reads["vertices"] += 1
            return list.__getitem__(self, i)

    def counted(n, caps, *args):
        reads["calls"] += 1
        return reach(n, Rows(caps), *args)

    monkeypatch.setattr(_pyimpl, "_reach", counted)
    return reads


def test_k1_pair_searches_grow_reaches_from_the_parent(monkeypatch):
    """The pair search and the greedy walk hand each child the side of
    its parent, so the k = 1 reaches expand fewer vertices than the
    same searches without the hint, which return the same families."""
    monkeypatch.setattr(_kernels, "_impl", _pyimpl)
    D = _broken_cycle(16, {2, 4, 5, 9}, [(0, 9), (10, 1), (9, 5), (9, 7)])
    reads = _reach_reads(monkeypatch)
    dispatch = _kernels.karc_deficient_cut
    runs = {}
    for hinted in (True, False):
        if not hinted:
            monkeypatch.setattr(_kernels, "karc_deficient_cut",
                                lambda n, caps, k, after=None, matrix=None: dispatch(n, caps, k))
        for search in (min_k2_inversion_set, greedy_k2_inversion_set):
            monkeypatch.setattr(_kernels, "_strong", None)
            reads.clear()
            fam = search(D, 1)
            runs[hinted, search.__name__] = (fam.canonical(), reads["vertices"], reads["calls"])
    for name in ("min_k2_inversion_set", "greedy_k2_inversion_set"):
        fam, vertices, calls = runs[True, name]
        plain_fam, plain_vertices, plain_calls = runs[False, name]
        assert fam == plain_fam and len(fam) == 4
        assert calls == plain_calls > 20
        assert vertices < plain_vertices, (name, vertices, plain_vertices)
