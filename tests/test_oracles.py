import random
import sys
import types
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcinvert import _kernels, approx, core, oracles, parity
from arcinvert.core import (
    INFINITY,
    MultiDigraph,
    Multigraph,
    apply_inversions,
    edge_connectivity,
    is_k_arc_strong,
)
from arcinvert.errors import InvalidArgumentError
from arcinvert.oracles import (
    Hypergraph,
    exact_inv_kp,
    exists_k_arc_strong_orientation,
    gf2_reachable,
    max_hypergraph_matching,
    max_p3_packing,
    orientation_bfs_reachable,
)
from arcinvert.parity import Gf2Basis, _cut_sizes

from conftest import rand_2kec_digraph, rand_digraph, rand_multidigraph, rand_multigraph


def test_gf2_matches_bfs_reference():
    rng = random.Random(301)
    agree = 0
    for _ in range(120):
        D = rand_digraph(rng, n_max=5, n_min=3)
        for (k, p) in ((1, 2), (1, 3), (1, 4), (2, 3)):
            if p > D.n:
                continue
            for mode in ("exact-size", "at-most"):
                got = gf2_reachable(D, k, p, mode=mode)
                want = orientation_bfs_reachable(D, k, p, mode=mode)
                assert (got is not None) == want
                if got is not None:
                    out = apply_inversions(D, got.sets)
                    assert is_k_arc_strong(out, k)
                    if mode == "exact-size":
                        assert all(len(s) == p for s in got.sets)
                    else:
                        assert all(len(s) <= p for s in got.sets)
                agree += 1
    assert agree > 300


def test_gf2_witness_on_a_known_flip():
    # path 0->1->2 plus back arc: inverting {0,1,2} gives the reverse cycle
    D = MultiDigraph(3, [(0, 1), (1, 2), (2, 0)])
    broken = apply_inversions(D, [[0, 1, 2]])
    fam = gf2_reachable(broken, 1, 3, mode="exact-size")
    assert fam is not None
    assert is_k_arc_strong(apply_inversions(broken, fam.sets), 1)


def test_orientation_witness_iff_2k_edge_connected():
    rng = random.Random(302)
    for _ in range(80):
        G = rand_multigraph(rng, n_max=6)
        for k in (1, 2):
            lam = edge_connectivity(G)
            witness = exists_k_arc_strong_orientation(G, k)
            if lam != INFINITY and lam < 2 * k:
                assert witness is None
            else:
                assert witness is not None
                assert witness.underlying() == G
                assert is_k_arc_strong(witness, k)


def test_exact_inv_kp_finds_minimum_families():
    rng = random.Random(303)
    for _ in range(30):
        D = rand_digraph(rng, n_max=5, n_min=4)
        fam = exact_inv_kp(D, 1, 3, mode="exact-size", l_max=2)
        want = orientation_bfs_reachable(D, 1, 3, mode="exact-size")
        if fam is None:
            continue
        assert want
        assert is_k_arc_strong(apply_inversions(D, fam.sets), 1)
        # minimality: no shorter family exists
        if len(fam.sets) == 2:
            none_shorter = True
            for X in combinations(range(D.n), 3):
                if is_k_arc_strong(apply_inversions(D, [X]), 1):
                    none_shorter = False
            assert none_shorter or is_k_arc_strong(D, 1) is False


def test_exact_inv_kp_at_most_sets_have_no_stray_vertices():
    # a minimal <=p set never carries a vertex with no neighbor inside
    rng = random.Random(306)
    found = 0
    for _ in range(40):
        D = rand_digraph(rng, n_max=6, n_min=4)
        fam = exact_inv_kp(D, 1, 4, mode="at-most", l_max=2)
        if fam is None:
            continue
        found += 1
        G = D.underlying()
        for X in fam.sets:
            for v in X:
                assert any(G.mult(v, u) for u in X if u != v)
    assert found > 10


def _brute_p3(G):
    best = 0
    n = G.n
    cands = []
    for b in range(n):
        for a, c in combinations(G.neighbors(b), 2):
            cands.append((a, b, c))
    for r in range(n // 3, 0, -1):
        for group in combinations(cands, r):
            used = [v for t in group for v in t]
            if len(set(used)) == 3 * r:
                return r
    return best


def test_max_p3_packing_matches_brute_force():
    rng = random.Random(304)
    for _ in range(40):
        G = rand_multigraph(rng, n_max=7, mult_max=1)
        size, triples = max_p3_packing(G)
        assert size == _brute_p3(G)
        used = [v for t in triples for v in t]
        assert len(set(used)) == 3 * size
        for a, b, c in triples:
            assert G.mult(a, b) and G.mult(b, c)


def _brute_matching(H):
    edges = list(H.edges)
    best = 0
    for r in range(len(edges), 0, -1):
        for group in combinations(edges, r):
            if len(frozenset().union(*group)) == sum(len(e) for e in group):
                return r
    return best


def test_max_hypergraph_matching_matches_brute_force():
    rng = random.Random(305)
    for _ in range(40):
        n = rng.randint(3, 7)
        edges = set()
        for _e in range(rng.randint(1, 6)):
            edges.add(frozenset(rng.sample(range(n), 3)))
        H = Hypergraph(n, sorted(edges, key=sorted))
        size, picked = max_hypergraph_matching(H)
        assert size == _brute_matching(H)
        assert len(frozenset().union(*picked) if picked else frozenset()) == 3 * size
        for e in picked:
            assert e in H.edges


def test_hypergraph_rejects_non_uniform_matching():
    H = Hypergraph(5, [frozenset({0, 1, 2}), frozenset({3, 4})])
    with pytest.raises(InvalidArgumentError):
        max_hypergraph_matching(H)


def test_gf2_exact_size_blocked_by_parity_on_an_obstruction():
    from arcinvert.obstruction import star_matching_obstruction

    D, _cert = star_matching_obstruction(3)
    assert gf2_reachable(D, 1, 3, mode="exact-size") is None
    fam = gf2_reachable(D, 1, 4, mode="exact-size")
    assert fam is not None
    assert is_k_arc_strong(apply_inversions(D, fam.sets), 1)


def test_public_gf2_reachable_runs_the_parity_refutation(monkeypatch):
    # the public oracle refutes by forced-parity cuts for n <= 16, at
    # most once a search and only from its first backtrack: the "no"
    # runs it once, and a "yes" found by a straight descent not at all
    from arcinvert.obstruction import star_matching_obstruction

    calls = []
    original = parity._forced_parity_refuted

    def counted(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(parity, "_forced_parity_refuted", counted)
    D, _cert = star_matching_obstruction(3)
    assert gf2_reachable(D, 1, 3, mode="exact-size") is None
    assert calls == [True]
    assert gf2_reachable(D, 1, 4, mode="exact-size") is not None
    assert calls[1:] in ([], [False])


class _NaiveGf2Basis:
    """The plain elimination: reduce against every row, re-sort after
    every insertion."""

    def __init__(self):
        self.rows = []

    def _reduce(self, vec, combo=0):
        for v, c in self.rows:
            if vec ^ v < vec:
                vec ^= v
                combo ^= c
        return vec, combo

    def add(self, vec, combo):
        vec, combo = self._reduce(vec, combo)
        if vec == 0:
            return False
        self.rows.append((vec, combo))
        self.rows.sort(key=lambda rc: -rc[0])
        return True

    def solve(self, target):
        vec, combo = self._reduce(target)
        return combo if vec == 0 else None


@st.composite
def _gf2_vectors(draw):
    """Width and a mix of sparse (<= 3 bits), dense, zero and repeated
    vectors of that width."""
    width = draw(st.sampled_from([1, 5, 20, 70, 140]))
    dense = st.integers(0, (1 << width) - 1)
    sparse = st.lists(st.integers(0, width - 1), max_size=3).map(
        lambda bits: sum({1 << b for b in bits})
    )
    vecs = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["sparse", "dense", "zero", "repeat"]))
        if kind == "repeat" and vecs:
            vecs.append(draw(st.sampled_from(vecs)))
        elif kind == "dense":
            vecs.append(draw(dense))
        elif kind == "zero":
            vecs.append(0)
        else:
            vecs.append(draw(sparse))
    targets = draw(st.lists(st.one_of(dense, sparse), max_size=8))
    return vecs, targets


@settings(max_examples=200, deadline=None)
@given(_gf2_vectors())
def test_gf2_basis_matches_the_naive_elimination(case):
    vecs, targets = case
    basis, naive = Gf2Basis(), _NaiveGf2Basis()
    for i, v in enumerate(vecs):
        assert basis.add(v, 1 << i) == naive.add(v, 1 << i)
        assert basis.dim == len(naive.rows)
        assert basis.rows == naive.rows
    # XORs of inserted vectors are in the span, the targets may be not
    for i in range(len(vecs)):
        targets.append(vecs[i] ^ vecs[i // 2])
    for target in targets:
        combo = basis.solve(target)
        assert combo == naive.solve(target)
        if combo is not None:
            got = 0
            for i, v in enumerate(vecs):
                if (combo >> i) & 1:
                    got ^= v
            assert got == target


def test_exact_inv_kp_gives_up_on_an_obstruction():
    from arcinvert.obstruction import star_matching_obstruction

    D, _cert = star_matching_obstruction(3)
    assert exact_inv_kp(D, 1, 3, mode="exact-size", l_max=3) is None


def test_exact_inv_kp_on_a_single_vertex():
    # no proper cut: k-arc-strong with no sets, whatever the budget
    for mode in ("at-most", "exact-size"):
        for l_max in (0, 2):
            assert exact_inv_kp(MultiDigraph(1), 1, 3, mode, l_max).sets == ()


def _fewest_sets_by_bfs(D, k, p, mode, depth_max):
    """Fewest (=p or <=p)-sets whose inversion makes D k-arc-strong, by
    a breadth-first search over the arc counts that single sets reach;
    None when more than depth_max sets are needed."""
    n = D.n
    sizes = [p] if mode == "exact-size" else range(2, p + 1)
    moves = [xs for size in sizes for xs in combinations(range(n), size)]
    start = tuple(D.caps_flat())
    seen = {start}
    frontier = [start]
    for depth in range(depth_max + 1):
        if any(_kernels.karc_deficient_cut(n, list(caps), k) == -1 for caps in frontier):
            return depth
        following = []
        for caps in frontier if depth < depth_max else ():
            for xs in moves:
                new = list(caps)
                for a, b in combinations(xs, 2):
                    new[a * n + b], new[b * n + a] = caps[b * n + a], caps[a * n + b]
                new = tuple(new)
                if new not in seen:
                    seen.add(new)
                    following.append(new)
        frontier = following
    return None


def test_exact_inv_kp_size_is_the_breadth_first_depth():
    # the minimum family of the branch and bound is as long as the
    # shortest inversion sequence, and it gives up exactly when that
    # sequence is longer than l_max
    rng = random.Random(309)
    depths = []
    for _ in range(160):
        k = rng.choice((1, 2))
        n = rng.randint(2 * k + 1, 6)
        p = rng.choice((2, 3, 4))
        mode = rng.choice(("exact-size", "at-most"))
        # an oriented graph (every arc can flip) with up to three random sets inverted
        D = rand_digraph(rng, n, n, density=rng.uniform(0.6, 1.0), oriented=True)
        sets = [rng.sample(range(n), rng.randint(2, min(p, n))) for _ in range(rng.randint(0, 3))]
        D = apply_inversions(D, sets)
        l_max = rng.randint(0, 3)
        want = _fewest_sets_by_bfs(D, k, p, mode, l_max)
        fam = exact_inv_kp(D, k, p, mode=mode, l_max=l_max)
        assert (None if fam is None else len(fam.sets)) == want
        depths.append(want)
    assert depths.count(None) > 40 and depths.count(0) > 20 and depths.count(1) > 20
    assert depths.count(2) + depths.count(3) > 8


def test_exact_inv_kp_refutes_by_degrees_before_lambda_and_flows(monkeypatch):
    # more deficient vertices (fewer than k arcs out or in) than l_max
    # sets of p vertices can touch: None from the degrees alone
    rng = random.Random(312)
    cases = []
    for _ in range(60):
        k = rng.choice((1, 2))
        D = rand_digraph(rng, n_max=9, n_min=3, density=rng.uniform(0.1, 0.5))
        p = rng.choice((2, 3, 4))
        mode = rng.choice(("exact-size", "at-most"))
        deficient = sum(1 for v in range(D.n) if D.out_degree(v) < k or D.in_degree(v) < k)
        if deficient:
            l_max = rng.randint(0, (deficient - 1) // p)
            assert exact_inv_kp(D, k, p, mode=mode, l_max=l_max) is None
            cases.append((D, k, p, mode, l_max))

    def refuse(*_args):
        raise AssertionError("lambda or a flow on an input the degrees refute")

    monkeypatch.setattr(oracles, "edge_connectivity", refuse)
    monkeypatch.setattr(
        oracles,
        "_kernels",
        types.SimpleNamespace(karc_deficient_cut=refuse, st_max_flow=refuse, min_cut_value=refuse),
    )
    for D, k, p, mode, l_max in cases:
        assert exact_inv_kp(D, k, p, mode=mode, l_max=l_max) is None
    assert len(cases) > 30


def test_exact_inv_kp_rejects_bool_arguments():
    # bool is an int subclass; True must not pass for k = 1, p or l_max
    D = MultiDigraph(3, [(0, 1), (1, 2), (2, 0)])
    for k, p, l_max in ((True, 3, 2), (False, 3, 2), (1, True, 2), (1, 3, True), (1, 3, False)):
        with pytest.raises(InvalidArgumentError):
            exact_inv_kp(D, k, p, l_max=l_max)
    with pytest.raises(InvalidArgumentError):
        gf2_reachable(D, 1, True)
    with pytest.raises(InvalidArgumentError):
        exists_k_arc_strong_orientation(D.underlying(), True)


def _neighbour_masks(D):
    adj = [0] * D.n
    for t, h, _mult in D.arcs():
        adj[t] |= 1 << h
        adj[h] |= 1 << t
    return adj


def _reference_candidates(D, p, mode, side, budget, short):
    """(gain, set) for every set of an allowed size that holds at least
    len(short) - (budget - 1) * p deficient vertices and a crossing pair
    of side with unequal arc counts, sorted by (-gain, set); in at-most
    mode without the sets that have a vertex with no neighbour inside."""
    n = D.n
    caps = D.caps_flat()
    sizes = [p] if mode == "exact-size" else range(2, p + 1)
    need = len(short) - (budget - 1) * p
    out = []
    for size in sizes:
        for xs in combinations(range(n), size):
            if sum(v in short for v in xs) < need:
                continue
            gain, hit = 0, False
            for a, b in combinations(xs, 2):
                if (side >> a) & 1 == (side >> b) & 1:
                    continue
                lo, hi = (a, b) if (side >> a) & 1 else (b, a)
                if caps[hi * n + lo] != caps[lo * n + hi]:
                    gain += caps[hi * n + lo] - caps[lo * n + hi]
                    hit = True
            stray = any(not any(caps[v * n + u] + caps[u * n + v] for u in xs) for v in xs)
            if hit and not (mode == "at-most" and stray):
                out.append((-gain, xs))
    out.sort()
    return [(-neg, xs) for neg, xs in out]


def test_exact_candidates_match_a_brute_force_reference():
    # the lazy, levelled build yields the reference list in its order;
    # at budget 1 it leaves out exactly the sets that keep d+(S) below
    # k, and each of those leaves D not k-arc-strong
    rng = random.Random(318)
    nodes = dropped = 0
    for _ in range(1200):
        k = rng.choice((1, 2))
        D = rand_multidigraph(rng, n_max=8, n_min=2)
        n, caps = D.n, D.caps_flat()
        side = _kernels.karc_deficient_cut(n, caps, k)
        p = rng.choice((2, 3, 4))
        mode = rng.choice(("exact-size", "at-most"))
        budget = rng.choice((1, 1, 2, 3))
        short = [v for v in range(n) if D.out_degree(v) < k or D.in_degree(v) < k]
        if side == -1 or len(short) > budget * p:
            continue  # the search asks no candidates of such a node
        got = list(
            oracles._exact_candidates(n, caps, _neighbour_masks(D), k, p, mode, side, budget, short)
        )
        want = _reference_candidates(D, p, mode, side, budget, short)
        inside = [v for v in range(n) if (side >> v) & 1]
        d_out = sum(D.mult(u, v) for u in inside for v in range(n) if v not in inside)
        if budget == 1:
            for gain, xs in want:
                if d_out + gain < k:
                    assert not is_k_arc_strong(apply_inversions(D, [xs]), k)
                    dropped += 1
            want = [(gain, xs) for gain, xs in want if d_out + gain >= k]
        assert got == [xs for _gain, xs in want]
        nodes += 1
    assert nodes > 500 and dropped > 50


def test_exact_candidates_match_the_reference_on_the_search_hot_shapes():
    # the shapes the exact searches meet most: n up to 12 with p = 5 and
    # k = 3, sides with a single end on one side of S (a star of gaining
    # pairs), at-most budget-2 nodes, digons and parallel arcs; both the
    # full stream and a reader that stops after the first set (which
    # never builds a gain level) agree with the reference
    rng = random.Random(319)
    nodes = stars = at_most_2 = large = 0
    while nodes < 240:
        k = rng.choice((1, 2, 3))
        D = rand_multidigraph(rng, n_max=12, n_min=4, density=rng.uniform(0.3, 0.8))
        n, caps = D.n, D.caps_flat()
        p = rng.choice((3, 5, 5)) if n >= 5 else 3
        mode = rng.choice(("exact-size", "at-most"))
        budget = rng.choice((1, 2, 2))
        short = [v for v in range(n) if D.out_degree(v) < k or D.in_degree(v) < k]
        full = (1 << n) - 1
        sides = {_kernels.karc_deficient_cut(n, caps, k)}
        sides.update(1 << v for v in range(n) if D.out_degree(v) < k)
        sides.update(full ^ (1 << v) for v in range(n) if D.in_degree(v) < k)
        sides.discard(-1)
        if not sides or len(short) > budget * p:
            continue
        side = rng.choice(sorted(sides))
        adj = _neighbour_masks(D)
        want = _reference_candidates(D, p, mode, side, budget, short)
        inside = [v for v in range(n) if (side >> v) & 1]
        if budget == 1:
            d_out = sum(D.mult(u, v) for u in inside for v in range(n) if v not in inside)
            want = [(gain, xs) for gain, xs in want if d_out + gain >= k]
        want = [xs for _gain, xs in want]
        stream = oracles._exact_candidates(n, caps, adj, k, p, mode, side, budget, short)
        assert next(stream, None) == (want[0] if want else None)
        got = list(oracles._exact_candidates(n, caps, adj, k, p, mode, side, budget, short))
        assert got == want
        nodes += 1
        gaining = [
            (u, v) for u in inside for v in range(n) if v not in inside and D.mult(u, v) != D.mult(v, u)
        ]
        stars += len(want) > 0 and 1 in (len({u for u, _v in gaining}), len({v for _u, v in gaining}))
        at_most_2 += len(want) > 0 and mode == "at-most" and budget == 2
        large += len(want) > 0 and n >= 10 and p == 5 and k == 3
    assert stars > 150 and at_most_2 > 60 and large > 8, (stars, at_most_2, large)


def _logging_kernels(monkeypatch):
    """Log 'karc' and 'lambda' for every karc_deficient_cut and
    min_cut_value call, in order."""
    log = []
    karc, cut_value = _kernels.karc_deficient_cut, _kernels.min_cut_value

    def logged_karc(*args):
        log.append("karc")
        return karc(*args)

    def logged_cut_value(*args):
        log.append("lambda")
        return cut_value(*args)

    monkeypatch.setattr(_kernels, "karc_deficient_cut", logged_karc)
    monkeypatch.setattr(_kernels, "min_cut_value", logged_cut_value)
    return log


def test_exact_inv_kp_computes_lambda_only_after_a_failure(monkeypatch):
    # a call whose first descent finds a family (each node on it reads
    # one set, and one karc call per node plus the final check) never
    # computes lambda(UG(D)); any other call computes it once
    log = _logging_kernels(monkeypatch)
    reads = []
    candidates = oracles._exact_candidates

    def read(*args):
        for xs in candidates(*args):
            reads.append(xs)
            yield xs

    monkeypatch.setattr(oracles, "_exact_candidates", read)
    rng = random.Random(321)
    first = later = 0
    for _ in range(300):
        k = rng.choice((1, 2))
        D = rand_digraph(rng, n_max=7, n_min=2 * k + 1, density=rng.uniform(0.3, 0.9))
        log.clear()
        reads.clear()
        fam = exact_inv_kp(D, k, rng.choice((2, 3, 4)), rng.choice(("exact-size", "at-most")), 2)
        if fam is None:
            continue
        if len(reads) == len(fam.sets) and log.count("karc") == len(fam.sets) + 2:
            assert "lambda" not in log
            first += 1
        else:
            assert log.count("lambda") == 1
            later += 1
    assert first > 100 and later > 15


def _split_with_sinks(rng, k, half, sinks):
    """Two dense halves of half vertices each, joined by 2k - 1 arcs, so
    lambda(UG) = 2k - 1, with sinks vertices (no two adjacent) turned
    into sinks by reversing their out-arcs, which keeps UG."""
    n = 2 * half
    chosen = set(rng.sample(range(half), sinks // 2))
    chosen.update(rng.sample(range(half, n), sinks - sinks // 2))
    arcs = []
    for base in (0, half):
        for u, v in combinations(range(base, base + half), 2):
            if u in chosen and v in chosen:
                continue
            for t, h in ((u, v), (v, u)):
                arcs.append((h, t) if t in chosen else (t, h))
    plain = [v for v in range(n) if v not in chosen]
    for _ in range(2 * k - 1):
        u = rng.choice([v for v in plain if v < half])
        v = rng.choice([v for v in plain if v >= half])
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return MultiDigraph(n, arcs)


def test_exact_inv_kp_gives_up_after_one_descent_below_2k(monkeypatch):
    # lambda(UG(D)) < 2k rules out every family; it is asked for at the
    # first failed child, so at most one descent of l_max + 1 nodes runs
    # before it and nothing but lambda requests after it.  The check
    # below memoises D's lambda, so the requests are logged where
    # exact_inv_kp makes them; the kernel never runs again
    log = _logging_kernels(monkeypatch)
    request = oracles.edge_connectivity

    def requested(G):
        log.append("request")
        return request(G)

    monkeypatch.setattr(oracles, "edge_connectivity", requested)
    rng = random.Random(324)
    l_max = 3
    asked = 0
    for _ in range(30):
        k = rng.choice((1, 2))
        D = _split_with_sinks(rng, k, 6, rng.randint(4, 7))
        assert edge_connectivity(D.underlying()) == 2 * k - 1
        for p in (2, 3, 4, 7):
            for mode in ("exact-size", "at-most"):
                log.clear()
                assert exact_inv_kp(D, k, p, mode=mode, l_max=l_max) is None
                karc = log.count("karc")
                assert karc <= l_max + 1 and set(log[karc:]) <= {"request"}
                asked += len(log) - karc
    assert asked > 100


def _degree_bounded_three_uniform(rng, m):
    """3m vertices, every vertex in one base triple, extra triples raise
    some degrees to 2."""
    n = 3 * m
    verts = list(range(n))
    rng.shuffle(verts)
    edges = [frozenset(verts[3 * i : 3 * i + 3]) for i in range(m)]
    degree = {v: 1 for v in range(n)}
    for _ in range(rng.randint(0, m)):
        pool = [v for v in range(n) if degree[v] < 2]
        if len(pool) < 3:
            break
        e = frozenset(rng.sample(pool, 3))
        if e in edges:
            continue
        edges.append(e)
        for v in e:
            degree[v] += 1
    return Hypergraph(n, edges)


def test_degree_two_hypergraphs_have_large_matchings():
    # 3-uniform, every vertex in 1 or 2 hyperedges: matching >= n / 9
    rng = random.Random(307)
    for _ in range(60):
        H = _degree_bounded_three_uniform(rng, rng.randint(1, 4))
        size, _w = max_hypergraph_matching(H)
        assert 9 * size >= H.n


def _plain_degree_needs(n, k, caps, simple, _span, _rank):
    """The coset search's degree needs without the parity bound: k
    minus the fixed digon degree, for every vertex."""
    out_need = [max(0, k - sum(caps[v * n:v * n + n])) for v in range(n)]
    in_need = [max(0, k - sum(caps[v::n])) for v in range(n)]
    return out_need, in_need


def _tournament_with_digons(rng, n, share):
    """Random tournament on n vertices with about share of its arcs
    doubled into digons."""
    T = rand_digraph(rng, n_max=n, n_min=n, density=1.0, oriented=True)
    arcs = [(t, h) for t, h, _m in T.arcs()]
    return MultiDigraph(n, arcs + [(h, t) for t, h in arcs if rng.random() < share])


def _broken_at_a_vertex(rng, D):
    """D with a random vertex turned into a source of its simple arcs."""
    v = rng.randrange(D.n)
    into_v = [u for u in range(D.n) if D.has_arc(u, v)]
    return apply_inversions(D, [[v, *into_v]]) if into_v else D


def test_parity_needs_keep_every_answer(monkeypatch):
    # the parity-raised degree needs cut only subtrees without a
    # k-arc-strong leaf, so the search returns the very same family as
    # with the plain needs, and agrees with the BFS oracle
    original = parity._degree_needs
    raised = []

    def recorded(*args):
        needs = original(*args)
        raised.append(needs != _plain_degree_needs(*args))
        return needs

    monkeypatch.setattr(parity, "_degree_needs", recorded)
    rng = random.Random(312)
    bfs_checked = 0
    for _ in range(400):
        k = rng.choice((1, 2))
        n = rng.randint(2 * k + 1, 9)
        if rng.random() < 0.5:
            # a tournament (odd sets span an even number of arcs at each
            # vertex) with a few digons
            D = _tournament_with_digons(rng, n, 0.1)
        else:
            D = rand_2kec_digraph(rng, k, n)
        D = _broken_at_a_vertex(rng, D)
        p = rng.randint(2, min(5, n))
        mode = rng.choice(("exact-size", "at-most"))
        got = gf2_reachable(D, k, p, mode=mode)
        with monkeypatch.context() as m:
            m.setattr(parity, "_degree_needs", _plain_degree_needs)
            want = gf2_reachable(D, k, p, mode=mode)
        assert got == want
        if n <= 6:
            assert (got is not None) == orientation_bfs_reachable(D, k, p, mode=mode)
            bfs_checked += 1
    assert sum(raised) > 20 and bfs_checked > 50


def _nonzero_candidates(D, p, mode):
    """(set, flip indicator) of every candidate set in canonical order
    whose indicator is nonzero, with simple arc i as bit m - 1 - i."""
    simple = D.simple_arcs()
    m = len(simple)
    sizes = [p] if mode == "exact-size" else range(2, p + 1)
    cands = []
    for size in sizes:
        for xs in combinations(range(D.n), size):
            ind = sum(1 << (m - 1 - i) for i, (t, h) in enumerate(simple) if t in xs and h in xs)
            if ind:
                cands.append((xs, ind))
    return cands


def _least_strong_span_element(D, k, p, mode):
    """Reference for the coset search: scan x = 0, 1, 2, ... with simple
    arc i as bit m - 1 - i.  Returns the candidate sets that sum to the
    first x in their span whose orientation is k-arc-strong (None if no
    x is), and the dimension of the span."""
    simple = D.simple_arcs()
    m = len(simple)
    cands = _nonzero_candidates(D, p, mode)
    span = Gf2Basis()
    for c, (_xs, ind) in enumerate(cands):
        span.add(ind, 1 << c)
    digons = [(t, h) for t, h, _m in D.arcs() if D.has_arc(h, t)]
    for x in range(1 << m):
        combo = span.solve(x)
        if combo is None:
            continue
        arcs = [(h, t) if (x >> (m - 1 - i)) & 1 else (t, h) for i, (t, h) in enumerate(simple)]
        if is_k_arc_strong(MultiDigraph(D.n, digons + arcs), k):
            return [frozenset(cands[c][0]) for c in range(len(cands)) if (combo >> c) & 1], span.dim
    return None, span.dim


def test_coset_search_finds_the_least_strong_span_element():
    # free arcs try 0 then 1 and forced arcs take the only value in the
    # span, so the first leaf is the least k-arc-strong span element
    rng = random.Random(316)
    checked = forced = found = 0
    while checked < 300:
        k = rng.choice((1, 2))
        n = rng.randint(2 * k + 1, 6)
        if rng.random() < 0.5:
            D = _tournament_with_digons(rng, n, 0.2)
        else:
            D = rand_2kec_digraph(rng, k, n)
        D = _broken_at_a_vertex(rng, D)
        m = len(D.simple_arcs())
        if m > 12 or edge_connectivity(D.underlying()) < 2 * k:
            continue
        p = rng.randint(2, min(5, n))
        mode = rng.choice(("exact-size", "at-most"))
        want, dim = _least_strong_span_element(D, k, p, mode)
        for refute in (False, True):
            got = parity._gf2_search(D, k, p, mode, refute=refute)
            assert (None if got is None else list(got.sets)) == want
        checked += 1
        forced += dim < m
        found += want is not None
    assert forced >= 40 and found > 60


class _SpanBuilt(Exception):
    """Raised in place of the coset search's DFS once its span is built."""


def _span_of_the_search(monkeypatch, D, k, p, mode):
    """The Gf2Basis _gf2_search(D, k, p, mode) builds; the DFS is not
    run."""
    def stop(n, k, caps, simple, span, rank):
        raise _SpanBuilt(span)

    with monkeypatch.context() as m:
        m.setattr(parity, "_degree_needs", stop)
        with pytest.raises(_SpanBuilt) as built:
            parity._gf2_search(D, k, p, mode)
    return built.value.args[0]


def _span_of_every_candidate(D, p, mode):
    """The span of every candidate indicator, in canonical order, each
    set that enlarges it numbered by the next combo bit, as the coset
    search numbers them."""
    span = Gf2Basis()
    kept = 0
    for _xs, ind in _nonzero_candidates(D, p, mode):
        if span.add(ind, 1 << kept):
            kept += 1
    return span


def test_span_stops_at_full_rank_with_the_rows_of_the_whole_span(monkeypatch):
    # once the span has full rank no later candidate enlarges it, so the
    # rows and pivots the search builds are those of every candidate
    rng = random.Random(317)
    checked = full = 0
    while checked < 120:
        k = rng.choice((1, 2))
        n = rng.randint(max(5, 2 * k + 1), 12)
        if rng.random() < 0.5:
            D = _tournament_with_digons(rng, n, 0.15)
        else:
            D = rand_2kec_digraph(rng, k, n)
        D = _broken_at_a_vertex(rng, D)
        if is_k_arc_strong(D, k) or not D.simple_arcs():
            continue
        p = rng.randint(2, min(5, n))
        mode = rng.choice(("exact-size", "at-most"))
        got = _span_of_the_search(monkeypatch, D, k, p, mode)
        want = _span_of_every_candidate(D, p, mode)
        assert got.rows == want.rows and got._pivot == want._pivot
        checked += 1
        full += want.dim == len(D.simple_arcs())
    assert 20 <= full <= checked - 20


def test_span_stop_skips_most_candidates(monkeypatch):
    # a k = 1 cycle union reaches full rank after a few dozen of its
    # about 1,500 nonzero triples
    rng = random.Random(318)
    n = 24
    order = rng.sample(range(n), n)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    while len(arcs) < 2 * n:
        u, v = rng.sample(range(n), 2)
        if (v, u) not in arcs:
            arcs.add((u, v))
    D = _broken_at_a_vertex(rng, MultiDigraph(n, sorted(arcs)))
    assert not is_k_arc_strong(D, 1)
    nonzero = sum(
        1 for xs in combinations(range(n), 3) if any(D.has_arc(a, b) for a in xs for b in xs)
    )
    calls = []
    original = Gf2Basis.add

    def counted(self, vec, combo):
        calls.append(vec)
        return original(self, vec, combo)

    monkeypatch.setattr(Gf2Basis, "add", counted)
    fam = parity._gf2_search(D, 1, 3, "exact-size")
    assert fam is not None and is_k_arc_strong(apply_inversions(D, fam), 1)
    assert 3 * len(calls) < nonzero


def _orthogonal_scan_needs(n, k, caps, simple, span):
    """_degree_needs with the orthogonality test run against every span
    row, whatever the span's rank."""
    m = len(simple)
    out_need, in_need = [0] * n, [0] * n
    for v in range(n):
        out_have = sum(caps[v * n:v * n + n])
        in_have = sum(caps[v::n])
        star = sum(1 << (m - 1 - i) for i, arc in enumerate(simple) if v in arc)
        out_want = in_want = k
        if all(bin(star & row).count("1") % 2 == 0 for row, _c in span.rows):
            out_want += (out_have + sum(t == v for t, _h in simple) - k) % 2
            in_want += (in_have + sum(h == v for _t, h in simple) - k) % 2
        out_need[v] = max(0, out_want - out_have)
        in_need[v] = max(0, in_want - in_have)
    return out_need, in_need


def test_degree_needs_at_full_rank_match_the_orthogonality_scan():
    rng = random.Random(319)
    seen = {True: 0, False: 0}
    bare = 0
    for _ in range(300):
        n = rng.randint(3, 9)
        k = rng.choice((1, 2))
        # vertices outside `touched` get no simple arc
        touched = rng.sample(range(n), rng.randint(2, n))
        simple, caps = [], [0] * (n * n)
        for a, b in combinations(range(n), 2):
            if a in touched and b in touched and rng.random() < 0.6:
                simple.append((a, b) if rng.random() < 0.5 else (b, a))
            elif rng.random() < 0.3:
                caps[a * n + b] = caps[b * n + a] = 1  # a digon
        m = len(simple)
        if not m:
            continue
        span = Gf2Basis()
        if rng.random() < 0.5:
            # full rank: random vectors, then the unit vectors in turn
            for vec in [rng.getrandbits(m) for _ in range(m)] + [1 << i for i in range(m)]:
                span.add(vec, 0)
        else:
            for _ in range(rng.randint(0, m - 1)):
                span.add(rng.getrandbits(m), 0)
        full = span.dim == m
        assert parity._degree_needs(n, k, caps, simple, span, m) == _orthogonal_scan_needs(
            n, k, caps, simple, span
        )
        seen[full] += 1
        bare += len({v for arc in simple for v in arc}) < n
    assert min(seen.values()) >= 100 and bare >= 100


def _free_pair_rank(D, p):
    """m - c(Q) + 1 for p = 3 mod 4 and m - c(Q) + [Q has an odd cycle]
    for p = 1 mod 4, where Q is the graph of free pairs of D (vertex
    pairs without a simple arc), by a breadth-first 2-colouring."""
    n = D.n
    free = [(a, b) for a, b in combinations(range(n), 2) if D.has_arc(a, b) == D.has_arc(b, a)]
    colour = {}
    parts = 0
    odd = False
    for s in range(n):
        if s in colour:
            continue
        parts += 1
        colour[s] = 0
        queue = [s]
        for u in queue:
            for a, b in free:
                if u in (a, b):
                    v = b if u == a else a
                    if v not in colour:
                        colour[v] = 1 - colour[u]
                        queue.append(v)
                    odd = odd or colour[v] == colour[u]
    return len(D.simple_arcs()) - parts + (1 if p % 4 == 3 else odd)


def _digon_caps(D):
    """The capacity matrix of D's digon arcs alone."""
    n = D.n
    caps = [0] * (n * n)
    for t, h, mm in D.arcs():
        if D.has_arc(h, t):
            caps[t * n + h] = mm
    return caps


def test_span_stops_at_its_cycle_rank_with_the_rows_of_the_whole_span(monkeypatch):
    # exact-size odd p: the span lies in the projection of the cycle
    # space (its even part for p = 1 mod 4), whose rank the free pairs
    # give; from n = p + 2 (any n for p = 3) the span reaches it, so
    # stopping there keeps the rows and pivots of every candidate, and a
    # vertex keeps its degree parity iff it has no simple arc or no free
    # pair
    rng = random.Random(320)
    checked = applied = short = local = 0
    vertices = 0
    while checked < 320:
        p = rng.choice((3, 5, 5, 7))
        n = rng.randint(p, p + 6)
        if rng.random() < 0.4:
            D = _tournament_with_digons(rng, n, rng.choice((0.0, 0.15)))
        else:
            D = rand_digraph(rng, n_max=n, n_min=n, density=rng.uniform(0.3, 0.95))
        D = _broken_at_a_vertex(rng, D)
        simple = D.simple_arcs()
        if is_k_arc_strong(D, 1) or not simple:
            continue
        checked += 1
        # even p and at-most mode keep the full-rank stop
        assert parity._cycle_rank(n, rng.choice((2, 4, 6)), "exact-size", simple) is None
        assert parity._cycle_rank(n, p, "at-most", simple) is None
        got = _span_of_the_search(monkeypatch, D, 1, p, "exact-size")
        want = _span_of_every_candidate(D, p, "exact-size")
        assert got.rows == want.rows and got._pivot == want._pivot
        rank = _free_pair_rank(D, p)
        assert want.dim <= rank
        if p > 3 and n < p + 2:
            assert parity._cycle_rank(n, p, "exact-size", simple) is None
            short += want.dim < rank
            continue
        assert parity._cycle_rank(n, p, "exact-size", simple) == rank == want.dim
        applied += 1
        local += rank < len(simple)
        caps = _digon_caps(D)
        for k in (1, 2):
            assert parity._degree_needs(n, k, caps, simple, got, rank) == _orthogonal_scan_needs(
                n, k, caps, simple, got
            )
        vertices += n
    assert applied >= 200 and local >= 150 and short >= 50 and vertices >= 1500


def test_cycle_rank_stop_skips_most_candidates_of_a_tournament(monkeypatch):
    # a tournament has no free pair, so its triple span stops at rank
    # m - n + 1 after a small share of its C(n, 3) candidates
    rng = random.Random(321)
    n = 24
    D = _broken_at_a_vertex(rng, _tournament_with_digons(rng, n, 0.0))
    assert not is_k_arc_strong(D, 1)
    calls = []
    original = Gf2Basis.add

    def counted(self, vec, combo):
        calls.append(vec)
        return original(self, vec, combo)

    monkeypatch.setattr(Gf2Basis, "add", counted)
    fam = parity._gf2_search(D, 1, 3, "exact-size")
    assert fam is not None and is_k_arc_strong(apply_inversions(D, fam), 1)
    m = len(D.simple_arcs())
    assert m == n * (n - 1) // 2
    assert m - n + 1 <= len(calls) and 3 * len(calls) < len(list(combinations(range(n), 3)))


class _Refuted(Exception):
    """Raised by the eager reference search when the refutation holds."""


def _eager_search(monkeypatch, D, k, p, mode, refute):
    """The coset search with the forced-parity refutation run before the
    DFS, as the search ran it before the deferral, and with the k = 1
    prune's test patched to keep every placement."""
    needs = parity._degree_needs

    def refuting_needs(n, k, caps, simple, span, rank):
        if refute and n <= 16 and parity._forced_parity_refuted(D, k, simple, span):
            raise _Refuted
        return needs(n, k, caps, simple, span, rank)

    def placing(self, i, t, h):
        self.tail[i] = t
        return True

    with monkeypatch.context() as m:
        m.setattr(parity, "_degree_needs", refuting_needs)
        m.setattr(parity._MixedReach, "keeps", placing)
        try:
            return parity._gf2_search(D, k, p, mode)
        except _Refuted:
            return None


def _descends_straight(D, k, p, mode):
    """Whether the coset search's first descent ends at a k-arc-strong
    leaf: arc after arc it takes the first flip the DFS tries (0, then
    1, on a free arc; the flip x fixes on a forced one) that leaves both
    ends able to meet their degree needs, and it never finds none."""
    n = D.n
    simple = D.simple_arcs()
    m = len(simple)
    span = _span_of_every_candidate(D, p, mode)
    caps = _digon_caps(D)
    out_need, in_need = parity._degree_needs(n, k, caps, simple, span, m)
    remaining = [sum(v in arc for arc in simple) for v in range(n)]
    x = 0
    for i, (t0, h0) in enumerate(simple):
        at = m - 1 - i
        remaining[t0] -= 1
        remaining[h0] -= 1
        for b in (0, 1) if at in span._pivot else ((x >> at) & 1,):
            t, h = (h0, t0) if b else (t0, h0)
            out = out_need[t] - (out_need[t] > 0)
            inn = in_need[h] - (in_need[h] > 0)
            if out <= remaining[t] and inn <= remaining[h] and (
                in_need[t] <= remaining[t] and out_need[h] <= remaining[h]
            ):
                break
        else:
            return False
        out_need[t], in_need[h] = out, inn
        caps[t * n + h] += 1
        if (x >> at) & 1 != b:
            x ^= span._pivot[at][0]
    return _kernels.karc_deficient_cut(n, caps, k) == -1


def _cycles_with_chords(rng, k, n):
    """2k Hamilton cycles with their arcs turned at random, and up to
    n / 2 random chords: sparse, so that the coset search backtracks
    more often than on dense samples."""
    arcs = set()
    for _ in range(2 * k):
        order = rng.sample(range(n), n)
        for a, b in zip(order, order[1:] + order[:1]):
            arcs.add((a, b) if rng.random() < 0.5 else (b, a))
    for _ in range(rng.randint(0, n // 2)):
        arcs.add(tuple(rng.sample(range(n), 2)))
    return MultiDigraph(n, sorted(arcs))


def test_deferred_refutation_and_prune_keep_every_family(monkeypatch):
    # the refutation from the first backtrack on, and the k = 1 prune,
    # cut only subtrees without a k-arc-strong leaf: the search returns
    # the family of the eager search without the prune, and of the scan
    # over the span; a straight descent pays for neither, a search that
    # backtracks for each at most once
    built, refuted, cut = [], [], []
    refutation = parity._forced_parity_refuted

    class CountedReach(parity._MixedReach):
        def __init__(self, D, simple):
            built.append(D)
            super().__init__(D, simple)

        def keeps(self, i, t, h):
            kept = super().keeps(i, t, h)
            cut.extend(() if kept else (i,))
            return kept

    def counted_refutation(*args):
        refuted.append(refutation(*args))
        return refuted[-1]

    rng = random.Random(322)
    checked = straight = backtracked = scanned = pruned = cutting = 0
    while checked < 400:
        k = rng.choice((1, 1, 2))
        n = rng.randint(2 * k + 1, 9)
        draw = rng.random()
        if draw < 0.35:
            D = _broken_at_a_vertex(rng, _tournament_with_digons(rng, n, rng.choice((0.0, 0.2))))
        elif draw < 0.6:
            D = _broken_at_a_vertex(rng, rand_2kec_digraph(rng, k, n))
        else:
            D = _cycles_with_chords(rng, k, n)
        if is_k_arc_strong(D, k) or edge_connectivity(D.underlying()) < 2 * k:
            continue
        p = rng.randint(2, min(5, n))
        mode = rng.choice(("exact-size", "at-most"))
        refute = rng.random() < 0.5
        want = _eager_search(monkeypatch, D, k, p, mode, refute)
        del built[:], refuted[:], cut[:]
        with monkeypatch.context() as m:
            m.setattr(parity, "_MixedReach", CountedReach)
            m.setattr(parity, "_forced_parity_refuted", counted_refutation)
            got = parity._gf2_search(D, k, p, mode, refute=refute)
        assert got == want
        if len(D.simple_arcs()) <= 12:
            least, _dim = _least_strong_span_element(D, k, p, mode)
            assert (None if got is None else list(got.sets)) == least
            scanned += 1
        assert len(built) <= (k == 1) and len(refuted) <= refute
        if _descends_straight(D, k, p, mode):
            assert got is not None and not built and not refuted
            straight += 1
        else:
            backtracked += 1
            pruned += bool(built)
            cutting += bool(cut)
        checked += 1
    assert straight >= 200 and backtracked >= 60 and pruned >= 30 and cutting >= 10
    assert scanned >= 150


def test_cut_sizes_match_the_cut_scan():
    rng = random.Random(313)
    for _ in range(40):
        G = rand_multigraph(rng, n_max=9, n_min=1)
        cut = _cut_sizes(G)
        assert len(cut) == 1 << G.n
        for mask in range(1 << G.n):
            assert cut[mask] == G.cut_size([v for v in range(G.n) if (mask >> v) & 1])


def _unfiltered_orientation(G, k):
    """The orientation sampler without its degree filter: the first of
    400 seeded samples that passes the flow test, or None."""
    n = G.n
    caps = [0] * (n * n)
    free = []
    for u, v, mm in G.edges():
        pairs, odd = divmod(mm, 2)
        caps[u * n + v] += pairs
        caps[v * n + u] += pairs
        if odd:
            free.append((u, v))
    rng = random.Random(0xA5C1)
    for _ in range(400):
        bits = rng.getrandbits(len(free)) if free else 0
        trial = list(caps)
        for i, (u, v) in enumerate(free):
            if (bits >> i) & 1:
                trial[v * n + u] += 1
            else:
                trial[u * n + v] += 1
        if _kernels.karc_deficient_cut(n, trial, k) == -1:
            return MultiDigraph(n, [(t, h, trial[t * n + h]) for t in range(n) for h in range(n) if trial[t * n + h]])
    return None


def test_orientation_sampler_matches_the_unfiltered_sampler():
    rng = random.Random(314)
    compared = 0
    while compared < 60:
        k = rng.choice((1, 2))
        G = rand_multigraph(rng, n_max=10, n_min=4)
        lam = edge_connectivity(G)
        odd = [v for v in range(G.n) if sum(m % 2 for u, w, m in G.edges() if v in (u, w)) % 2]
        if lam < 2 * k or not odd:
            continue  # no orientation, or the Eulerian route
        want = _unfiltered_orientation(G, k)
        if want is None:
            continue  # the exhaustive DFS decides
        assert exists_k_arc_strong_orientation(G, k) == want
        compared += 1


def _checking_kernels(seen, per_set=0):
    """Kernel namespace whose karc_deficient_cut asserts that the search
    calling it could still mend every deficient vertex (one with fewer
    than k arcs out or in): none for the orientation sampler, at most
    per_set times the remaining budget for a branch-and-bound node."""

    def karc_deficient_cut(n, caps, k, after=None):
        deficient = sum(1 for v in range(n) if sum(caps[v * n:v * n + n]) < k or sum(caps[v::n]) < k)
        # the sets a branch-and-bound node may still add, 0 elsewhere
        budget = sys._getframe(1).f_locals.get("budget", 0)
        assert deficient <= per_set * budget, "flow on a digraph the degree bound rejects"
        seen.append(deficient)
        return _kernels.karc_deficient_cut(n, caps, k, after)

    return types.SimpleNamespace(
        karc_deficient_cut=karc_deficient_cut,
        st_max_flow=_kernels.st_max_flow,
        min_cut_value=_kernels.min_cut_value,
    )


def test_searches_run_no_flow_the_degree_bound_rejects(monkeypatch):
    # the orientation sampler rejects a sample with a vertex below k arcs
    # out or in, exact_inv_kp and the pair search a node with more such
    # vertices than its remaining sets can touch, before any flow
    rng = random.Random(315)
    sampled, exact, pairs = [], [], []
    monkeypatch.setattr(oracles, "_kernels", _checking_kernels(sampled))
    for _ in range(40):
        k = rng.choice((1, 2))
        G = rand_multigraph(rng, n_max=10, n_min=4)
        assert (exists_k_arc_strong_orientation(G, k) is None) == (edge_connectivity(G) < 2 * k)
    monkeypatch.setattr(oracles, "_kernels", _checking_kernels(exact, per_set=3))
    for _ in range(30):
        D = rand_digraph(rng, n_max=6, n_min=4)
        exact_inv_kp(D, 1, 3, mode=rng.choice(("exact-size", "at-most")), l_max=2)
    monkeypatch.setattr(approx, "_kernels", _checking_kernels(pairs, per_set=2))
    for _ in range(30):
        k = rng.choice((1, 2))
        D = rand_2kec_digraph(rng, k, rng.randint(2 * k + 1, 8))
        assert is_k_arc_strong(apply_inversions(D, approx.min_k2_inversion_set(D, k)), k)
    assert sampled and exact and pairs


def _orientation_through_the_constructor(G, D):
    """The orientation D of G rebuilt as the checking constructor built
    it: digon bundles first, then one arc per odd edge, turned round
    where D has it so."""
    arcs, free = [], []
    for u, v, mm in G.edges():
        pairs, odd = divmod(mm, 2)
        if pairs:
            arcs += [(u, v, pairs), (v, u, pairs)]
        if odd:
            free.append((v, u, 1) if D.mult(v, u) > pairs else (u, v, 1))
    return MultiDigraph(G.n, arcs + free)


def test_orientations_are_built_trusted_and_equal_the_checked_build(monkeypatch):
    built = []
    init = core._Graph.__init__

    def counted(self, *args):
        built.append(type(self))
        init(self, *args)

    rng = random.Random(316)
    found = 0
    for _ in range(120):
        k = rng.choice((1, 2))
        G = rand_multigraph(rng, n_max=9, n_min=1)
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(core._Graph, "__init__", counted)
            D = exists_k_arc_strong_orientation(G, k)
        assert MultiDigraph not in built
        if D is not None:
            ref = _orientation_through_the_constructor(G, D)
            assert D == ref and list(D._m.items()) == list(ref._m.items())
            found += 1
    assert found > 40
