import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcinvert import oracles
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
    Gf2Basis,
    Hypergraph,
    exact_inv_kp,
    exists_k_arc_strong_orientation,
    gf2_reachable,
    max_hypergraph_matching,
    max_p3_packing,
    orientation_bfs_reachable,
)

from conftest import rand_digraph, rand_multigraph


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
    # the public oracle refutes by forced-parity cuts for n <= 16, also
    # when the answer turns out to be "yes"
    from arcinvert.obstruction import star_matching_obstruction

    calls = []
    original = oracles._forced_parity_refuted

    def counted(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(oracles, "_forced_parity_refuted", counted)
    D, _cert = star_matching_obstruction(3)
    assert gf2_reachable(D, 1, 3, mode="exact-size") is None
    assert gf2_reachable(D, 1, 4, mode="exact-size") is not None
    assert calls == [True, False]


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
