import copy
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcinvert import _kernels, approx, core, oracles
from arcinvert.approx import (
    approx_kp,
    greedy_k2_inversion_set,
    min_k2_inversion_set,
    pack_independent_pairs,
)
from arcinvert.core import (
    INFINITY,
    InversionFamily,
    MultiDigraph,
    Multigraph,
    apply_inversions,
    dicut,
    edge_connectivity,
    emit_mdg,
    frames,
    is_k_arc_strong,
    parse_mdg,
    push,
    reverse,
    violating_dicut,
)
from arcinvert.errors import InvalidArgumentError, ParseError
from arcinvert.feasibility import is_kp_invertible
from arcinvert.obstruction import (
    ObstructionCertificate,
    doubled_clique_obstruction,
    k_regular_partition,
    star_matching_obstruction,
    verify_certificate,
)
from arcinvert.oracles import exists_k_arc_strong_orientation, max_p3_packing
from arcinvert.reductions import (
    gen_do_m22inv,
    gen_npsi_22,
    gen_p3p,
    gen_psi_ksi,
    minimal_pattern_source,
    rotative_tournament,
)

from conftest import rand_digraph, rand_family, rand_multidigraph, rand_multigraph
from test_kernels import _dense_global_min_cut


@st.composite
def multidigraphs(draw, n_max=7):
    n = draw(st.integers(min_value=2, max_value=n_max))
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    mults = draw(
        st.lists(st.integers(min_value=0, max_value=2), min_size=len(pairs), max_size=len(pairs))
    )
    return MultiDigraph(n, [(t, h, m) for (t, h), m in zip(pairs, mults) if m])


@st.composite
def graph_and_set(draw, n_max=7):
    D = draw(multidigraphs(n_max))
    size = draw(st.integers(min_value=2, max_value=D.n))
    X = draw(st.permutations(range(D.n)))[:size]
    return D, list(X)


@settings(max_examples=120, deadline=None)
@given(graph_and_set())
def test_inversion_is_an_involution(case):
    D, X = case
    assert apply_inversions(apply_inversions(D, [X]), [X]) == D


@settings(max_examples=120, deadline=None)
@given(graph_and_set(), graph_and_set())
def test_inversions_commute(case_a, case_b):
    D, X = case_a
    _D2, Y_raw = case_b
    Y = [v % D.n for v in Y_raw]
    if len(set(Y)) < 2:
        Y = list(range(2))
    one = apply_inversions(D, [X, Y])
    other = apply_inversions(D, [Y, X])
    assert one == other


@settings(max_examples=120, deadline=None)
@given(graph_and_set())
def test_digons_survive_any_inversion(case):
    D, X = case
    out = apply_inversions(D, [X])
    assert list(out.digon_pairs()) == list(D.digon_pairs())


def test_inversion_flips_exactly_the_inside_arcs():
    D = MultiDigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    out = apply_inversions(D, [[0, 1, 2]])
    assert sorted(out.arcs()) == sorted([(1, 0, 1), (2, 1, 1), (2, 3, 1), (3, 0, 1)])


def test_family_rejects_tiny_sets():
    with pytest.raises(InvalidArgumentError):
        InversionFamily([[3]])


def test_family_lines_round_trip():
    fam = InversionFamily([[0, 2, 5], [1, 3]])
    again = InversionFamily.from_lines(fam.to_lines())
    assert again.sets == fam.sets


def test_family_lines_reject_a_non_integer_vertex():
    with pytest.raises(InvalidArgumentError, match="inv: 0 x"):
        InversionFamily.from_lines(["inv: 0 1", "inv: 0 x"])


def test_symmetric_difference_cancels_duplicates():
    a = InversionFamily([[0, 1], [2, 3]])
    b = InversionFamily([[2, 3], [1, 4]])
    merged = InversionFamily.symmetric_difference(a, b)
    assert set(merged.sets) == {frozenset({0, 1}), frozenset({1, 4})}


def test_push_matches_complement_inversions():
    rng = random.Random(41)
    for _ in range(60):
        D = rand_digraph(rng, n_max=7, n_min=3)
        X = rng.sample(range(D.n), rng.randint(1, D.n - 1))
        pushed = push(D, X)
        fams = [[v for v in range(D.n) if v != x] for x in X]
        direct = apply_inversions(D, fams)
        if len(X) % 2 == 0:
            assert pushed == direct
        else:
            assert pushed == reverse(direct)


def test_push_twice_is_identity():
    rng = random.Random(42)
    for _ in range(40):
        D = rand_multidigraph(rng, n_max=7)
        X = rng.sample(range(D.n), rng.randint(1, D.n))
        assert push(push(D, X), X) == D


def _brute_lambda(G):
    if G.n <= 1:
        return INFINITY
    best = None
    for r in range(1, G.n):
        for side in combinations(range(1, G.n), r - 1):
            cut = G.cut_size({0, *side})
            best = cut if best is None or cut < best else best
    return best


def test_edge_connectivity_matches_brute_force():
    rng = random.Random(43)
    for _ in range(80):
        G = rand_multigraph(rng, n_max=7)
        assert edge_connectivity(G) == _brute_lambda(G)


def _brute_k_arc_strong(D, k):
    # sides containing 0 cover all cuts when both directions are checked
    for r in range(1, D.n):
        for side in combinations(range(1, D.n), r - 1):
            cut = dicut(D, {0, *side})
            if cut.out_size < k or cut.in_size < k:
                return False
    return True


def test_is_k_arc_strong_matches_brute_force():
    rng = random.Random(44)
    for _ in range(60):
        D = rand_multidigraph(rng, n_max=7)
        for k in (1, 2):
            assert is_k_arc_strong(D, k) == _brute_k_arc_strong(D, k)


def test_violating_dicut_reports_a_real_violation():
    rng = random.Random(45)
    seen = 0
    for _ in range(200):
        D = rand_multidigraph(rng, n_max=7)
        cut = violating_dicut(D, 2)
        if cut is None:
            assert is_k_arc_strong(D, 2)
            continue
        seen += 1
        recheck = dicut(D, cut.side)
        assert recheck.out_size == cut.out_size and cut.out_size < 2
    assert seen > 50


def brute_frames(G, k):
    """Maximal vertex sets whose induced subgraph is k-edge-connected
    (singletons count); checks they tile the vertex set."""
    good = []
    for size in range(1, G.n + 1):
        for cand in combinations(range(G.n), size):
            if size == 1:
                good.append(set(cand))
                continue
            sub, _ids = G.induced(set(cand))
            lam = edge_connectivity(sub)
            if lam != INFINITY and lam >= k:
                good.append(set(cand))
    maximal = [s for s in good if not any(s < t for t in good)]
    covered = sorted(v for s in maximal for v in s)
    assert covered == list(range(G.n)), "maximal blocks failed to partition"
    return {tuple(sorted(s)) for s in maximal}


def test_frames_match_brute_force_maximal_blocks():
    rng = random.Random(46)
    for _ in range(40):
        G = rand_multigraph(rng, n_max=6)
        for k in (1, 2, 3):
            part = frames(G, k)
            assert set(part.blocks) == brute_frames(G, k)
            for i, block in enumerate(part.blocks):
                assert all(part.block_index(v) == i for v in block)
            with pytest.raises(InvalidArgumentError, match="not in any block"):
                part.block_index(G.n)


def test_frames_of_empty_and_single_vertex_graphs_match_the_oracle():
    for n in (0, 1):
        for k in (1, 2, 3):
            part = frames(Multigraph(n), k)
            assert list(part.blocks) == oracles.brute_frames(Multigraph(n), k)
            assert part.contracted == Multigraph(n)


def _min_cut_frames(G, k):
    """Reference recursion: split a piece along a minimum cut of its
    induced subgraph, from the dense flow reference, while that cut is
    below k."""
    blocks = []

    def split(ids):
        if len(ids) <= 1:
            blocks.append(tuple(ids))
            return
        sub, _ = G.induced(ids)
        value, mask = _dense_global_min_cut(sub.n, sub.caps_flat())
        if value >= k:
            blocks.append(tuple(ids))
            return
        split([ids[i] for i in range(len(ids)) if (mask >> i) & 1])
        split([ids[i] for i in range(len(ids)) if not (mask >> i) & 1])

    split(list(range(G.n)))
    return sorted(blocks)


def test_frames_match_the_min_cut_recursion_past_brute_force():
    # brute_frames stops at n = 10; sparse graphs give many frames
    rng = random.Random(49)
    for _ in range(24):
        G = rand_multigraph(rng, n_min=11, n_max=40, density=rng.choice((0.08, 0.15, 0.3)))
        for k in (1, 2, 3, 4):
            part = frames(G, k)
            assert list(part.blocks) == _min_cut_frames(G, k)
            assert part.contracted.n == len(part.blocks)


def test_mdg_round_trip():
    rng = random.Random(47)
    for _ in range(50):
        D = rand_multidigraph(rng, n_max=9, mult_max=3)
        assert parse_mdg(emit_mdg(D)) == D


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_mdg("mdg 3\na 0 1\na 0 nine\n")
    assert exc.value.line_no == 3
    with pytest.raises(ParseError) as exc:
        parse_mdg("not a header\n")
    assert exc.value.line_no == 1


def test_parse_rejects_out_of_range_vertices():
    with pytest.raises(ParseError):
        parse_mdg("mdg 2\na 0 5\n")


def test_reverse_is_involution_and_flips_cuts():
    rng = random.Random(48)
    for _ in range(30):
        D = rand_multidigraph(rng, n_max=7)
        R = reverse(D)
        assert reverse(R) == D
        side = set(rng.sample(range(D.n), rng.randint(1, D.n - 1)))
        assert dicut(D, side).out_size == dicut(R, side).in_size


@settings(max_examples=120, deadline=None)
@given(multidigraphs())
def test_underlying_matches_the_checked_construction(D):
    # underlying() builds its edge dict without the per-edge checks of
    # Multigraph(); keys, their order, multiplicities and hash match
    G = D.underlying()
    ref = Multigraph(D.n, [(min(t, h), max(t, h), m) for (t, h), m in D._m.items()])
    assert list(G._m.items()) == list(ref._m.items())
    assert G == ref and hash(G) == hash(ref)
    # a digraph on the same pairs is another value, in both orders
    twin = MultiDigraph(D.n, list(G.edges()))
    assert twin._m == G._m and G != twin and twin != G
    with pytest.raises(AttributeError, match="^Multigraph is immutable$"):
        G.n = 0


def test_apply_inversions_checks_each_inverted_vertex_once(monkeypatch):
    # the result is built from its arc dict without the per-arc checks
    # of MultiDigraph(): only the vertices of the family are checked
    calls = []
    check = core._check_vertex
    monkeypatch.setattr(core, "_check_vertex", lambda *a: calls.append(a) or check(*a))
    rng = random.Random(49)
    for _ in range(30):
        D = rand_multidigraph(rng, n_max=7)
        family = rand_family(rng, D.n)
        del calls[:]
        F = apply_inversions(D, family)
        assert len(calls) == sum(len(set(X)) for X in family)
        ref = MultiDigraph(D.n, [(t, h, m) for (t, h), m in F._m.items()])
        assert list(F._m.items()) == list(ref._m.items())
        assert F == ref and hash(F) == hash(ref)
        R = reverse(D)
        assert list(R._m.items()) == [((h, t), m) for (t, h), m in D._m.items()]
    with pytest.raises(AttributeError, match="^MultiDigraph is immutable$"):
        F.n = 0


def test_max_flow_matches_the_brute_force_min_cut():
    # max flow = min cut: the fewest arcs (edges) leaving a set that
    # holds s and not t
    rng = random.Random(50)
    for _ in range(40):
        D = rand_multidigraph(rng, n_max=7)
        G = D.underlying()
        s, t = rng.sample(range(D.n), 2)
        rest = [v for v in range(D.n) if v not in (s, t)]
        sides = [{s, *c} for r in range(len(rest) + 1) for c in combinations(rest, r)]
        assert core.max_flow(D, s, t) == min(dicut(D, S).out_size for S in sides)
        cut = core.min_cut(D, s, t)
        assert s in cut.side and t not in cut.side
        assert cut.out_size == core.max_flow(D, s, t)
        assert core.max_flow(G, s, t) == min(G.cut_size(S) for S in sides)
    with pytest.raises(InvalidArgumentError):
        core.max_flow(D, 0, 0)


def test_induced_keeps_the_arcs_inside_and_renumbers_by_rank():
    rng = random.Random(51)
    for _ in range(30):
        D = rand_multidigraph(rng, n_max=8, n_min=3)
        keep = rng.sample(range(D.n), rng.randint(1, D.n))
        sub, ids = D.induced(keep)
        assert ids == sorted(keep) and sub.n == len(ids)
        assert sorted((ids[t], ids[h], m) for t, h, m in sub.arcs()) == sorted(
            (t, h, m) for t, h, m in D.arcs() if t in keep and h in keep
        )
    with pytest.raises(InvalidArgumentError):
        D.induced([0, D.n])


def test_push_and_induced_match_the_checked_construction(monkeypatch):
    # push() and both induced() build their results from arc dicts
    # without the per-arc checks of the constructors: only the caller's
    # vertices are checked
    calls = []
    check = core._check_vertex
    monkeypatch.setattr(core, "_check_vertex", lambda *a: calls.append(a) or check(*a))
    rng = random.Random(52)
    for _ in range(40):
        D = rand_multidigraph(rng, n_max=8)
        X = rng.sample(range(D.n), rng.randint(1, D.n))
        del calls[:]
        P = push(D, X)
        assert len(calls) == len(X)
        ref = MultiDigraph(
            D.n, [(h, t, m) if (t in X) != (h in X) else (t, h, m) for (t, h), m in D._m.items()]
        )
        assert list(P._m.items()) == list(ref._m.items())
        assert P == ref and hash(P) == hash(ref)
        keep = rng.sample(range(D.n), rng.randint(1, D.n))
        for graph in (D, D.underlying()):
            del calls[:]
            sub, ids = graph.induced(keep)
            assert len(calls) == len(keep)
            pos = {v: i for i, v in enumerate(ids)}
            edges = [(pos[a], pos[b], m) for (a, b), m in graph._m.items() if a in pos and b in pos]
            ref = type(graph)(len(ids), edges)
            assert type(sub) is type(graph)
            assert list(sub._m.items()) == list(ref._m.items())
            assert sub == ref and hash(sub) == hash(ref)
    with pytest.raises(InvalidArgumentError):
        push(D, [0, D.n])
    with pytest.raises(InvalidArgumentError):
        D.underlying().induced([0, D.n])


def test_underlying_and_lambda_are_computed_once_per_graph(monkeypatch):
    calls = []
    cut_value = _kernels.min_cut_value
    monkeypatch.setattr(_kernels, "min_cut_value", lambda *a: calls.append(a[0]) or cut_value(*a))
    rng = random.Random(53)
    for _ in range(30):
        D = rand_multidigraph(rng, n_max=8)
        G = D.underlying()
        assert D.underlying() is G
        del calls[:]
        lam = edge_connectivity(G)
        assert edge_connectivity(D.underlying()) == lam and calls == [D.n]
        # inversions keep UG(D), yet each result is a new digraph whose
        # memo starts empty
        F = apply_inversions(D, rand_family(rng, D.n))
        assert F._ug is None
        assert F.underlying() == G and F.underlying() is not G
        assert edge_connectivity(F.underlying()) == lam and calls == [D.n, D.n]


@pytest.mark.parametrize(
    "route",
    [lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_value_classes_survive_pickle_and_copy(route):
    rng = random.Random(54)
    for _ in range(10):
        D = rand_multidigraph(rng, n_max=7)
        G = D.underlying()
        lam = edge_connectivity(G)
        fam = InversionFamily(rand_family(rng, D.n))
        for obj in (D, G, fam):
            # rebuilt by the checking constructor, memo slots empty
            assert obj.__reduce__()[0] is type(obj)
            twin = route(obj)
            assert twin == obj and hash(twin) == hash(obj)
        D2, G2 = route(D), route(G)
        assert D2._ug is None and G2._lam is None
        assert D2.underlying() == G and edge_connectivity(D2.underlying()) == lam
        assert edge_connectivity(G2) == lam


def _matrix_of(D):
    n = D.n
    caps = [0] * (n * n)
    for t, h, m in D.arcs():
        caps[t * n + h] = m
    return caps


def test_capacity_matrix_and_degrees_are_fresh_copies_of_one_memo(monkeypatch):
    counted = []
    degrees = core._degrees
    monkeypatch.setattr(core, "_degrees", lambda *a: counted.append(a[0]) or degrees(*a))
    rng = random.Random(55)
    for _ in range(30):
        D = rand_multidigraph(rng, n_max=8)
        n = D.n
        want = _matrix_of(D)
        outs = [D.out_degree(v) for v in range(n)]
        ins = [D.in_degree(v) for v in range(n)]
        del counted[:]
        # a strongness check keeps the matrix it builds, and later
        # caps_flat() calls copy it
        assert D._caps is None
        is_k_arc_strong(D, 1)
        kept = D._caps
        assert list(kept) == want
        caps = D.caps_flat()
        assert caps == want and caps is not D.caps_flat()
        caps[1] += 5
        del caps[-1]
        assert D.caps_flat() == want
        out, into = D._degree_lists()
        assert (out, into) == (outs, ins)
        out[0] -= 1
        into.append(9)
        assert D._degree_lists() == (outs, ins)
        # one build each, whatever the callers did with their copies
        assert counted == [n]
        assert D._caps is kept and D._deg == (tuple(outs), tuple(ins))


def test_only_a_verification_that_hands_its_digraph_on_keeps_the_matrix():
    # caps_flat(keep=False) builds without keeping; _strong_after keeps
    # the applied digraph's matrix only for a caller that reads it again
    rng = random.Random(59)
    strong = 0
    for _ in range(60):
        D = rand_multidigraph(rng, n_max=7)
        want = _matrix_of(D)
        assert D.caps_flat(keep=False) == want and D._caps is None
        if not is_k_arc_strong(D, 1):
            continue
        assert D.caps_flat(keep=False) == want and list(D._caps) == want
        for keep in (False, True):
            applied = core._strong_after(D, [], 1, "test", keep=keep)
            assert applied == D and (applied._caps is not None) == keep
        strong += 1
    assert strong >= 10


def test_a_matrix_with_large_counts_is_kept_whole():
    # a byte holds a count up to 255; a pair with more arcs keeps the
    # matrix in a tuple
    for mult in (255, 256, 10**6):
        D = MultiDigraph(3, [(0, 1, mult), (1, 2), (2, 0, 3)])
        want = _matrix_of(D)
        assert D.caps_flat() == want and D.caps_flat() == want
        assert list(D._caps) == want and type(D._caps) is (bytes if mult < 256 else tuple)
        assert D._degree_lists() == ([mult, 1, 3], [3, mult, 1])


@pytest.mark.parametrize(
    "route",
    [
        lambda D: MultiDigraph._trusted(D.n, dict(D._m)),
        lambda D: D.induced(range(D.n))[0],
        lambda D: D.reverse().reverse(),
        lambda D: apply_inversions(D, []),
        lambda D: push(D, []),
        copy.copy,
        copy.deepcopy,
        lambda D: pickle.loads(pickle.dumps(D)),
    ],
    ids=["trusted", "induced", "reverse", "apply_inversions", "push", "copy", "deepcopy", "pickle"],
)
def test_new_digraphs_start_with_empty_memos(route):
    rng = random.Random(56)
    for _ in range(10):
        D = rand_multidigraph(rng, n_max=7)
        D.caps_flat()
        D._degree_lists()
        D.underlying()
        twin = route(D)
        assert twin == D and twin is not D
        assert twin._caps is None and twin._deg is None and twin._ug is None
        assert twin.caps_flat() == D.caps_flat() and twin._degree_lists() == D._degree_lists()


def test_equality_and_hashing_ignore_the_memos():
    rng = random.Random(57)
    for _ in range(20):
        D = rand_multidigraph(rng, n_max=7)
        twin = MultiDigraph(D.n, list(D.arcs()))
        D.caps_flat()
        D._degree_lists()
        assert D == twin and hash(D) == hash(twin)
        # even a memo that disagrees with the arcs is not part of the value
        object.__setattr__(twin, "_caps", (0,) * (D.n * D.n))
        object.__setattr__(twin, "_deg", ((0,) * D.n, (0,) * D.n))
        assert D == twin and hash(D) == hash(twin)


def test_verification_reads_only_the_applied_digraph():
    # _strong_after builds the applied digraph through apply_inversions
    # and asks about that digraph's own matrix: a wrong matrix and wrong
    # degrees in D's memo change none of its answers
    rng = random.Random(58)
    checked = 0
    for _ in range(200):
        D = rand_digraph(rng, n_max=7, n_min=4)
        fam = oracles.exact_inv_kp(D, 1, 3, mode="at-most", l_max=2)
        if fam is None or not fam.sets:
            continue
        wrong = [
            X for X in combinations(range(D.n), 2) if not is_k_arc_strong(apply_inversions(D, [X]), 1)
        ]
        if not wrong:
            continue
        n = D.n
        # no swap of counts makes the empty matrix k-arc-strong, and every
        # swap leaves the complete one with digons of two arcs each so
        empty = (0,) * (n * n)
        complete = tuple(0 if t == h else 2 for t in range(n) for h in range(n))
        for caps, deg in ((empty, 0), (complete, 2 * n - 2)):
            object.__setattr__(D, "_caps", caps)
            object.__setattr__(D, "_deg", ((deg,) * n, (deg,) * n))
            assert core._strong_after(D, fam, 1, "test") == apply_inversions(D, fam)
            with pytest.raises(RuntimeError):
                core._strong_after(D, [wrong[0]], 1, "test")
        checked += 1
    assert checked > 20


def _star_matching_verified(one):
    """verify_certificate on star_matching_obstruction(3) with vertex 1
    of its certificate written as one."""
    D, cert = star_matching_obstruction(3)
    parts = tuple(tuple(one if v == 1 else v for v in part) for part in cert.x_parts)
    return verify_certificate(D, ObstructionCertificate(k=cert.k, x_parts=parts, y=cert.y))


@pytest.mark.parametrize(
    "cls, n, pairs, message",
    [
        (MultiDigraph, 3, [(0,)], "arc must be (tail, head[, mult]), got (0,)"),
        (MultiDigraph, 3, [(0, 1, 1, 1)], "arc must be (tail, head[, mult]), got (0, 1, 1, 1)"),
        (MultiDigraph, 3, [(3, 0)], "tail id 3 out of range 0..2"),
        (MultiDigraph, 3, [(0, -1)], "head id -1 out of range 0..2"),
        (MultiDigraph, 3, [(1, 1)], "loop at vertex 1 not allowed"),
        (MultiDigraph, 3, [(0, 1, 0)], "multiplicity must be a positive int, got 0"),
        (MultiDigraph, 3, [(True, 2)], "tail id True out of range 0..2"),
        (MultiDigraph, 3, [(0, False)], "head id False out of range 0..2"),
        (MultiDigraph, 3, [(0, 1, True)], "multiplicity must be a positive int, got True"),
        (MultiDigraph, True, [], "vertex count must be a non-negative int, got True"),
        (MultiDigraph, -1, [], "vertex count must be a non-negative int, got -1"),
        (Multigraph, 3, [(0,)], "edge must be (u, v[, mult]), got (0,)"),
        (Multigraph, 3, [(0, 1, 2, 3)], "edge must be (u, v[, mult]), got (0, 1, 2, 3)"),
        (Multigraph, 3, [(5, 0)], "vertex id 5 out of range 0..2"),
        (Multigraph, 3, [(0, 3)], "vertex id 3 out of range 0..2"),
        (Multigraph, 3, [(2, 2)], "loop at vertex 2 not allowed"),
        (Multigraph, 3, [(0, 1, -2)], "multiplicity must be a positive int, got -2"),
        (Multigraph, 3, [(True, 2)], "vertex id True out of range 0..2"),
        (Multigraph, 3, [(0, 1, True)], "multiplicity must be a positive int, got True"),
        (Multigraph, True, [], "vertex count must be a non-negative int, got True"),
    ],
)
def test_constructors_reject_each_bad_input_with_its_message(cls, n, pairs, message):
    with pytest.raises(InvalidArgumentError) as exc:
        cls(n, pairs)
    assert str(exc.value) == message


def test_every_answer_goes_through_the_one_verification(monkeypatch):
    # with inversions that change nothing, every family a search or a
    # generator returns fails core._verified; D is 2-edge-connected and
    # not 1-arc-strong, and one inverted arc mends it
    D = MultiDigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    G = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    calls = [
        lambda: min_k2_inversion_set(D, 1),
        lambda: greedy_k2_inversion_set(D, 1),
        lambda: is_kp_invertible(D, 1, 3, witness=True),
        lambda: oracles.gf2_reachable(D, 1, 3),
        lambda: oracles.exact_inv_kp(D, 1, 3),
        lambda: gen_p3p(G, 1),
    ]
    with monkeypatch.context() as m:
        m.setattr(core, "apply_inversions", lambda D, family: D)
        for call in calls:
            with pytest.raises(RuntimeError, match="failed verification"):
                call()
    # approx_kp's own check on its output, after a pair stage that passed
    monkeypatch.setattr(approx, "pack_independent_pairs", lambda base, G, p: ([], []))
    with pytest.raises(RuntimeError, match="approximation output failed verification"):
        approx_kp(D, 1, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda one: MultiDigraph(one),
        lambda one: Multigraph(one),
        lambda one: MultiDigraph(2, [(0, 1, one)]),
        lambda one: Multigraph(2, [(0, 1, one)]),
        lambda one: oracles.Hypergraph(3, [(one, 2)]),
        _star_matching_verified,
        rotative_tournament,
        lambda one: doubled_clique_obstruction(one, 4),
    ],
    ids=[
        "digraph-n",
        "graph-n",
        "arc-mult",
        "edge-mult",
        "hyperedge-vertex",
        "certificate-vertex",
        "tournament-order",
        "doubled-clique-k",
    ],
)
def test_bool_is_rejected_where_an_int_is_expected(build):
    # True == 1, but a count, multiplicity or vertex id given as a bool
    # is rejected (raises, or fails verification) like k and p are
    assert build(1)
    try:
        accepted = build(True)
    except InvalidArgumentError:
        accepted = False
    assert accepted is False


_G, _PARTS, _H = minimal_pattern_source()


@pytest.mark.parametrize(
    "name, call, simple",
    [
        ("edge_connectivity", edge_connectivity, False),
        ("frames", lambda G: frames(G, 1), False),
        ("pack_independent_pairs", lambda G: pack_independent_pairs([], G, 3), False),
        ("k_regular_partition", lambda G: k_regular_partition(G, 1, [0]), False),
        ("exists_k_arc_strong_orientation", lambda G: exists_k_arc_strong_orientation(G, 1), False),
        ("max_p3_packing", max_p3_packing, True),
        ("gen_p3p", lambda G: gen_p3p(G, 1), False),
        ("gen_do_m22inv", lambda G: gen_do_m22inv(G, []), True),
        ("gen_psi_ksi", lambda G: gen_psi_ksi(G, _PARTS, _H, 2), True),
        ("gen_psi_ksi", lambda H: gen_psi_ksi(_G, _PARTS, H, 2), True),
        ("gen_npsi_22", lambda G: gen_npsi_22(G, _PARTS, _H), True),
        ("gen_npsi_22", lambda H: gen_npsi_22(_G, _PARTS, H), True),
    ],
    ids=[
        "edge_connectivity",
        "frames",
        "pack_independent_pairs",
        "k_regular_partition",
        "exists_k_arc_strong_orientation",
        "max_p3_packing",
        "gen_p3p",
        "gen_do_m22inv",
        "gen_psi_ksi-source",
        "gen_psi_ksi-pattern",
        "gen_npsi_22-source",
        "gen_npsi_22-pattern",
    ],
)
def test_every_multigraph_argument_is_checked_by_core(name, call, simple):
    # a digraph is no Multigraph; the simple-graph callers also refuse
    # parallel edges, with the messages core._check_multigraph gives
    cycle = [(v, (v + 1) % 4) for v in range(4)]
    with pytest.raises(InvalidArgumentError) as exc:
        call(MultiDigraph(4, cycle))
    assert str(exc.value) == f"{name} expects a Multigraph"
    if simple:
        with pytest.raises(InvalidArgumentError) as exc:
            call(Multigraph(4, cycle + [(0, 1)]))
        assert str(exc.value) == "parallel edges not allowed; a simple graph is required"



@pytest.mark.parametrize(
    "n, arcs, digraph, simple_ug",
    [
        (0, [], True, True),
        (3, [], True, True),
        (2, [(0, 1), (1, 0)], True, False),
        (3, [(0, 1), (1, 2), (2, 0, 2)], False, False),
        (3, [(0, 1, 256), (1, 2)], False, False),
        (3, [(0, 1), (1, 0, 10**6)], False, False),
    ],
    ids=["no-vertices", "no-arcs", "digon", "mult-2", "mult-256", "digon-mult-10**6"],
)
def test_simple_graph_checks_at_their_edge_cases(n, arcs, digraph, simple_ug):
    # a digon is two arcs, so a digraph, but its underlying multigraph
    # has a double edge; a pair with two or more arcs is no digraph,
    # however many arcs it has
    D = MultiDigraph(n, arcs)
    assert D.is_digraph() is digraph
    if digraph:
        core._check_digraph(D, "test", simple=True)
    else:
        with pytest.raises(InvalidArgumentError, match="parallel arcs"):
            core._check_digraph(D, "test", simple=True)
    for G in (D.underlying(), Multigraph(n, arcs)):
        core._check_multigraph(G, "test")
        if simple_ug:
            core._check_multigraph(G, "test", simple=True)
        else:
            with pytest.raises(InvalidArgumentError, match="parallel edges"):
                core._check_multigraph(G, "test", simple=True)
