import copy
import pickle
import random

import pytest

from arcinvert import _kernels, obstruction
from arcinvert.core import (
    MultiDigraph,
    Multigraph,
    apply_inversions,
    edge_connectivity,
    is_k_arc_strong,
    min_cut,
    push,
)
from arcinvert.errors import InvalidArgumentError, PreconditionViolatedError
from arcinvert.obstruction import (
    ObstructionCertificate,
    certificate_from_text,
    certificate_to_text,
    doubled_clique_obstruction,
    exhaustive_obstruction_search,
    extend_to_certificate,
    is_k_obstruction,
    k_regular_partition,
    star_matching_obstruction,
    verify_certificate,
)

from conftest import rand_2kec_digraph, rand_digraph


def test_star_matching_fixture_is_recognized():
    for m in (3, 4, 5):
        D, cert = star_matching_obstruction(m)
        assert D.n == 2 * m + 1
        assert verify_certificate(D, cert)
        found = is_k_obstruction(D, 1)
        assert found is not None and verify_certificate(D, found)
        assert not is_k_arc_strong(D, 1)


def test_doubled_clique_fixture_is_recognized():
    D, cert = doubled_clique_obstruction(2, 4)
    assert verify_certificate(D, cert)
    found = is_k_obstruction(D, 2)
    assert found is not None and verify_certificate(D, found)
    assert not is_k_arc_strong(D, 2)


def test_odd_inversions_preserve_the_certificate():
    rng = random.Random(201)
    D, cert = star_matching_obstruction(3)
    cur = D
    for _ in range(50):
        size = rng.choice([3, 5, 7])
        X = rng.sample(range(D.n), size)
        cur = apply_inversions(cur, [X])
        assert verify_certificate(cur, cert)
        assert not is_k_arc_strong(cur, 1)


def test_even_inversion_can_break_the_certificate():
    D, cert = star_matching_obstruction(3)
    rng = random.Random(202)
    broken = False
    for _ in range(200):
        X = rng.sample(range(D.n), rng.choice([2, 4]))
        if not verify_certificate(apply_inversions(D, [X]), cert):
            broken = True
            break
    assert broken


def test_random_digraphs_rarely_obstruct_and_match_exhaustive():
    rng = random.Random(203)
    checked = 0
    for _ in range(60):
        D = rand_digraph(rng, n_max=7, n_min=6)
        if D.n < 6:
            continue
        fast = is_k_obstruction(D, 1)
        slow = exhaustive_obstruction_search(D, 1)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert verify_certificate(D, fast) and verify_certificate(D, slow)
        checked += 1
    assert checked > 30


def test_is_k_obstruction_needs_enough_vertices():
    D = MultiDigraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(PreconditionViolatedError):
        is_k_obstruction(D, 1)


def test_is_k_obstruction_rejects_parallel_arcs():
    D = MultiDigraph(7, [(0, 1, 2), (1, 2), (2, 0)])
    with pytest.raises(InvalidArgumentError):
        is_k_obstruction(D, 1)


def test_k_regular_partition_on_a_cycle():
    D, _cert = star_matching_obstruction(3)
    G = D.underlying()
    X = list(range(6))  # everything except the hub
    parts = k_regular_partition(G, 2, X)
    assert parts is not None
    assert sorted(v for p in parts for v in p) == X
    for p in parts:
        assert G.cut_size(set(p)) == 2
    # nested sides merge into one part, the larger side found second or first
    for edges in (
        [(0, 1, 2), (1, 2), (1, 4), (2, 3), (3, 4), (2, 4)],
        [(0, 1, 2), (0, 2), (0, 4), (2, 3), (3, 4), (2, 4)],
    ):
        assert k_regular_partition(Multigraph(5, edges), 2, [0, 1]) == [(0, 1)]


def test_certificate_text_round_trip():
    _D, cert = doubled_clique_obstruction(1, 5)
    again = certificate_from_text(certificate_to_text(cert))
    assert again.k == cert.k
    assert again.x_parts == cert.x_parts
    assert again.y == cert.y


def test_certificate_text_rejects_non_integer_vertices():
    with pytest.raises(InvalidArgumentError):
        certificate_from_text("obstruction k=1\nY: x\nX1: 1 2")
    with pytest.raises(InvalidArgumentError):
        certificate_from_text("obstruction k=1\nY: 0\nX1: 1 b")


def test_verify_rejects_malformed_partitions():
    D, cert = star_matching_obstruction(3)
    bad = ObstructionCertificate(k=cert.k, x_parts=cert.x_parts[:-1], y=cert.y)
    assert not verify_certificate(D, bad)
    overlapping = ObstructionCertificate(
        k=cert.k, x_parts=cert.x_parts, y=cert.x_parts[0]
    )
    assert not verify_certificate(D, overlapping)


def test_verify_rejects_parts_that_are_not_iterable():
    # a malformed partition is a False, not a TypeError
    D, cert = star_matching_obstruction(3)
    for x_parts, y in (((1, 2), cert.y), (cert.x_parts, 5), (7, cert.y)):
        assert verify_certificate(D, ObstructionCertificate(k=cert.k, x_parts=x_parts, y=y)) is False


def _corrupted(cert, x_parts, y):
    return ObstructionCertificate(k=cert.k, x_parts=tuple(x_parts), y=tuple(y))


@pytest.mark.parametrize(
    "D, cert", [star_matching_obstruction(3), doubled_clique_obstruction(2, 4)]
)
def test_verify_rejects_each_broken_condition(D, cert):
    assert verify_certificate(D, cert)
    parts, y = list(cert.x_parts), cert.y
    first, second = parts[0], parts[1]
    rejected = {
        "empty part": _corrupted(cert, parts + [()], y),
        "repeated vertex": _corrupted(cert, [first + first[:1]] + parts[1:], y),
        # merging two parts doubles the cut, breaking (i)
        "cut not 2k": _corrupted(cert, [first + second] + parts[2:], y),
        # a part moved into Y keeps every cut at 2k, but its vertices
        # share no edge with the other parts, breaking (ii)
        "X-Y pair not joined once": _corrupted(cert, parts[1:], first + y),
    }
    for what, bad in rejected.items():
        assert verify_certificate(D, bad) is False, what


def test_verify_rejects_an_odd_cross_count():
    # vertex 0 moved from X into Y: the part {1} left behind still has
    # cut 2k = 4, and |X||Y| = 7 * 3 is odd; (ii) rejects it, since 0
    # and 1 are joined by a digon
    D, cert = doubled_clique_obstruction(2, 4)
    parts = [cert.x_parts[0][1:]] + list(cert.x_parts[1:])
    bad = _corrupted(cert, parts, cert.x_parts[0][:1] + cert.y)
    assert len(bad.x_union()) * len(bad.y) % 2 == 1
    assert D.underlying().cut_size(parts[0]) == 2 * cert.k
    assert verify_certificate(D, bad) is False


def test_is_k_obstruction_computes_connectivity_once(monkeypatch):
    calls = []
    original = obstruction.edge_connectivity

    def counted(G):
        calls.append(G.n)
        return original(G)

    monkeypatch.setattr(obstruction, "edge_connectivity", counted)
    rng = random.Random(406)
    for m in (3, 5, 8):
        D, _cert = star_matching_obstruction(m)
        calls.clear()
        assert is_k_obstruction(D, 1) is not None
        assert calls == [D.n]
    for n in (6, 9, 14):
        D = rand_2kec_digraph(rng, 1, n)
        calls.clear()
        is_k_obstruction(D, 1)
        assert calls == [n]


def test_extend_to_certificate_completes_the_hub_of_a_star_matching():
    for m in (3, 4):
        D, cert = star_matching_obstruction(m)
        found = extend_to_certificate(D, 1, {2 * m})
        # every pair vertex has degree 2, so the singletons are parts too
        assert found.y == cert.y and found.x_parts == tuple((v,) for v in range(2 * m))
        assert verify_certificate(D, found)
        # vertex 0 is joined to its partner and the hub only
        assert extend_to_certificate(D, 1, {0}) is None


def test_exhaustive_search_returns_a_verified_certificate():
    for D, k in (star_matching_obstruction(3)[0], 1), (doubled_clique_obstruction(1, 4)[0], 1):
        cert = exhaustive_obstruction_search(D, k)
        assert cert is not None and verify_certificate(D, cert)


def test_k_regular_partition_rejects_non_int_vertices():
    G = star_matching_obstruction(3)[0].underlying()
    for bad in (2.5, True, 7):
        with pytest.raises(InvalidArgumentError):
            k_regular_partition(G, 2, [0, bad])


def test_extend_to_certificate_rejects_non_int_vertices():
    D, _cert = star_matching_obstruction(3)
    for bad in (2.5, True, 7):
        with pytest.raises(InvalidArgumentError):
            extend_to_certificate(D, 1, {bad})


def _scan_every_singleton(D, k):
    """The obstruction scan with every singleton tried, in vertex order,
    and then the high-degree set."""
    G = D.underlying()
    degree = [sum(G.mult(u, v) for v in range(D.n) if v != u) for u in range(D.n)]
    candidates = [{v} for v in range(D.n)]
    high = {v for v in range(D.n) if degree[v] >= 2 * k + 1}
    if 2 <= len(high) < D.n:
        candidates.append(high)
    for y in candidates:
        cert = obstruction._extend(D, k, y)
        if cert is not None:
            return cert
    return None


def _relabelled(rng, D):
    perm = rng.sample(range(D.n), D.n)
    return MultiDigraph(D.n, [(perm[t], perm[h], m) for t, h, m in D.arcs()])


def _with_universal_vertices(rng, D, count):
    """D with `count` random vertices joined to every other vertex by
    exactly one arc, in a random direction."""
    arcs = {(t, h) for t, h, _m in D.arcs()}
    for u in rng.sample(range(D.n), count):
        for x in range(D.n):
            if x != u:
                arcs -= {(u, x), (x, u)}
                arcs.add((u, x) if rng.random() < 0.5 else (x, u))
    return MultiDigraph(D.n, sorted(arcs))


def test_obstruction_scan_tries_only_universal_singletons(monkeypatch):
    # a singleton {y} needs y joined to every other vertex by exactly
    # one edge, so degree n - 1; the scan finds the first certificate of
    # the scan over every singleton with one _extend per vertex of that
    # degree, plus one for the high-degree set
    rng = random.Random(407)
    cases = []
    for _ in range(12):
        cases.append((1, star_matching_obstruction(rng.randint(3, 9))[0]))
        k = rng.choice((1, 2))
        cases.append((k, doubled_clique_obstruction(k, rng.randint(4, 6))[0]))
    inputs = []
    for k, D in cases:
        # odd-size inversions keep the certificate; an extra digon arc
        # may break it
        D = apply_inversions(D, [rng.sample(range(D.n), 3) for _ in range(2)])
        if rng.random() < 0.5:
            t, h, _m = rng.choice(list(D.arcs()))
            if not D.has_arc(h, t):
                D = MultiDigraph(D.n, [a[:2] for a in D.arcs()] + [(h, t)])
        inputs.append((k, _relabelled(rng, D)))
    for _ in range(60):
        k = rng.choice((1, 2))
        n = rng.randint(max(7, 4 * k + 2), 20)
        D = _with_universal_vertices(rng, rand_2kec_digraph(rng, k, n), rng.randint(0, 2))
        if edge_connectivity(D.underlying()) >= 2 * k:
            inputs.append((k, D))
    original = obstruction._extend
    calls = []

    def counted(D, k, y_set):
        calls.append(y_set)
        return original(D, k, y_set)

    found = universal_seen = 0
    for k, D in inputs:
        want = _scan_every_singleton(D, k)
        G = D.underlying()
        universal = sum(
            sum(G.mult(u, v) for v in range(D.n) if v != u) == D.n - 1 for u in range(D.n)
        )
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(obstruction, "_extend", counted)
            got = obstruction._obstruction_scan(D, k)
        assert got == want
        assert len(calls) <= universal + 1
        found += got is not None
        universal_seen += universal > 0
    assert found >= 12 and universal_seen >= 40 and len(inputs) >= 70


def _ref_k_regular_partition(G, k, xs):
    """The partition built from one public min_cut per vertex of xs."""
    rest = [v for v in range(G.n) if v not in xs]
    Gc = G.contract([[x] for x in xs] + [rest])
    sides = []
    for i in range(len(xs)):
        cut = min_cut(Gc, i, len(xs))
        if cut.undirected_size > k:
            return None
        sides.append(frozenset(xs[j] for j in cut.side))
    merged = []
    for side in dict.fromkeys(sides):
        for other in [m for m in merged if m & side]:
            merged.remove(other)
            side |= other
        merged.append(side)
    return sorted((tuple(sorted(s)) for s in merged), key=lambda p: p[0])


def _blocks_multigraph(rng, k):
    """(G, blocks): blocks of 1 to 3 vertices, each a path of k-fold
    edges, and a hub cycle of 2 to 4 vertices; every block sends k
    edges, or sometimes more, to random vertices outside it."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
    hub = rng.randint(2, 4)
    n = sum(sizes) + hub
    perm = rng.sample(range(n), n)
    edges = []
    blocks = []
    start = hub
    for size in sizes:
        block = list(range(start, start + size))
        edges += [(v, v + 1, k) for v in block[:-1]]
        blocks.append(block)
        start += size
    edges += [(v, (v + 1) % hub, (k + 1) // 2) for v in range(hub)] if hub > 2 else [(0, 1, k)]
    for block in blocks:
        outside = [v for v in range(n) if v not in block]
        for _ in range(k + (rng.randint(1, 2) if rng.random() < 0.3 else 0)):
            edges.append((rng.choice(block), rng.choice(outside), 1))
    G = Multigraph(n, [(perm[u], perm[v], m) for u, v, m in edges])
    return G, [[perm[v] for v in block] for block in blocks]


def test_k_regular_partition_equals_one_min_cut_per_vertex(monkeypatch):
    # one capacity matrix per partition and at most one limited flow per
    # vertex of X give the partition of the min_cut per vertex
    rng = random.Random(410)
    outcomes = {"partition": 0, "none": 0}
    tested = 0
    while tested < 240:
        k = rng.choice((2, 4))
        G, blocks = _blocks_multigraph(rng, k)
        if edge_connectivity(G) < k:
            continue
        chosen = rng.sample(blocks, rng.randint(1, len(blocks)))
        xs = sorted(v for block in chosen for v in block)
        want = _ref_k_regular_partition(G, k, xs)
        assert k_regular_partition(G, k, xs) == want
        matrices, flows = [], []
        with monkeypatch.context() as m:
            caps_flat, st_max_flow = Multigraph.caps_flat, _kernels.st_max_flow
            m.setattr(Multigraph, "caps_flat", lambda H: matrices.append(H.n) or caps_flat(H))
            m.setattr(_kernels, "st_max_flow", lambda *a: flows.append(a[0]) or st_max_flow(*a))
            assert obstruction._k_regular_partition(G, k, xs) == want
        assert matrices == [len(xs) + 1] and 1 <= len(flows) <= len(xs)
        outcomes["none" if want is None else "partition"] += 1
        tested += 1
    assert min(outcomes.values()) >= 20


def test_verify_certificate_rejects_a_k_that_is_not_a_positive_int():
    D, cert = star_matching_obstruction(3)
    E, cert2 = doubled_clique_obstruction(2, 4)
    assert verify_certificate(D, cert) and verify_certificate(E, cert2)
    for bad in (True, 1.0, "1", None, 0, -1):
        assert verify_certificate(D, ObstructionCertificate(k=bad, x_parts=cert.x_parts, y=cert.y)) is False
    for bad in (2.0, "2"):
        assert verify_certificate(E, ObstructionCertificate(k=bad, x_parts=cert2.x_parts, y=cert2.y)) is False


# -- the scan runs once per (digraph, k) ----------------------------------


def _fresh(D):
    """A new digraph equal to D, with empty memos."""
    return MultiDigraph(D.n, list(D.arcs()))


def _counted_extend(monkeypatch):
    """The k of every _extend call from now on."""
    calls = []
    original = obstruction._extend

    def counted(D, k, y_set):
        calls.append(k)
        return original(D, k, y_set)

    monkeypatch.setattr(obstruction, "_extend", counted)
    return calls


def _with_a_universal_vertex(rng, k, n_min, n_max):
    """A 2k-edge-connected digraph on n_min..n_max vertices with a
    vertex joined to every other by one arc: the scan tries it as Y, so
    every scan runs _extend at least once."""
    while True:
        n = rng.randint(n_min, n_max)
        D = _with_universal_vertices(rng, rand_2kec_digraph(rng, k, n), 1)
        if edge_connectivity(D.underlying()) >= 2 * k:
            return D


def test_another_k_scans_again_and_both_answers_are_kept(monkeypatch):
    rng = random.Random(411)
    calls = _counted_extend(monkeypatch)
    for _ in range(4):
        D = _with_a_universal_vertex(rng, 2, 10, 13)
        assert D._obs is None
        found = {}
        for k in (1, 2):
            calls.clear()
            found[k] = is_k_obstruction(D, k)
            assert calls and set(calls) == {k}
            assert D._obs == found
        calls.clear()
        for k in (2, 1, 2):
            assert is_k_obstruction(D, k) is found[k]
            assert obstruction._obstruction_scan(D, k) is found[k]
        assert calls == []


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
def test_new_digraphs_start_without_a_scan(route, monkeypatch):
    rng = random.Random(412)
    calls = _counted_extend(monkeypatch)
    for m in (3, 4, 6):
        D = apply_inversions(star_matching_obstruction(m)[0], [rng.sample(range(2 * m + 1), 3)])
        cert = is_k_obstruction(D, 1)
        assert cert is not None and D._obs == {1: cert}
        twin = route(D)
        assert twin == D and hash(twin) == hash(D) and twin._obs is None
        # the twin scans for itself, and finds the same certificate
        calls.clear()
        again = is_k_obstruction(twin, 1)
        assert calls and again == cert and twin._obs == {1: again}
    # an odd-size inversion keeps the certificate but not the memo
    inverted = apply_inversions(D, [[0, 1, 2]])
    assert inverted._obs is None and verify_certificate(inverted, cert)


def test_equality_and_hashing_ignore_the_scan_memo():
    D, cert = star_matching_obstruction(4)
    twin = _fresh(D)
    assert is_k_obstruction(D, 1) is not None
    assert D == twin and hash(D) == hash(twin)
    # even a memo that disagrees with the arcs is not part of the value
    object.__setattr__(twin, "_obs", {1: None, 2: cert})
    assert D == twin and hash(D) == hash(twin)
    assert {D: 1}[twin] == 1


def test_the_kept_answer_equals_a_fresh_first_scan():
    # perturbed obstructions, obstructions with a digon arc added (which
    # may break them) and random digraphs with universal vertices: the
    # memo's answer is the one a fresh digraph's first scan gives
    rng = random.Random(413)
    inputs = []
    for _ in range(30):
        D = star_matching_obstruction(rng.randint(3, 8))[0]
        inputs.append((1, D))
        k = rng.choice((1, 2))
        inputs.append((k, doubled_clique_obstruction(k, rng.randint(4, 6))[0]))
    perturbed = []
    for k, D in inputs:
        D = apply_inversions(D, [rng.sample(range(D.n), rng.choice((3, 5))) for _ in range(2)])
        if rng.random() < 0.5:
            t, h, _m = rng.choice(list(D.arcs()))
            if not D.has_arc(h, t):
                D = MultiDigraph(D.n, [a[:2] for a in D.arcs()] + [(h, t)])
        perturbed.append((k, _relabelled(rng, D)))
    for _ in range(50):
        k = rng.choice((1, 2))
        perturbed.append((k, _with_a_universal_vertex(rng, k, 4 * k + 2, 16)))
    found = 0
    for k, D in perturbed:
        first = is_k_obstruction(D, k)
        kept = is_k_obstruction(D, k)
        assert kept is first
        assert kept == is_k_obstruction(_fresh(D), k)
        assert kept is None or verify_certificate(D, kept)
        found += kept is not None
    assert len(perturbed) >= 100 and 30 <= found < len(perturbed) - 30
