import os
import random
import signal
import subprocess
import sys
import threading
from collections import Counter, deque
from pathlib import Path
from types import SimpleNamespace

import pytest

from arcinvert import _kernels
from arcinvert._kernels import _pyimpl
from arcinvert.approx import min_k2_inversion_set, minimally_k_arc_strong
from arcinvert.core import (
    InversionFamily,
    MultiDigraph,
    Multigraph,
    apply_inversions,
    is_k_arc_strong,
)
from arcinvert.feasibility import is_kp_invertible
from arcinvert.oracles import brute_edge_connectivity, exact_inv_kp, exists_k_arc_strong_orientation

from conftest import rand_2kec_digraph, rand_multidigraph, rand_multigraph


@pytest.mark.parametrize(
    "value, error",
    [
        ("fortran", "RuntimeError: unknown ARCINVERT_KERNEL value: 'fortran'"),
        ("c", "ImportError: ARCINVERT_KERNEL=c requested but the compiled kernel is not built"),
    ],
    ids=["unknown", "c-not-built"],
)
def test_kernel_choice_fails_at_import(value, error):
    """An unknown ARCINVERT_KERNEL, or c without the compiled kernel,
    stops the import; each runs in a fresh interpreter, since the
    backend is picked once per process."""
    src = str(Path(_kernels.__file__).resolve().parents[2])
    env = dict(os.environ, ARCINVERT_KERNEL=value, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", "import arcinvert"], env=env, capture_output=True, text=True
    )
    if value == "c" and done.returncode == 0:
        pytest.skip("the compiled kernel is built")
    assert done.returncode == 1
    assert done.stderr.rstrip().endswith(error)


def test_st_max_flow_backends_agree(cimpl):
    rng = random.Random(101)
    for _ in range(120):
        D = rand_multidigraph(rng, n_max=8, mult_max=3)
        caps = D.caps_flat()
        s, t = rng.sample(range(D.n), 2)
        for limit in (-1, 0, 1, 2, 3):
            assert _pyimpl.st_max_flow(D.n, caps, s, t, limit) == cimpl.st_max_flow(
                D.n, caps, s, t, limit
            )


def test_min_cut_value_backends_agree(cimpl):
    rng = random.Random(102)
    for _ in range(100):
        G = rand_multigraph(rng, n_max=8)
        caps = G.caps_flat()
        assert _pyimpl.min_cut_value(G.n, caps) == cimpl.min_cut_value(G.n, caps)


def test_karc_deficient_cut_backends_agree(cimpl):
    rng = random.Random(103)
    for _ in range(120):
        D = rand_multidigraph(rng, n_max=8)
        caps = D.caps_flat()
        for k in (1, 2, 3):
            assert _pyimpl.karc_deficient_cut(D.n, caps, k) == cimpl.karc_deficient_cut(
                D.n, caps, k
            )
    for n, caps, k in _late_broken_unions(random.Random(108)):
        for kk in (k - 1, k, k + 1):
            assert _pyimpl.karc_deficient_cut(n, caps, kk) == cimpl.karc_deficient_cut(n, caps, kk)
    rng = random.Random(109)
    for n, caps, k, side in _tied_chains(rng) + _last_vertex_cuts(rng):
        assert cimpl.karc_deficient_cut(n, caps, k) == side
        for kk in (k - 1, k + 1):
            assert _pyimpl.karc_deficient_cut(n, caps, kk) == cimpl.karc_deficient_cut(n, caps, kk)


def test_backends_agree_past_64_vertices(cimpl):
    # masks wider than a machine word: sizes around 64 and up to 130
    rng = random.Random(105)
    sizes = (1, 2, 5, 17, 40, 62, 63, 64, 65, 66, 97, 127, 128, 129, 130)
    for i, n in enumerate(sizes):
        caps = _rand_caps(rng, n, (0.04, 0.1, 0.3)[i % 3] if n > 40 else 0.3, 1 + i % 3)
        for k in (1, 2, 3):
            assert _pyimpl.karc_deficient_cut(n, caps, k) == cimpl.karc_deficient_cut(n, caps, k)
        sym = [caps[u * n + v] + caps[v * n + u] for u in range(n) for v in range(n)]
        assert _pyimpl.min_cut_value(n, sym) == cimpl.min_cut_value(n, sym)
        if n < 2:
            continue
        s, t = rng.sample(range(n), 2)
        for limit in (-1, 0, 1, 2, 3):
            assert _pyimpl.st_max_flow(n, caps, s, t, limit) == cimpl.st_max_flow(
                n, caps, s, t, limit
            )


@pytest.mark.parametrize(
    "call",
    [
        lambda c: c.st_max_flow(3, [0] * 8, 0, 1),
        lambda c: c.karc_deficient_cut(3, [0] * 10, 2),
        lambda c: c.min_cut_value(4, [0] * 17),
    ],
    ids=["st_max_flow", "karc_deficient_cut", "min_cut_value"],
)
def test_compiled_kernel_rejects_a_wrong_caps_length(cimpl, call):
    with pytest.raises(ValueError):
        call(cimpl)


def test_compiled_kernel_rejects_a_negative_vertex_count(cimpl):
    for call in (
        lambda: cimpl.st_max_flow(-1, [], 0, 1),
        lambda: cimpl.karc_deficient_cut(-2, [], 2),
        lambda: cimpl.min_cut_value(-2, []),
    ):
        with pytest.raises(ValueError):
            call()


def test_compiled_kernel_rejects_bad_entries(cimpl):
    for entry in (-1, 2**31, 2**70, 1.0, "1", None):
        with pytest.raises(ValueError):
            cimpl.karc_deficient_cut(2, [0, entry, 1, 0], 2)


@pytest.fixture
def alarm():
    """Fails a test that runs longer than 5 s instead of letting it hang."""

    def expired(signum, frame):
        raise TimeoutError("kernel call did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_rejects_bad_endpoints(impl):
    caps = [0, 1, 0, 0, 0, 1, 1, 0, 0]
    for s, t in ((1, 1), (0, 3), (3, 0), (-1, 2), (2, -1), (10**6, 0)):
        for limit in (1, -1, 0, 3):
            with pytest.raises(ValueError):
                impl.st_max_flow(3, caps, s, t, limit)


def test_pure_flow_rejects_bad_endpoints(alarm):
    # s == t used to loop forever in the pure backend for limits >= 1
    _assert_rejects_bad_endpoints(_pyimpl)


def test_compiled_flow_rejects_bad_endpoints(cimpl, alarm):
    _assert_rejects_bad_endpoints(cimpl)


# -- dense reference: the pure backend's former loops, which scan every
# vertex at every step; the current kernels must return the same values,
# apart from st_max_flow's mask at its limit, which is 0


def _dense_st_max_flow(n, caps, s, t, limit=-1):
    res = list(caps)
    flow = 0
    parent = [-1] * n
    while limit < 0 or flow < limit:
        for i in range(n):
            parent[i] = -1
        parent[s] = s
        q = deque([s])
        while q:
            u = q.popleft()
            if u == t:
                break
            base = u * n
            for v in range(n):
                if parent[v] < 0 and res[base + v] > 0:
                    parent[v] = u
                    q.append(v)
        if parent[t] < 0:
            break
        bott = -1
        v = t
        while v != s:
            u = parent[v]
            c = res[u * n + v]
            if bott < 0 or c < bott:
                bott = c
            v = u
        if limit >= 0 and flow + bott > limit:
            bott = limit - flow
        v = t
        while v != s:
            u = parent[v]
            res[u * n + v] -= bott
            res[v * n + u] += bott
            v = u
        flow += bott
    mask = 1 << s
    q = deque([s])
    while q:
        u = q.popleft()
        base = u * n
        for v in range(n):
            if not (mask >> v) & 1 and res[base + v] > 0:
                mask |= 1 << v
                q.append(v)
    return flow, mask


def _dense_strong_deficient_cut(n, caps):
    full = (1 << n) - 1
    mask = 1
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if not (mask >> v) & 1 and caps[u * n + v] > 0:
                mask |= 1 << v
                stack.append(v)
    if mask != full:
        return mask
    rmask = 1
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if not (rmask >> v) & 1 and caps[v * n + u] > 0:
                rmask |= 1 << v
                stack.append(v)
    if rmask != full:
        return full & ~rmask
    return -1


def _dense_karc_deficient_cut(n, caps, k):
    if n <= 1:
        return -1
    if k == 1:
        return _dense_strong_deficient_cut(n, caps)
    for v in range(1, n):
        flow, mask = _dense_st_max_flow(n, caps, 0, v, k)
        if flow < k:
            return mask
        flow, mask = _dense_st_max_flow(n, caps, v, 0, k)
        if flow < k:
            return mask
    return -1


def _dense_global_min_cut(n, caps):
    best = -1
    best_mask = 0
    for v in range(1, n):
        flow, mask = _dense_st_max_flow(n, caps, 0, v, best if best >= 0 else -1)
        if best < 0 or flow < best:
            best = flow
            best_mask = mask
            if best == 0:
                break
    return best, best_mask


def _rand_caps(rng, n, density, mult_max):
    return [
        rng.randint(1, mult_max) if u != v and rng.random() < density else 0
        for u in range(n)
        for v in range(n)
    ]


def _union_caps(rng, n, k, chords):
    """k random Hamilton dicycles (parallel arcs allowed) plus random
    chords: a k-arc-strong matrix."""
    caps = [0] * (n * n)
    for _ in range(k):
        order = rng.sample(range(n), n)
        for i in range(n):
            caps[order[i] * n + order[(i + 1) % n]] += 1
    for _ in range(chords):
        u, v = rng.sample(range(n), 2)
        caps[u * n + v] += 1
    return caps


def _late_broken_unions(rng):
    """(n, caps, k): cycle unions with units removed at the last
    vertices, so that the first deficiency of the scan, if any, comes
    late and after many flows that the passed vertices decide."""
    cases = []
    for n in (6, 12, 20, 33, 65, 80):
        for k in (2, 3, 4):
            caps = _union_caps(rng, n, k, rng.choice((0, n // 4, n // 2)))
            late = range(n - max(2, n // 5), n)
            for _ in range(rng.randint(1, 3)):
                arcs = [
                    (u, v) for u in range(n) for v in range(n)
                    if caps[u * n + v] and (u in late or v in late)
                ]
                u, v = rng.choice(arcs)
                caps[u * n + v] -= 1
            cases.append((n, caps, k))
    return cases


def _split_units(rng, units):
    """Multiplicities of at most 3 that add up to ``units``."""
    parts = []
    while units:
        parts.append(rng.randint(1, min(3, units)))
        units -= parts[-1]
    return parts


def _tied_chains(rng):
    """(n, caps, k, side): chains of clusters C0, C1, ... whose links
    carry k - 1 arc units one way (in arcs of multiplicity 1 to 3) and
    2k the other way, so that the minimum cuts between 0 and a vertex
    of C2 are ties: every prefix of the chain, or every suffix.  The
    labels put C0 first and C2 next, so the scan fails first at the
    first vertex of C2, and ``side`` is the minimal side it must
    return: C0 for weak forward links, C2 and the clusters after it for
    weak backward links."""
    cases = []
    for k in (2, 3, 4):
        for weak_back in (False, True):
            for _ in range(3):
                sizes = [rng.randint(2, 5) for _ in range(rng.randint(3, 5))]
                labels = {}
                n = 0
                for c in (0, 2, 1, *range(3, len(sizes))):
                    labels[c] = range(n, n + sizes[c])
                    n += sizes[c]
                caps = [0] * (n * n)
                for c in range(len(sizes)):
                    for u in labels[c]:
                        for v in labels[c]:
                            if u != v:
                                caps[u * n + v] = rng.randint(k, k + 1)
                # arc units of each forward and each backward link
                fwd, back = (2 * k, k - 1) if weak_back else (k - 1, 2 * k)
                for c in range(len(sizes) - 1):
                    for tails, heads, units in (
                        (labels[c], labels[c + 1], fwd),
                        (labels[c + 1], labels[c], back),
                    ):
                        for m in _split_units(rng, units):
                            caps[rng.choice(tails) * n + rng.choice(heads)] += m
                clusters = [0] if not weak_back else range(2, len(sizes))
                side = sum(1 << v for c in clusters for v in labels[c])
                cases.append((n, caps, k, side))
    return cases


def _last_vertex_cuts(rng):
    """(n, caps, k, side): k random Hamilton dicycles with one arc into
    n - 1 turned to the next vertex of its cycle, plus chords of
    multiplicity 1 to 3 that avoid n - 1.  Each cycle still crosses
    every cut other than the one around n - 1, which now carries k - 1
    arcs: the scan's first deficiency is its last 0->v test, and the
    transposed matrix has its first at the last v->0 test."""
    cases = []
    for n in (5, 9, 16, 30, 67):
        for k in (2, 3, 4):
            caps = [0] * (n * n)
            orders = [rng.sample(range(n), n) for _ in range(k)]
            for j, order in enumerate(orders):
                for a in range(n):
                    caps[order[a] * n + order[(a + 1) % n]] += 1
                if j == 0:
                    i = order.index(n - 1)
                    pred, succ = order[i - 1], order[(i + 1) % n]
                    caps[pred * n + n - 1] -= 1
                    caps[pred * n + succ] += 1
            for _ in range(n // 3):
                u, v = rng.sample(range(n - 1), 2)
                caps[u * n + v] += rng.randint(1, 3)
            transposed = [caps[v * n + u] for u in range(n) for v in range(n)]
            cases.append((n, caps, k, (1 << (n - 1)) - 1))
            cases.append((n, transposed, k, 1 << (n - 1)))
    return cases


def test_pure_kernels_match_the_dense_reference():
    # sizes past one machine word of mask bits, sparse to dense
    rng = random.Random(104)
    densities = (0.05, 0.15, 0.3, 0.5, 0.7, 0.9)
    sizes = [*range(1, 24), *range(24, 70, 6), 70]
    for i, n in enumerate(sizes):
        caps = _rand_caps(rng, n, densities[i % len(densities)], 1 + i % 3)
        for k in (1, 2, 3):
            assert _pyimpl.karc_deficient_cut(n, caps, k) == _dense_karc_deficient_cut(n, caps, k)
        if n < 2:
            continue
        for _ in range(3):
            s, t = rng.sample(range(n), 2)
            for limit in (-1, 1, 2, 3):
                flow, mask = _pyimpl.st_max_flow(n, caps, s, t, limit)
                dense_flow, dense_mask = _dense_st_max_flow(n, caps, s, t, limit)
                assert flow == dense_flow
                # the residual reach is returned only below the limit
                assert mask == (0 if flow == limit else dense_mask)
    found = set()
    for n, caps, k in _late_broken_unions(rng):
        side = _pyimpl.karc_deficient_cut(n, caps, k)
        assert side == _dense_karc_deficient_cut(n, caps, k)
        found.add(side == -1)
    assert found == {True, False}
    # tied minimum cuts, where only the minimal side is right, and
    # deficiencies that only the last flow of the scan finds
    for n, caps, k, side in _tied_chains(rng) + _last_vertex_cuts(rng):
        assert _pyimpl.karc_deficient_cut(n, caps, k) == side
        assert _dense_karc_deficient_cut(n, caps, k) == side
    # k = 1 reaches wider than a machine word: a directed ring, the ring
    # cut after a random vertex (0 reaches a prefix) and the ring
    # without its arc into 0 (0 reaches all, nothing else reaches 0)
    for n in (65, 100, 130):
        ring = [0] * (n * n)
        for i in range(n):
            ring[i * n + (i + 1) % n] = 1
        forward = list(ring)
        forward[rng.randrange(1, n - 1) * (n + 1) + 1] = 0
        backward = list(ring)
        backward[(n - 1) * n] = 0
        for caps in (ring, forward, backward, _union_caps(rng, n, 1, 3)):
            assert _pyimpl.karc_deficient_cut(n, caps, 1) == _dense_karc_deficient_cut(n, caps, 1)


def _sym_caps(n, edges):
    caps = [0] * (n * n)
    for u, v in edges:
        caps[u * n + v] += 1
        caps[v * n + u] += 1
    return caps


def _ring(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _regular(rng, n, d):
    """Union of d random Hamilton cycles: a 2d-regular multigraph."""
    edges = []
    for _ in range(d):
        order = rng.sample(range(n), n)
        edges += [(order[i], order[(i + 1) % n]) for i in range(n)]
    return edges


def test_min_cut_value_matches_brute_force():
    rng = random.Random(106)
    for _ in range(300):
        G = rand_multigraph(rng, n_max=8, mult_max=3, density=rng.choice((None, 0.15, 0.3)))
        assert _pyimpl.min_cut_value(G.n, G.caps_flat()) == brute_edge_connectivity(G)


@pytest.mark.parametrize("bridged, value", [(False, 0), (True, 1)])
def test_min_cut_value_of_two_k4s(cimpl, bridged, value):
    # every vertex has three neighbours, so no degree-2 contraction
    # applies and the first maximum-adjacency scan meets the split
    edges = [(u + o, v + o) for o in (0, 4) for u in range(4) for v in range(u + 1, 4)]
    G = Multigraph(8, edges + [(3, 4)] * bridged)
    for backend in (_pyimpl, cimpl):
        assert backend.min_cut_value(8, G.caps_flat()) == value


def test_min_cut_value_matches_global_min_cut():
    rng = random.Random(107)
    graphs = [
        (2, [(0, 1)] * 3),
        (2, []),
        (5, [(0, 1), (1, 2), (3, 4)]),  # two components
        (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        (4, [(0, 1), (1, 2), (2, 0)]),  # vertex 3 isolated
        (4, [(0, 1)] * 5 + [(1, 2)] * 5 + [(2, 3)] * 5 + [(3, 0)] + [(0, 2)] * 4),
        (40, _ring(40)),  # one long degree-2 chain
        (30, _ring(30) + [(0, 15)] * 3 + [(7, 22)]),
        (12, [(u, v) for u in range(12) for v in range(u + 1, 12)]),
        (25, _ring(25) + _ring(25)),
    ]
    for n in (30, 64):
        # two cliques joined by parallel edges and by two degree-2 chains
        half = n // 2
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        edges += [(half + u, half + v) for u in range(8) for v in range(u + 1, 8)]
        edges += [(0, half)] * rng.randint(1, 9)
        for chain in ([7, *range(8, half), half + 7], [half + 6, *range(half + 8, n), 6]):
            edges += list(zip(chain, chain[1:]))
        graphs.append((n, edges))
    for n, d in ((16, 2), (33, 3), (64, 5), (70, 1)):
        graphs.append((n, _regular(rng, n, d)))
    # two K5 joined by 3 edges into one vertex: the cut (3) is below
    # every degree (4), so no contraction may take an edge across it
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    graphs.append((10, k5 + [(u + 5, v + 5) for u, v in k5] + [(0, 5), (1, 5), (2, 5)]))
    # a vertex with three neighbours, the lowest across the cut of 1
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    graphs.append((9, k4 + [(u + 4, v + 4) for u, v in k4] + [(8, 0), (8, 4), (8, 5)]))
    for _ in range(200):
        # two dense clusters joined by a few edges: cuts below every degree
        a, b = rng.randint(3, 12), rng.randint(3, 12)
        edges = [(u, v) for u in range(a) for v in range(u + 1, a) if rng.random() < 0.8]
        edges += [(u, v) for u in range(a, a + b) for v in range(u + 1, a + b) if rng.random() < 0.8]
        edges += [(rng.randrange(a), rng.randrange(a, a + b)) for _ in range(rng.randint(1, 4))]
        graphs.append((a + b, edges))
    instances = [(n, _sym_caps(n, edges)) for n, edges in graphs]
    # random multigraphs, sparse to dense, connected or not, with
    # weights above the best cut
    for _ in range(400):
        n = rng.randint(2, 30)
        G = rand_multigraph(
            rng, n_min=n, n_max=n, mult_max=rng.choice((1, 3, 8)),
            density=rng.choice((0.05, 0.1, 0.2, 0.5, 0.9)),
        )
        instances.append((n, G.caps_flat()))
    instances += [(0, []), (1, [0])]
    for n, caps in instances:
        assert _pyimpl.min_cut_value(n, caps) == _dense_global_min_cut(n, caps)[0]


def test_dispatch_sends_every_size_to_the_compiled_backend(cimpl, monkeypatch):
    seen = []

    def recorded(name):
        def call(n, *args):
            seen.append((name, n))
            return getattr(cimpl, name)(n, *args)

        return call

    names = ("st_max_flow", "karc_deficient_cut", "min_cut_value")
    recording = SimpleNamespace(**{name: recorded(name) for name in names})
    monkeypatch.setattr(_kernels, "_impl", recording)
    for n in (64, 128):
        # a ring both ways plus one chord: 2-arc-strong, not 3-arc-strong
        caps = [0] * (n * n)
        for i in range(n):
            caps[i * n + (i + 1) % n] = 1
            caps[((i + 1) % n) * n + i] = 1
        caps[n // 2] = 1
        sym = [caps[u * n + v] + caps[v * n + u] for u in range(n) for v in range(n)]
        flow = _kernels.st_max_flow(n, caps, 0, n // 2, -1)
        assert flow[0] == 3 and flow == _pyimpl.st_max_flow(n, caps, 0, n // 2, -1)
        assert _kernels.karc_deficient_cut(n, caps, 2) == -1
        side = _kernels.karc_deficient_cut(n, caps, 3)
        assert side == _pyimpl.karc_deficient_cut(n, caps, 3)
        assert side > 0 and side != (1 << n) - 1
        assert _kernels.min_cut_value(n, sym) == _pyimpl.min_cut_value(n, sym) == 4
    assert sorted(set(seen)) == sorted((name, n) for name in names for n in (64, 128))


# -- the dispatcher's memo of the last strong answer ----------------------


@pytest.fixture(params=["py", "c"])
def backend(request):
    return _pyimpl if request.param == "py" else request.getfixturevalue("cimpl")


def _recording(backend):
    """A backend object that logs each karc_deficient_cut matrix it is
    asked about and answers through ``backend``."""
    seen = []

    def karc(n, caps, k, after=None, matrix=None):
        seen.append((n, tuple(caps), k))
        return backend.karc_deficient_cut(n, caps, k, after, matrix)

    rec = SimpleNamespace(
        karc_deficient_cut=karc,
        st_max_flow=backend.st_max_flow,
        min_cut_value=backend.min_cut_value,
        BACKEND=backend.BACKEND,
    )
    return rec, seen


def _two_way_ring(n):
    caps = [0] * (n * n)
    for i in range(n):
        caps[i * n + (i + 1) % n] = 1
        caps[((i + 1) % n) * n + i] = 1
    return caps


def test_memo_answers_only_the_same_strong_matrix(backend, monkeypatch):
    rec, seen = _recording(backend)
    monkeypatch.setattr(_kernels, "_impl", rec)
    n = 6
    caps = _two_way_ring(n)
    assert _kernels.karc_deficient_cut(n, caps, 2) == -1
    assert _kernels.karc_deficient_cut(n, list(caps), 2) == -1
    assert len(seen) == 1
    # another k is another question
    side = _kernels.karc_deficient_cut(n, caps, 3)
    assert side == _pyimpl.karc_deficient_cut(n, caps, 3) != -1
    assert len(seen) == 2
    # the memo holds a copy: a list changed in place after its strong
    # answer goes to the backend and gets its own side
    assert _kernels.karc_deficient_cut(n, caps, 2) == -1
    calls = len(seen)
    caps[0 * n + 1] = 0
    side = _kernels.karc_deficient_cut(n, caps, 2)
    assert len(seen) == calls + 1
    assert side == _pyimpl.karc_deficient_cut(n, caps, 2) == 1
    # a deficient answer leaves the memo as it was
    caps[0 * n + 1] = 1
    assert _kernels.karc_deficient_cut(n, caps, 2) == -1
    assert len(seen) == calls + 1


def test_memo_never_answers_for_another_backend(backend, monkeypatch):
    old, old_seen = _recording(backend)
    new, new_seen = _recording(backend)
    n = 7
    caps = _two_way_ring(n)
    monkeypatch.setattr(_kernels, "_impl", old)
    assert _kernels.karc_deficient_cut(n, caps, 2) == -1
    monkeypatch.setattr(_kernels, "_impl", new)
    assert _kernels.karc_deficient_cut(n, caps, 2) == -1
    assert len(old_seen) == 1 and len(new_seen) == 1


def _feasible_instances(rng):
    """2k-edge-connected digraphs that are not k-arc-strong: dense
    random ones, and Hamilton cycles with 3n/10 arcs reversed and n/2
    chords, which need several pairs."""
    out = []
    while len(out) < 8:
        k = rng.choice((1, 1, 2))
        D = rand_2kec_digraph(rng, k, rng.randint(4 * k + 1, 4 * k + 4))
        if not is_k_arc_strong(D, k):
            out.append((D, k))
    while len(out) < 14:
        n = rng.randint(10, 14)
        order = rng.sample(range(n), n)
        arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
        for t, h in rng.sample(sorted(arcs), 3 * n // 10):
            arcs.remove((t, h))
            arcs.add((h, t))
        while len(arcs) < n + n // 2:
            t, h = rng.sample(range(n), 2)
            if (t, h) not in arcs and (h, t) not in arcs:
                arcs.add((t, h))
        D = MultiDigraph(n, sorted(arcs))
        if not is_k_arc_strong(D, 1):
            out.append((D, 1))
    return out


def test_verification_reuses_the_search_proof(backend, monkeypatch):
    """The matrix a search returns reaches the backend once: the
    search proved it k-arc-strong, and the verification that follows
    gets that answer from the memo."""
    rng = random.Random(0x5EED)

    def asked_once(D, k, search):
        # a fresh backend object per search, whose memo starts empty
        rec, seen = _recording(backend)
        monkeypatch.setattr(_kernels, "_impl", rec)
        final = search()
        if isinstance(final, InversionFamily):
            final = apply_inversions(D, final)
        assert seen.count((D.n, tuple(final.caps_flat()), k)) == 1

    witnesses = 0
    for D, k in _feasible_instances(rng):
        asked_once(D, k, lambda: min_k2_inversion_set(D, k))
        asked_once(D, k, lambda: exact_inv_kp(D, k, 3, "at-most", l_max=8))
        for p in (3, 4):
            if is_kp_invertible(D, k, p).feasible:
                witnesses += 1
                asked_once(D, k, lambda: is_kp_invertible(D, k, p, witness=True).witness)
        asked_once(D, k, lambda: exists_k_arc_strong_orientation(D.underlying(), k))
    assert witnesses >= 10


def test_pair_search_asks_once_per_flipped_pair_set(backend, monkeypatch):
    """Pair flips commute, so a flipped-pair set fixes the matrix; no
    matrix reaches the backend twice in one pair search, across all of
    its deepening budgets and its verification."""
    rng = random.Random(0xB0D6E7)
    rec, seen = _recording(backend)
    monkeypatch.setattr(_kernels, "_impl", rec)
    sizes = []
    for D, k in _feasible_instances(rng):
        del seen[:]
        sizes.append(len(min_k2_inversion_set(D, k).sets))
        assert len(seen) == len(set(seen))
    assert max(sizes) >= 3


def test_memo_answers_threads_as_the_backend_does(backend, monkeypatch):
    """Threads that share the memo, on matrices some of which they
    share, each get the backend's own answer."""
    monkeypatch.setattr(_kernels, "_impl", backend)
    rng = random.Random(0x7EAD)
    jobs = []
    for _ in range(24):
        n = rng.randint(5, 9)
        caps = _two_way_ring(n)
        for _drop in range(rng.randint(0, 3)):
            caps[rng.randrange(n * n)] = 0
        jobs.append((n, caps, rng.choice((1, 2))))
    want = [_pyimpl.karc_deficient_cut(n, caps, k) for n, caps, k in jobs]
    assert -1 in want and any(side != -1 for side in want)
    wrong = []

    def work(seed):
        order = random.Random(seed)
        for _ in range(300):
            i = order.randrange(len(jobs))
            n, caps, k = jobs[i]
            if _kernels.karc_deficient_cut(n, caps, k) != want[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# -- unit-limit flows by reach --------------------------------------------


def _flow_limit_one(n, caps, s, t):
    """st_max_flow(n, caps, s, t, 1) by the augmenting search of _flow."""
    target = [False] * n
    target[t] = True
    return _pyimpl._flow(n, caps, list(caps), [None] * n, s, target, 1)


def test_unit_limit_flow_matches_the_augmenting_search():
    rng = random.Random(110)
    sizes = [*range(2, 20), 40, 63, 64, 65, 80, 100, 130]
    kinds = {0: 0, 1: 0}
    wide = 0
    for i in range(330):
        n = sizes[i % len(sizes)]
        density = (0.02, 0.05, 0.15, 0.4)[i % 4] if n > 20 else rng.uniform(0.05, 0.6)
        caps = _rand_caps(rng, n, density, 1 + i % 3)
        for s, t in [tuple(rng.sample(range(n), 2)) for _ in range(3)]:
            got = _pyimpl.st_max_flow(n, caps, s, t, 1)
            assert got == _flow_limit_one(n, caps, s, t)
            kinds[got[0]] += 1
            wide += n > 64 and got[0] == 0 and got[1] >> 64 != 0
    assert min(kinds.values()) >= 200 and wide >= 5


def test_unit_limit_flow_runs_no_augmenting_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("a limit-1 flow ran _flow")

    rng = random.Random(111)
    cases = []
    for _ in range(40):
        n = rng.randint(2, 70)
        cases.append((n, _rand_caps(rng, n, rng.uniform(0.02, 0.4), 2), *rng.sample(range(n), 2)))
    want = [_flow_limit_one(*case) for case in cases]
    drawn = [rand_2kec_digraph(rng, 1, rng.randint(4, 9)) for _ in range(20)]
    strong = [D for D in drawn if is_k_arc_strong(D, 1)]
    cores = [minimally_k_arc_strong(D, 1) for D in strong]
    monkeypatch.setattr(_pyimpl, "_flow", refuse)
    monkeypatch.setattr(_kernels, "_impl", _pyimpl)
    assert [_pyimpl.st_max_flow(*case, 1) for case in cases] == want
    # the minimal core's k = 1 flows are all limit-1 flows
    assert [minimally_k_arc_strong(D, 1) for D in strong] == cores and len(strong) >= 5


# -- the after hint of karc_deficient_cut ---------------------------------


def _hint_kind(side, u, v, caps, n):
    """Where the pair u, v lies against the parent's side: both ends
    inside, both outside, or crossing with the sign of the arcs out of
    side that its swap adds less those it removes."""
    iu, iv = side >> u & 1, side >> v & 1
    if iu == iv:
        return "inside" if iu else "outside"
    lo, hi = (u, v) if iu else (v, u)
    gain = caps[hi * n + lo] - caps[lo * n + hi]
    return "gain>0" if gain > 0 else "gain=0" if gain == 0 else "gain<0"


def test_hinted_cut_answers_as_the_unhinted_one(cimpl):
    """A walk of pair swaps, each child asked with and without the side
    of its parent and the pair, on both backends: every answer equal."""
    rng = random.Random(0xAF7E)
    kinds = {}
    for i in range(2000):
        n = rng.randint(2, 12) if i % 50 else rng.randint(62, 70)
        density = rng.uniform(0.05, 0.5) if n <= 12 else 0.05
        caps = _rand_caps(rng, n, density, rng.randint(1, 3))
        if rng.random() < 0.5:
            # a path from 0 through every vertex: at k = 1 the side then
            # comes from the backward reach
            order = [0] + rng.sample(range(1, n), n - 1)
            for a, b in zip(order, order[1:]):
                caps[a * n + b] += 1
        k = (1, 1, 2, 3)[i % 4]
        side = _pyimpl.karc_deficient_cut(n, caps, k)
        for _step in range(3):
            if side == -1:
                break
            by_kind = {}
            for u in range(n):
                for v in range(u + 1, n):
                    by_kind.setdefault(_hint_kind(side, u, v, caps, n), []).append((u, v))
            kind = rng.choice(sorted(by_kind))
            u, v = rng.choice(by_kind[kind])
            if rng.random() < 0.5:
                u, v = v, u
            caps[u * n + v], caps[v * n + u] = caps[v * n + u], caps[u * n + v]
            after = (side, u, v)
            want = _pyimpl.karc_deficient_cut(n, caps, k)
            assert _pyimpl.karc_deficient_cut(n, caps, k, after) == want
            assert cimpl.karc_deficient_cut(n, caps, k, after) == want
            assert cimpl.karc_deficient_cut(n, caps, k) == want
            key = (k, "forward" if k == 1 and side & 1 else "backward" if k == 1 else "scan", kind)
            kinds[key] = kinds.get(key, 0) + 1
            side = want
    for origin in ("forward", "backward"):
        for kind in ("inside", "outside", "gain>0", "gain=0"):
            assert kinds.get((1, origin, kind), 0) >= 20, (origin, kind, kinds)
        # a side at k = 1 has no arc out, so no swap can lower it
        assert (1, origin, "gain<0") not in kinds
    for k in (2, 3):
        for kind in ("inside", "outside", "gain>0", "gain=0", "gain<0"):
            assert kinds.get((k, "scan", kind), 0) >= 20, (k, kind, kinds)


def test_memo_answers_a_hinted_strong_matrix(backend, monkeypatch):
    rec, seen = _recording(backend)
    monkeypatch.setattr(_kernels, "_impl", rec)
    monkeypatch.setattr(_kernels, "_strong", None)
    n = 6
    # the dicycle 0 -> 1 -> ... -> 5 -> 0 with 2 -> 3 turned round
    caps = [0] * (n * n)
    for i in range(n):
        caps[i * n + (i + 1) % n] = 1
    caps[2 * n + 3], caps[3 * n + 2] = 0, 1
    side = _kernels.karc_deficient_cut(n, caps, 1)
    assert side == 0b000111
    caps[2 * n + 3], caps[3 * n + 2] = 1, 0
    assert _kernels.karc_deficient_cut(n, caps, 1, (side, 2, 3)) == -1
    assert len(seen) == 2
    # the hinted strong answer is remembered, and answers hinted calls
    assert _kernels.karc_deficient_cut(n, list(caps), 1) == -1
    assert _kernels.karc_deficient_cut(n, list(caps), 1, (side, 3, 2)) == -1
    assert len(seen) == 2


# -- the matrix hint: a search's kept kernel state -----------------------


def _fresh_parts(n, caps):
    """Each vertex's row and column mask, its neighbour list and the
    transposed matrix, built from caps anew."""
    outs = [sum(1 << v for v in range(n) if caps[u * n + v]) for u in range(n)]
    ins = [sum(1 << v for v in range(n) if caps[v * n + u]) for u in range(n)]
    nbrs = [[v for v in range(n) if caps[u * n + v] or caps[v * n + u]] for u in range(n)]
    capsT = [caps[v * n + u] for u in range(n) for v in range(n)]
    return outs, ins, nbrs, capsT


def _random_write(rng, matrix):
    """One random swap, unit removal or unit add through the Matrix;
    its kind and pair."""
    n, caps = matrix.n, matrix.caps
    u, v = rng.sample(range(n), 2)
    roll = rng.random()
    if roll < 0.5:
        before = caps[u * n + v], caps[v * n + u]
        assert matrix.swap(u, v) == before
        assert (caps[u * n + v], caps[v * n + u]) == before[::-1]
        return "swap", u, v
    if caps[u * n + v] and roll < 0.8:
        matrix.add(u, v, -1)
        return "remove", u, v
    matrix.add(u, v, 1)
    return "add", u, v


def _kernel_questions(rng, matrix, k):
    """A few hinted kernel calls, which build parts of matrix."""
    n, caps = matrix.n, matrix.caps
    _pyimpl.karc_deficient_cut(n, caps, k, None, matrix)
    s, t = rng.sample(range(n), 2)
    _pyimpl.st_max_flow(n, caps, s, t, rng.choice((1, 2, k, -1)), matrix)


def test_kept_parts_match_a_fresh_build():
    """After every swap and unit add or removal, each part the hinted
    kernels have built in a Matrix equals a fresh build from caps; a
    neighbour list may also keep, in ascending order, a vertex whose
    last arc with it a removal dropped."""
    rng = random.Random(0x3A7)
    seen = Counter()
    for _ in range(250):
        D = rand_multidigraph(rng, n_max=9, n_min=3, mult_max=3, density=rng.uniform(0.3, 0.8))
        n = D.n
        seen["digon"] += any(D.mult(h, t) for (t, h, _m) in D.arcs())
        seen["parallel"] += any(m > 1 for (_t, _h, m) in D.arcs())
        matrix = _pyimpl.Matrix(n, D.caps_flat())
        k = rng.choice((1, 2, 3))
        for _step in range(12):
            _kernel_questions(rng, matrix, k)
            seen[_random_write(rng, matrix)[0]] += 1
            outs, ins, nbrs, capsT = _fresh_parts(n, matrix.caps)
            for u in range(n):
                for kept, fresh, part in ((matrix.outs[u], outs[u], "outs"), (matrix.ins[u], ins[u], "ins")):
                    if kept is not None:
                        assert kept == fresh
                        seen[part] += 1
                kept = matrix.nbrs[u]
                if kept is not None:
                    assert kept == sorted(set(kept)) and set(nbrs[u]) <= set(kept)
                    seen["nbrs"] += 1
                    seen["nbrs superset"] += kept != nbrs[u]
            if matrix._capsT is not None:
                assert matrix._capsT == capsT
                seen["transposed"] += 1
    assert min(seen.values()) >= 30, seen


def test_hinted_kernels_answer_as_unhinted_ones(cimpl):
    """Along random swaps and unit adds and removals, every kernel call
    with the search's Matrix (and, after a swap at k = 1, the parent's
    side) answers as a fresh unhinted call, under both backends."""
    rng = random.Random(0x3A8)
    asked = Counter()
    for _ in range(200):
        D = rand_multidigraph(rng, n_max=10, n_min=3, mult_max=3, density=rng.uniform(0.3, 0.8))
        n = D.n
        matrix = _pyimpl.Matrix(n, D.caps_flat())
        caps = matrix.caps
        k = rng.choice((1, 1, 2, 3))
        side = _pyimpl.karc_deficient_cut(n, caps, k, None, matrix)
        for _step in range(12):
            kind, u, v = _random_write(rng, matrix)
            after = (side, u, v) if kind == "swap" and side != -1 else None
            side = _pyimpl.karc_deficient_cut(n, list(caps), k)
            assert _pyimpl.karc_deficient_cut(n, caps, k, after, matrix) == side
            assert cimpl.karc_deficient_cut(n, caps, k, after, matrix) == side
            asked[k, after is not None, side == -1] += 1
            s, t = rng.sample(range(n), 2)
            limit = rng.choice((1, 2, 3, -1))
            want = _pyimpl.st_max_flow(n, list(caps), s, t, limit)
            assert _pyimpl.st_max_flow(n, caps, s, t, limit, matrix) == want
            assert cimpl.st_max_flow(n, caps, s, t, limit, matrix) == want
            asked["flow", limit] += 1
    # every k, hinted or not, strong or not, and every limit, is asked;
    # the after hint, which only k = 1 reads, at least 20 times each way
    assert len(asked) == 16 and min(asked[1, True, strong] for strong in (False, True)) >= 20, asked


def test_a_matrix_hint_must_hold_the_caps_of_its_call():
    n = 5
    caps = _two_way_ring(n)
    matrix = _pyimpl.Matrix(n, caps)
    for call in (
        lambda: _pyimpl.karc_deficient_cut(n, list(caps), 1, None, matrix),
        lambda: _pyimpl.karc_deficient_cut(n, list(caps), 2, None, matrix),
        lambda: _pyimpl.st_max_flow(n, list(caps), 0, 2, 1, matrix),
        lambda: _pyimpl.st_max_flow(n, list(caps), 0, 2, -1, matrix),
    ):
        with pytest.raises(ValueError, match="matrix hint"):
            call()
    assert _pyimpl.karc_deficient_cut(n, caps, 2, None, matrix) == -1
