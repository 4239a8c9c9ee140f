"""Exact and brute-force oracles, trustworthy at desk scale.

These are the reference implementations everything else is tested
against: a breadth-first search over orientation states, existence of
k-arc-strong orientations of a multigraph, exact minimum inversion
families by branch and bound, exact path-packing and hypergraph-matching
solvers, and plain exponential brute-force computations of cuts,
connectivity and frames.  gf2_reachable is the checked, verified public
form of the production coset search in parity; no production module
imports from here.

Dual routes are kept deliberately independent: the brute-force helpers
scan all 2^n subsets without touching the flow kernels, and the BFS
orientation-state oracle decides reachability without the GF(2) span,
enumerating its own moves.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

from . import _kernels, parity
from .core import (
    _check_count,
    _check_digraph,
    _check_k,
    _check_p,
    _check_vertex,
    _degrees,
    _verified,
    INFINITY,
    InversionFamily,
    MultiDigraph,
    Multigraph,
    edge_connectivity,
    is_k_arc_strong,
)
from .errors import InvalidArgumentError

# -- GF(2) reachability of a k-arc-strong orientation -------------------

# bound here because perfbench's tracer patches oracles.Gf2Basis.add
Gf2Basis = parity.Gf2Basis


def _validate_kp(k, p, mode):
    _check_k(k)
    _check_p(p)
    if mode not in ("exact-size", "at-most"):
        raise InvalidArgumentError(f"mode must be 'exact-size' or 'at-most', got {mode!r}")


def gf2_reachable(D, k, p, mode="exact-size"):
    """Inversion family (sets of size p, or <= p) making D k-arc-strong,
    or None if no such family exists.  Exact for digraphs of any size,
    intended for small n.

    It checks its arguments, returns None when UG(D) is not
    2k-edge-connected, runs the coset search parity._gf2_search with
    its forced-parity refutation and verifies the family it finds."""
    _check_digraph(D, "gf2_reachable", simple=True)
    _validate_kp(k, p, mode)
    if edge_connectivity(D.underlying()) < 2 * k:
        return None  # inversions keep the underlying multigraph
    fam = parity._gf2_search(D, k, p, mode, refute=True)
    return None if fam is None else _verified(D, fam, k, "coset search family")


def orientation_bfs_reachable(D, k, p, mode="exact-size"):
    """Reference oracle: BFS over all orientations of the simple arcs,
    moves are single (=p or <=p) inversions.  True iff some reachable
    orientation is k-arc-strong.  Exponential in the number of simple
    arcs; use at n <= 6."""
    _check_digraph(D, "orientation_bfs_reachable", simple=True)
    _validate_kp(k, p, mode)
    n = D.n
    simple = D.simple_arcs()
    m = len(simple)
    if m > 20:
        raise InvalidArgumentError("state space too large; use gf2_reachable")

    def indicator(xs):
        ind = 0
        s = set(xs)
        for i, (t, h) in enumerate(simple):
            if t in s and h in s:
                ind |= 1 << i
        return ind

    sizes = [p] if mode == "exact-size" else range(2, p + 1)
    moves = [indicator(xs) for size in sizes for xs in combinations(range(n), size)]
    base = [0] * (n * n)
    for (t, h), mm in D._m.items():
        if D.has_arc(h, t):
            base[t * n + h] = mm

    def strong(state):
        caps = list(base)
        for i, (t, h) in enumerate(simple):
            if (state >> i) & 1:
                caps[h * n + t] += 1
            else:
                caps[t * n + h] += 1
        return _kernels.karc_deficient_cut(n, caps, k) == -1

    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for st in frontier:
            if strong(st):
                return True
            for mv in moves:
                st2 = st ^ mv
                if st2 not in seen:
                    seen.add(st2)
                    nxt.append(st2)
        frontier = nxt
    return False


# -- k-arc-strong orientations of a multigraph ---------------------------


def exists_k_arc_strong_orientation(G, k):
    """An orientation of G that is k-arc-strong, or None.

    None is returned exactly when G is not 2k-edge-connected (a cut
    with at most 2k-1 edges caps one direction at k-1); otherwise a
    witness is found and verified.  Search order: pair parallel edges
    into digons (always safe: the paired partial orientation is
    completable iff the graph is 2k-edge-connected), orient the
    leftover simple edges by an Eulerian circuit when all their degrees
    are even, else seeded sampling followed by exhaustive DFS with
    degree pruning.  A sample is tested by a flow only when its bits
    give every vertex at least k arcs out and in, which a k-arc-strong
    orientation needs; the others are rejected in O(n) word operations
    and the random draws stay the same.  The DFS returns the first
    bits that pass without undoing its placements: nothing reads its
    work arrays after it returns.  Intended for n <= 12."""
    if not isinstance(G, Multigraph):
        raise InvalidArgumentError("exists_k_arc_strong_orientation expects a Multigraph")
    _check_k(k)
    n = G.n
    if n <= 1:
        return MultiDigraph._trusted(n, {})
    if edge_connectivity(G) < 2 * k:
        return None
    arcs = []
    free = []
    for u, v, mm in G.edges():
        pairs, odd = divmod(mm, 2)
        if pairs:
            arcs.append((u, v, pairs))
            arcs.append((v, u, pairs))
        if odd:
            free.append((u, v))

    def finish(orientation_bits):
        # the arcs come from a checked Multigraph: build D trusted,
        # adding a free arc to its digon bundle as the constructor would
        m = {(t, h): mm for t, h, mm in arcs}
        for i, (u, v) in enumerate(free):
            key = (v, u) if (orientation_bits >> i) & 1 else (u, v)
            m[key] = m.get(key, 0) + 1
        D = MultiDigraph._trusted(n, m)
        if not is_k_arc_strong(D, k):
            raise RuntimeError("internal error: orientation witness failed verification")
        if D.underlying() != G:
            raise RuntimeError("internal error: witness is not an orientation of G")
        return D

    fdeg = [0] * n
    for u, v in free:
        fdeg[u] += 1
        fdeg[v] += 1
    if all(d % 2 == 0 for d in fdeg):
        return finish(_eulerian_bits(n, free))

    caps = [0] * (n * n)
    for t, h, mm in arcs:
        caps[t * n + h] = mm
    out_have, in_have = _degrees(n, caps)
    # bit i of a sample turns free edge i = (u, v) round to v -> u, so
    # v's free arcs out are its edges listed first with the bit clear
    # and those listed second with the bit set
    first = [0] * n
    second = [0] * n
    for i, (u, v) in enumerate(free):
        first[u] |= 1 << i
        second[v] |= 1 << i
    stars = list(zip(out_have, in_have, fdeg, first, second))

    rng = random.Random(0xA5C1)
    mf = len(free)
    for _ in range(400):
        bits = rng.getrandbits(mf) if mf else 0
        kept = ~bits
        for out0, in0, d, a, b in stars:
            out_free = (a & kept).bit_count() + (b & bits).bit_count()
            if out0 + out_free < k or in0 + d - out_free < k:
                break  # fewer than k arcs out or in: no flow needed
        else:
            trial = list(caps)
            for i, (u, v) in enumerate(free):
                if (bits >> i) & 1:
                    trial[v * n + u] += 1
                else:
                    trial[u * n + v] += 1
            if _kernels.karc_deficient_cut(n, trial, k) == -1:
                return finish(bits)

    # exhaustive DFS over free-edge orientations with degree pruning
    rem = list(fdeg)
    work = list(caps)

    def dfs(i, bits):
        if i == mf:
            if _kernels.karc_deficient_cut(n, work, k) == -1:
                return bits
            return None
        u, v = free[i]
        rem[u] -= 1
        rem[v] -= 1
        for bit in (0, 1):
            t, h = (v, u) if bit else (u, v)
            work[t * n + h] += 1
            out_have[t] += 1
            in_have[h] += 1
            if (
                out_have[u] + rem[u] >= k
                and in_have[u] + rem[u] >= k
                and out_have[v] + rem[v] >= k
                and in_have[v] + rem[v] >= k
            ):
                got = dfs(i + 1, bits | (bit << i))
                if got is not None:
                    return got
            work[t * n + h] -= 1
            out_have[t] -= 1
            in_have[h] -= 1
        rem[u] += 1
        rem[v] += 1
        return None

    bits = dfs(0, 0)
    if bits is None:
        # contradicts orientability of 2k-edge-connected multigraphs
        raise RuntimeError("internal error: no orientation found despite 2k-edge-connectivity")
    return finish(bits)


def _eulerian_bits(n, free):
    """Orientation bits of the free edges along Eulerian circuits (one
    per component); all free-degrees must be even."""
    adj = [[] for _ in range(n)]  # (neighbor, edge index)
    for i, (u, v) in enumerate(free):
        adj[u].append((v, i))
        adj[v].append((u, i))
    used = [False] * len(free)
    bits = 0
    ptr = [0] * n
    for start in range(n):
        if ptr[start] >= len(adj[start]):
            continue
        # Hierholzer from start
        stack = [start]
        path = []
        while stack:
            x = stack[-1]
            advanced = False
            while ptr[x] < len(adj[x]):
                y, ei = adj[x][ptr[x]]
                ptr[x] += 1
                if used[ei]:
                    continue
                used[ei] = True
                stack.append(y)
                path.append((x, y, ei))
                advanced = True
                break
            if not advanced:
                stack.pop()
        for x, _y, ei in path:
            u, _v = free[ei]
            if x != u:  # traversed against the stored (u, v) order
                bits |= 1 << ei
    return bits


# -- exact minimum inversion families ------------------------------------


def _exact_candidates(n, caps, adj, k, p, mode, side, budget, short):
    """The sets a node of exact_inv_kp tries, best first (a generator).

    side is the node's violated side S (d+(S) < k), budget its number
    of sets left, short its deficient vertices and adj[v] the neighbour
    mask of v in UG(D).  A candidate X has an allowed size, keeps at
    most (budget - 1) * p deficient vertices outside (the child's
    degree bound) and holds a crossing pair of S whose two arc counts
    differ (a set without one leaves d+(S) as it is).  Its gain g, the
    arcs out of S that its inversion adds, is exactly the change of
    d+(S).  Order: (-g, X).

    Only such pairs carry gain, so X splits into Y, its vertices on
    them, which fixes g, and the rest, drawn from the pool of the other
    vertices.  The Y sets are scored first.  A gain level's first set
    is found without building the level: for a Y and a size the least
    set is Y, the lack least deficient vertices of the pool (lack: how
    many more deficient vertices X must hold) and the least of the
    rest of the pool.  Y sets of one length and lack take the same
    vertices from the pool, and sets of one size compare as their
    least difference does, so of those Y sets the first scored gives
    the least set.  Most nodes read one set; a level is built and
    sorted only when a second set is read, and then yields the sets
    after its first.  At budget 1 a Y with d+(S) + g < k is dropped:
    its child would fail on S.  In at-most mode a set with a vertex
    that has no neighbour inside is skipped as it is read: dropping
    that vertex keeps the effect, so minimal families never use it."""
    sizes = [p] if mode == "exact-size" else list(range(2, p + 1))
    gain = [0] * (n * n)
    paired = 0  # the vertices on crossing pairs with unequal arc counts
    d_out = 0
    for lo in range(n):
        if not (side >> lo) & 1:
            continue
        rest = adj[lo] & ~side
        while rest:
            bit = rest & -rest
            rest ^= bit
            hi = bit.bit_length() - 1
            ab, ba = caps[lo * n + hi], caps[hi * n + lo]
            d_out += ab
            if ab != ba:
                gain[lo * n + hi] = gain[hi * n + lo] = ba - ab
                paired |= bit | (1 << lo)
    deficient = 0
    for v in short:
        deficient |= 1 << v
    # the child keeps at most (budget - 1) * p deficient vertices
    # outside the set, so the set holds at least need of them
    need = len(short) - (budget - 1) * p
    more = [v for v in range(n) if (deficient & ~paired) >> v & 1]
    other = [v for v in range(n) if not ((deficient | paired) >> v) & 1]
    if budget == 1:
        # every deficient vertex goes in: those on pairs with Y, the
        # others (more) with the rest
        seeded = deficient & paired
        top = sizes[-1] - len(more)
        floor = k - d_out
    else:
        seeded, top, floor = 0, sizes[-1], None
    seed = tuple(v for v in range(n) if (seeded >> v) & 1)
    ends = [v for v in range(n) if (paired & ~seeded) >> v & 1]
    levels = {}
    for r in range(max(2 - len(seed), 0), top - len(seed) + 1):
        for add in combinations(ends, r):
            ys = seed + add
            g = 0
            hit = False
            for a, b in combinations(ys, 2):
                d = gain[a * n + b]
                if d:
                    g += d
                    hit = True
            if hit and (floor is None or g >= floor):
                levels.setdefault(g, []).append(ys)
    # how many more deficient vertices a set must take from the pool:
    # at budget 1 all of them, and none once need <= 0
    uniform = len(more) if budget == 1 else 0 if need <= 0 else None
    pool = len(more) + len(other)
    fills = {}  # lack: (the lack least of more, the rest of the pool)
    for g in sorted(levels, reverse=True):
        lacks = []
        heads = set()
        first = None
        for ys in levels[g]:
            lack = uniform
            if lack is None:
                lack = max(need - sum((deficient >> v) & 1 for v in ys), 0)
            lacks.append(lack)
            if lack > len(more) or (len(ys), lack) in heads:
                continue
            heads.add((len(ys), lack))
            if lack not in fills:
                fills[lack] = (tuple(more[:lack]), sorted(more[lack:] + other))
            ext, rest = fills[lack]
            for size in sizes:
                free = size - len(ys)
                if lack <= free <= pool:
                    xs = tuple(sorted(ys + ext + tuple(rest[:free - lack])))
                    if first is None or xs < first:
                        first = xs
        if first is None:
            continue
        if mode == "exact-size" or not _stray(adj, first):
            yield first
        level = []
        for ys, lack in zip(levels[g], lacks):
            for size in sizes:
                free = size - len(ys)
                for j in range(lack, min(free, len(more)) + 1):
                    for ext in combinations(more, j):
                        for fill in combinations(other, free - j):
                            level.append(tuple(sorted(ys + ext + fill)))
        level.sort()
        for xs in level[bisect_right(level, first):]:
            if mode == "exact-size" or not _stray(adj, xs):
                yield xs


def _stray(adj, xs):
    """True when some vertex of xs has no neighbour in xs."""
    msk = 0
    for v in xs:
        msk |= 1 << v
    return any(not (adj[v] & (msk ^ (1 << v))) for v in xs)


def exact_inv_kp(D, k, p, mode="exact-size", l_max=4):
    """Minimum family of (=p or <=p)-inversions making D k-arc-strong,
    or None if no family of at most l_max sets works.

    Branch and bound: at each node a violated dicut is computed and the
    next set must contain some crossing pair with asymmetric arc counts
    (otherwise that cut stays below k forever).  Multidigraph inputs
    are allowed; sets act by swapping the two arc bundles of each
    internal pair.  The search starts from copies of D's memoised
    capacity matrix and degree lists.  A node tries its sets by
    decreasing gain, the arcs they add out of the violated side, ties
    by the sets themselves (_exact_candidates reads a gain level's
    first set without building the level, and builds it only when a
    second set is read).

    Degree bound: a set changes the degrees of its own vertices only,
    so b more sets mend at most b * p deficient vertices (those with
    fewer than k arcs out or in), and a k-arc-strong digraph has none.
    A node with b sets left fails at once when more than b * p vertices
    are deficient.  The count is kept up to date as sets are applied
    and undone, and the list of deficient vertices is built only at
    nodes that ask for candidates.  The bound does two more things:

    - Refutation at entry: with more than l_max * p deficient vertices
      the call returns None before any flow, and the deepening starts
      at ceil(#deficient / p) sets.
    - Pruned candidates: a node never builds a set that leaves more
      than (b - 1) * p deficient vertices outside, as the child would
      reject it.  At b = 1 the candidates are the supersets of the
      deficient set.

    Gain floor: at b = 1 a set whose gain leaves the violated side
    below k arcs out is never tried, as the child would find that cut.
    In at-most mode a set with a vertex that has no neighbour inside
    it is skipped as it is read.

    lambda(UG(D)) >= 2k is necessary, as inversions keep UG(D), but it
    can only change the answer of a search that fails.  It is asked for
    at the first child that fails or before the second budget, whichever
    comes first, and the call returns None at once when it is below 2k.
    A call whose first descent finds a family never asks for it, and at
    most one descent (l_max + 1 nodes) runs before it.  The value is
    memoised on D's underlying multigraph, so it is computed once per
    digraph.

    Pruned subtrees hold no family and the other candidates keep their
    order, so the first family found stays the same."""
    _check_digraph(D, "exact_inv_kp")
    _validate_kp(k, p, mode)
    if isinstance(l_max, bool) or not isinstance(l_max, int) or l_max < 0:
        raise InvalidArgumentError(f"l_max must be a non-negative int, got {l_max!r}")
    n = D.n
    caps = D.caps_flat()
    outdeg, indeg = D._degree_lists()
    # a single vertex has no proper cut, so its degrees bound nothing
    short = sum(1 for v in range(n) if outdeg[v] < k or indeg[v] < k) if n > 1 else 0
    if short > l_max * p:
        return None  # the search would fail at every budget
    adj = [0] * n
    for (t, h) in D._m:
        adj[t] |= 1 << h
        adj[h] |= 1 << t

    def apply_set(xs):
        nonlocal short
        short -= sum(1 for v in xs if outdeg[v] < k or indeg[v] < k)
        for a, b in combinations(xs, 2):
            ab, ba = caps[a * n + b], caps[b * n + a]
            caps[a * n + b], caps[b * n + a] = ba, ab
            outdeg[a] += ba - ab
            indeg[b] += ba - ab
            outdeg[b] += ab - ba
            indeg[a] += ab - ba
        short += sum(1 for v in xs if outdeg[v] < k or indeg[v] < k)

    chain = []
    found = []

    def dfs(budget):
        # a k-arc-strong digraph has no deficient vertex, so this bound
        # goes first and saves the flows of the nodes it rejects
        if short > budget * p:
            return False
        side = _kernels.karc_deficient_cut(n, caps, k)
        if side == -1:
            found.append(list(chain))
            return True
        if budget == 0:
            return False
        # a node with a side has n >= 2
        deficient = [v for v in range(n) if outdeg[v] < k or indeg[v] < k]
        for xs in _exact_candidates(n, caps, adj, k, p, mode, side, budget, deficient):
            if xs in chain:
                continue  # repeated set cancels itself; minimum never repeats
            apply_set(xs)
            chain.append(xs)
            if dfs(budget - 1):
                return True
            chain.pop()
            apply_set(xs)
            if edge_connectivity(D.underlying()) < 2 * k:
                return False  # no family at any budget
        return False

    start = -(-short // p)
    for budget in range(start, l_max + 1):
        if budget > start and edge_connectivity(D.underlying()) < 2 * k:
            return None  # inversions keep the underlying multigraph
        if dfs(budget):
            return _verified(D, InversionFamily(found[0]), k, "exact search family")
    return None


# -- packing and matching -------------------------------------------------


def max_p3_packing(G):
    """Maximum number of vertex-disjoint 3-vertex paths in a simple
    graph, with a witness list of (end, center, end) triples."""
    if not isinstance(G, Multigraph):
        raise InvalidArgumentError("max_p3_packing expects a Multigraph")
    if any(m > 1 for _u, _v, m in G.edges()):
        raise InvalidArgumentError("parallel edges not allowed; a simple graph is required")
    n = G.n
    cands = []
    for b in range(n):
        nb = G.neighbors(b)
        for a, c in combinations(nb, 2):
            cands.append((a, b, c))
    by_vertex = [[] for _ in range(n)]
    for i, (a, b, c) in enumerate(cands):
        for v in (a, b, c):
            by_vertex[v].append(i)
    free = [True] * n
    best = [0, []]
    chosen = []

    def rec(v):
        while v < n and (not free[v] or not any(
            all(free[x] for x in cands[i]) for i in by_vertex[v]
        )):
            v += 1
        free_cnt = sum(free)
        if len(chosen) + free_cnt // 3 <= best[0]:
            return
        if v >= n:
            if len(chosen) > best[0]:
                best[0] = len(chosen)
                best[1] = list(chosen)
            return
        for i in by_vertex[v]:
            trip = cands[i]
            if all(free[x] for x in trip):
                for x in trip:
                    free[x] = False
                chosen.append(trip)
                rec(v + 1)
                chosen.pop()
                for x in trip:
                    free[x] = True
        # leave v unused
        free[v] = False
        rec(v + 1)
        free[v] = True

    rec(0)
    return best[0], [tuple(t) for t in best[1]]


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus a tuple of frozenset hyperedges."""

    n: int
    edges: tuple

    def __init__(self, n, edges):
        _check_count(n)
        es = []
        for e in edges:
            fe = frozenset(e)
            for v in fe:
                _check_vertex(v, n, "hyperedge vertex")
            if len(fe) < 2:
                raise InvalidArgumentError("hyperedges must have >= 2 vertices")
            es.append(fe)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(es))

    def uniformity(self):
        """Common edge size, or None if edges have mixed sizes."""
        sizes = {len(e) for e in self.edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None


def max_hypergraph_matching(H):
    """Maximum set of pairwise-disjoint hyperedges of an s-uniform
    hypergraph, with a witness.  Non-uniform input is rejected."""
    if not isinstance(H, Hypergraph):
        raise InvalidArgumentError("max_hypergraph_matching expects a Hypergraph")
    s = H.uniformity()
    if H.edges and s is None:
        raise InvalidArgumentError("hypergraph is not uniform")
    edges = list(H.edges)
    best = [0, []]
    chosen = []
    used = set()

    def rec(i):
        if s:
            bound = len(chosen) + (H.n - len(used)) // s
            if bound <= best[0]:
                return
        if i == len(edges):
            if len(chosen) > best[0]:
                best[0] = len(chosen)
                best[1] = list(chosen)
            return
        e = edges[i]
        if not (e & used):
            used.update(e)
            chosen.append(e)
            rec(i + 1)
            chosen.pop()
            used.difference_update(e)
        rec(i + 1)

    rec(0)
    return best[0], best[1]


# -- brute-force references (no kernels, no flows) ------------------------


def brute_min_dicut(D):
    """(value, side) minimizing out-degree over nonempty proper subsets;
    (INFINITY, None) when n <= 1.  Plain 2^n scan."""
    n = D.n
    if n <= 1:
        return INFINITY, None
    items = list(D._m.items())
    best = None
    best_side = None
    for mask in range(1, (1 << n) - 1):
        out = 0
        for (t, h), mm in items:
            if (mask >> t) & 1 and not (mask >> h) & 1:
                out += mm
        if best is None or out < best:
            best = out
            best_side = frozenset(v for v in range(n) if (mask >> v) & 1)
    return best, best_side


def brute_is_k_arc_strong(D, k):
    value, _side = brute_min_dicut(D)
    return value >= k


def brute_edge_connectivity(G):
    """Global edge-connectivity by 2^n cut scan; INFINITY for n <= 1."""
    n = G.n
    if n <= 1:
        return INFINITY
    items = list(G._m.items())
    best = None
    for mask in range(1, (1 << n) - 1):
        cut = 0
        for (u, v), mm in items:
            if ((mask >> u) & 1) != ((mask >> v) & 1):
                cut += mm
        if best is None or cut < best:
            best = cut
    return best


def brute_frames(G, k):
    """Frame blocks as the maximal vertex sets whose induced subgraph is
    k-edge-connected (singletons allowed), by subset scan.  Independent
    of the flow kernels; n <= 10."""
    n = G.n
    if n > 10:
        raise InvalidArgumentError("brute_frames is limited to n <= 10")
    good = []
    for mask in range(1, 1 << n):
        ids = [v for v in range(n) if (mask >> v) & 1]
        if len(ids) == 1:
            good.append(mask)
            continue
        sub, _ = G.induced(ids)
        lam = brute_edge_connectivity(sub)
        if lam >= k:
            good.append(mask)
    maximal = [m for m in good if not any(m != o and m & o == m for o in good)]
    blocks = sorted(
        tuple(v for v in range(n) if (m >> v) & 1) for m in maximal
    )
    covered = sorted(v for b in blocks for v in b)
    if covered != list(range(n)) or len(covered) != n:
        raise RuntimeError("maximal k-edge-connected sets do not partition the vertices")
    return blocks
