"""Exact and brute-force oracles, trustworthy at desk scale.

These are the reference implementations everything else is tested
against: GF(2) reachability of a k-arc-strong orientation under
bounded-size inversions, existence of k-arc-strong orientations of a
multigraph, exact minimum inversion families by branch and bound, exact
path-packing and hypergraph-matching solvers, and plain exponential
brute-force computations of cuts, connectivity and frames.

Dual routes are kept deliberately independent: the brute-force helpers
scan all 2^n subsets without touching the flow kernels, and the BFS
orientation-state oracle decides reachability without the GF(2) span.
"""

import random
from dataclasses import dataclass
from itertools import combinations

from . import _kernels
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

# -- GF(2) machinery ----------------------------------------------------


class Gf2Basis:
    """Row basis over GF(2) with combination tracking.

    Vectors are int bitmasks.  Each stored row remembers which input
    rows (by insertion index bit) combine to it, so membership queries
    can report a witnessing subset.

    The pivot table is the whole basis: each row is filed under its
    leading bit, and rows lists them by leading bit, highest first.  A
    row never changes once added and no two rows share a leading bit,
    so that is the echelon order by decreasing vector in which the rows
    would be kept sorted on insertion.

    cycle_rank is set by the coset search when it has proved the span
    to lie in the projection of a cycle space (see _cycle_rank): the
    dimension of that projection, which the span equals once it has
    that many rows; None otherwise."""

    def __init__(self):
        self._pivot = {}  # leading bit -> its row (vector, combo)
        self.cycle_rank = None

    def _reduce(self, vec, combo=0):
        # XOR in the row of every pivot set in vec, highest first
        rest = vec
        while rest:
            top = rest.bit_length() - 1
            row = self._pivot.get(top)
            if row is not None:
                vec ^= row[0]
                combo ^= row[1]
            rest = vec & ((1 << top) - 1)
        return vec, combo

    def add(self, vec, combo):
        """Insert a row; returns True if it enlarged the span."""
        vec, combo = self._reduce(vec, combo)
        if vec == 0:
            return False
        self._pivot[vec.bit_length() - 1] = (vec, combo)
        return True

    def solve(self, target):
        """Subset of inserted rows XOR-ing to target, as a combo mask;
        None if target is outside the span."""
        vec, combo = self._reduce(target)
        return combo if vec == 0 else None

    @property
    def rows(self):
        """The rows as (vector, combo), echelon by leading bit."""
        return [self._pivot[top] for top in sorted(self._pivot, reverse=True)]

    @property
    def dim(self):
        return len(self._pivot)


# -- GF(2) reachability of a k-arc-strong orientation -------------------


def _candidate_sets(n, p, mode, indicator):
    """Vertex sets with a nonzero flip indicator, in canonical order,
    each with its indicator; a generator, so that a caller that stops
    early computes no further indicator."""
    sizes = [p] if mode == "exact-size" else range(2, p + 1)
    for size in sizes:
        for xs in combinations(range(n), size):
            ind = indicator(xs)
            if ind:
                yield xs, ind


def _validate_kp(k, p, mode):
    _check_k(k)
    _check_p(p)
    if mode not in ("exact-size", "at-most"):
        raise InvalidArgumentError(f"mode must be 'exact-size' or 'at-most', got {mode!r}")


def gf2_reachable(D, k, p, mode="exact-size"):
    """Inversion family (sets of size p, or <= p) making D k-arc-strong,
    or None if no such family exists.  Exact for digraphs of any size,
    intended for small n.

    The effect of any family on the simple arcs (arcs without an
    opposite arc; digons never change) is the GF(2) sum of the flip
    indicators of its sets, so the reachable orientations form a coset
    of the indicator span.  The span is built from the candidate sets
    in canonical order and stops at the rank it is known to reach (full
    rank m, or for exact-size odd p the rank _cycle_rank gives), once
    that many of them have enlarged it: past that point no candidate can
    change the basis, so the search and its family are those of the
    whole span.  The search walks exactly that coset, one simple arc
    after another: arc i is
    bit m - 1 - i of the flip vector, so the DFS meets the bits from
    the highest down, the order in which the span basis is echelonized.
    An arc is free, and tries both directions, when a basis row has its
    leading bit there; otherwise the arcs placed before it fix its
    flip, and it is forced.
    The DFS prunes a branch once a vertex can no longer reach k arcs out
    or in; where every family flips an even number of a vertex's simple
    arcs (its star is orthogonal to the span), its degrees keep their
    parity, and it must reach the least value >= k of that parity.  For
    n <= 16 a refutation over forced-parity cuts (every cut of
    underlying size 2k must end up with exactly k arcs out) proves most
    "no" instances, k-obstructions included, once the DFS first
    backtracks; a descent that meets a k-arc-strong leaf first has
    answered "yes" without it.  For k = 1 the DFS prunes, from that
    backtrack on, every placement after which no orientation of the
    unplaced arcs is strongly connected.  The same search runs with the
    refutation for sub-threshold decisions in feasibility, and without
    it for witnesses above the threshold, whose existence the decision
    has already proved."""
    _check_digraph(D, "gf2_reachable", simple=True)
    _validate_kp(k, p, mode)
    if edge_connectivity(D.underlying()) < 2 * k:
        return None  # inversions keep the underlying multigraph
    fam = _gf2_search(D, k, p, mode, refute=True)
    return None if fam is None else _verified(D, fam, k, "coset search family")


def _gf2_search(D, k, p, mode, refute=False):
    """The coset search of gf2_reachable on a checked digraph D whose
    underlying graph is 2k-edge-connected; the family it returns is not
    verified.  refute is set when the answer can be "no", and turns on
    the forced-parity refutation for n <= 16.

    The search keeps x, the span element the placed arcs fix, and
    combo, the candidates whose indicators sum to x.  A free arc whose
    tried flip differs from x's bit XORs its basis row into both; that
    row leads at the arc's own bit, so the placed bits stay.  The first
    k-arc-strong leaf is the least such x, and since only candidates
    that enlarged the span get a combo bit, its combo names the one
    family.

    The span is built only up to the rank it can reach: m, or the
    _cycle_rank of exact-size odd p.  Once that many candidates have
    enlarged it, every later indicator reduces to 0 and Gf2Basis.add
    would leave the rows, the pivots and the kept sets as they are, so
    the rest of the candidates are neither generated nor reduced.

    Proofs are paid for only from the DFS's first backtrack (its first
    failed leaf, or the first node none of whose directions passes): a
    descent that reaches a k-arc-strong leaf before it has its answer.
    At that backtrack the refutation runs when refute is set and
    n <= 16, and for k = 1 the _MixedReach prune switches on.  It is
    built from the placed arcs, cuts the path back to its longest
    prefix that some orientation completes to a strong one, and from
    then on keeps a placement only while the mixed graph stays strongly
    connected.  Both rules cut only subtrees without a k-arc-strong
    leaf and neither changes the DFS order, so the family stays the
    same.

    A D past the first line has a simple arc.  A digraph (no parallel
    arcs) with digons alone has d+(S) = d-(S) = d_UG(S) / 2 at every
    cut S, which is at least k because every caller checks that UG(D)
    is 2k-edge-connected first; such a D is k-arc-strong and has
    returned the empty family."""
    if is_k_arc_strong(D, k):
        return InversionFamily([])
    n = D.n
    simple = D.simple_arcs()
    m = len(simple)
    bit = [0] * (n * n)  # flip bit of the simple arc on each vertex pair
    for i, (t, h) in enumerate(simple):
        bit[t * n + h] = bit[h * n + t] = 1 << (m - 1 - i)

    def indicator(xs):
        ind = 0
        for a, b in combinations(xs, 2):
            ind |= bit[a * n + b]
        return ind

    span = Gf2Basis()
    span.cycle_rank = _cycle_rank(n, p, mode, simple)
    rank = m if span.cycle_rank is None else span.cycle_rank
    kept = []  # candidate sets that enlarged the span, by combo bit
    for xs, ind in _candidate_sets(n, p, mode, indicator):
        if span.add(ind, 1 << len(kept)):
            kept.append(xs)
            if len(kept) == rank:
                break  # no later candidate enlarges the span

    caps = [0] * (n * n)
    for (t, h), mm in D._m.items():
        if not bit[t * n + h]:  # digon arcs are fixed
            caps[t * n + h] = mm
    # still-needed out- and in-degree, capped at 0
    out_need, in_need = _degree_needs(n, k, caps, simple, span)
    remaining = [0] * n
    for t, h in simple:
        remaining[t] += 1
        remaining[h] += 1
    prune = None  # the k = 1 _MixedReach, from the first backtrack on

    def unplace(i, flipped, saved):
        t, h = simple[i]
        remaining[t] += 1
        remaining[h] += 1
        if flipped:
            t, h = h, t
        caps[t * n + h] -= 1
        out_need[t], in_need[h] = saved
        if prune is not None:
            prune.tail[i] = -1

    pivot = span._pivot
    # depth-first over the arcs in index order with an explicit stack:
    # path holds (bit, saved needs, x and combo before it) of every
    # placed arc, pending the untried bits of every arc up to the one
    # being placed, the first one last
    path = []
    pending = [[1, 0] if m - 1 in pivot else [0]]
    x = combo = 0
    backtracked = False
    while pending:
        i = len(path)
        if pending[-1]:
            b = pending[-1].pop()
            t0, h0 = simple[i]
            t, h = (h0, t0) if b else (t0, h0)
            saved = (out_need[t], in_need[h])
            caps[t * n + h] += 1
            if saved[0]:
                out_need[t] -= 1
            if saved[1]:
                in_need[h] -= 1
            remaining[t0] -= 1
            remaining[h0] -= 1
            if not (
                out_need[t0] <= remaining[t0]
                and in_need[t0] <= remaining[t0]
                and out_need[h0] <= remaining[h0]
                and in_need[h0] <= remaining[h0]
                and (prune is None or prune.keeps(i, t, h))
            ):
                unplace(i, b, saved)
                continue
            before = (x, combo)
            at = m - 1 - i
            if (x >> at) & 1 != b:  # a free arc: forced ones take x's bit
                row, row_combo = pivot[at]
                x ^= row
                combo ^= row_combo
            if at:
                path.append((b, saved, before))
                pending.append([1, 0] if at - 1 in pivot else [(x >> (at - 1)) & 1])
                continue
            if _kernels.karc_deficient_cut(n, caps, k) == -1:
                return InversionFamily([xs for j, xs in enumerate(kept) if (combo >> j) & 1])
            unplace(i, b, saved)  # a failed leaf
            x, combo = before
            depth = i  # keep the path, try the leaf's other bit
        else:
            depth = i - 1  # every bit of arc i is tried: back to arc i - 1
        if not backtracked and depth >= 0:
            backtracked = True
            if refute and n <= 16 and _forced_parity_refuted(D, k, simple, span):
                return None
            if k == 1:
                prune = _MixedReach(D, simple)
                for j, (b, _saved, _before) in enumerate(path):
                    t0, h0 = simple[j]
                    if not (prune.keeps(j, h0, t0) if b else prune.keeps(j, t0, h0)):
                        depth = min(depth, j)  # no strong completion through arc j
                        break
        # back to arc depth: keep the first depth placements, and the
        # untried bits of arc depth are pending[-1]
        while len(pending) > depth + 1:
            pending.pop()
            if path:
                b, saved, (x, combo) = path.pop()
                unplace(len(path), b, saved)
    return None


def _cycle_rank(n, p, mode, simple):
    """The rank of the exact-size odd-p candidate span, for p = 3, and
    for odd p >= 5 from n = p + 2 on; None for the other searches.

    A p-set's indicator is the simple-arc part of the edge set of the
    complete graph K_p on it.  For odd p that is an even subgraph of
    K_n, and for p = 1 mod 4 it also has an even number of edges.  So
    the span lies in the projection onto the simple arcs of the cycle
    space Z of K_n (p = 3 mod 4), or of its even part (p = 1 mod 4).
    The K_p span all of that space when p = 3 or n >= p + 2; the
    simulation plans are the constructive proof.

    The vectors of GF(2)^S orthogonal to a projection are those of the
    orthogonal complement of the space that lie in S.  Let Q be the
    graph of free pairs: vertex pairs without a simple arc, that is,
    non-adjacent pairs and digons.  For Z the complement is the cut
    space, and a cut delta(X) lies in S iff X is a union of components
    of Q: c(Q) - 1 dimensions.  For the even part, the complements of
    those cuts join in, and such a complement lies in S iff every free
    pair crosses X: possible iff Q is bipartite, one more dimension.
    So the rank is m - c(Q) + 1 for p = 3 mod 4, and m - c(Q) + [Q has
    an odd cycle] for p = 1 mod 4.

    Where the K_p do not span the whole space (p = 5 at n = 5 or 6, for
    example) the span stays below this rank, so stopping at it would be
    safe there too, but the rank would never be reached; those
    searches get None and stop at m, as every even p and at-most search
    does."""
    if mode != "exact-size" or p % 2 == 0 or p == 1 or (p > 3 and n < p + 2):
        return None
    everyone = (1 << n) - 1
    free = [everyone ^ (1 << v) for v in range(n)]  # Q-neighbours of each vertex
    for t, h in simple:
        free[t] ^= 1 << h
        free[h] ^= 1 << t
    parts = 0
    odd = False
    unseen = everyone
    while unseen:  # breadth-first through each component, a layer at a time
        parts += 1
        layer = unseen & -unseen
        unseen ^= layer
        while layer:
            reached = 0
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                odd = odd or bool(free[v] & layer)  # an edge inside a layer
                reached |= free[v]
            layer = reached & unseen
            unseen ^= layer
    return len(simple) - parts + (1 if p % 4 == 3 else odd)


class _MixedReach:
    """The k = 1 prune of the coset search, on the mixed graph of a DFS
    prefix: placed simple arcs go one way, unplaced simple arcs and
    digons both ways.

    A mixed multigraph has a strongly connected orientation iff it is
    strongly connected and no undirected edge is a bridge (Boesch and
    Tindell, "Robbins's theorem for mixed multigraphs", Amer. Math.
    Monthly 87, 1980).  The search never changes the underlying graph,
    which every caller has checked to be 2-edge-connected, so no bridge
    appears, and with nothing placed the mixed graph is strongly
    connected.  From a strongly connected prefix, placing t -> h keeps
    it so iff h still reaches t.  The test walks neighbour lists and
    stops when it meets t."""

    def __init__(self, D, simple):
        m = len(simple)
        self.tail = [-1] * (m + 1)  # tail of each placed simple arc, else -1
        # (neighbour, arc index) at each vertex; digons have index m,
        # whose tail stays -1, so they go both ways
        self.nbrs = [[] for _ in range(D.n)]
        for j, (t, h) in enumerate(simple):
            self.nbrs[t].append((h, j))
            self.nbrs[h].append((t, j))
        for t, h in D._m:
            if D.has_arc(h, t):
                self.nbrs[t].append((h, m))

    def keeps(self, i, t, h):
        """Places simple arc i as t -> h and returns True if h still
        reaches t; otherwise leaves it unplaced and returns False."""
        tail = self.tail
        tail[i] = t
        seen = {h}
        stack = [h]
        while stack:
            u = stack.pop()
            for v, j in self.nbrs[u]:
                if v not in seen and (tail[j] < 0 or tail[j] == u):
                    if v == t:
                        return True
                    seen.add(v)
                    stack.append(v)
        tail[i] = -1
        return False


def _degree_needs(n, k, caps, simple, span):
    """Out- and in-degree each vertex needs from its simple arcs in a
    k-arc-strong leaf of the coset search, given the fixed digon arcs
    in caps and the basis span of the candidate indicators, with simple
    arc i as bit m - 1 - i; values below 0 are 0.

    A vertex whose simple-arc star is orthogonal to every candidate
    indicator has an even number of its simple arcs flipped by every
    family.  Each flip moves its out-degree by one, so its out-degree
    keeps its parity, and so does its in-degree: it needs the least
    value >= k of that parity, k or k + 1.  Tournaments under odd-size
    inversions are the common case (a set of odd size spans an even
    number of arcs at each member).  The bound cuts only subtrees
    without a k-arc-strong leaf and leaves the DFS order alone, so the
    first family found stays the same.

    Two spans are read without scanning a row.  At full rank (span.dim
    == m) the span holds every unit vector, so a star is orthogonal to
    it exactly when it is empty.  At its cycle_rank the span is the
    projection of a cycle space, and a star is orthogonal to it iff it
    is a cut of K_n, or for the even part a cut's complement, that lies
    in the simple arcs (see _cycle_rank).  Inside one vertex's star lie
    only the empty cut and the vertex's own cut (no cut's complement
    does once n >= 4), so a vertex keeps its parity iff it has no simple
    arc or no free pair."""
    out_have, in_have = _degrees(n, caps)
    simple_out = [0] * n
    simple_in = [0] * n
    for t, h in simple:
        simple_out[t] += 1
        simple_in[h] += 1
    m = len(simple)
    if span.dim == m:
        even = [not (simple_out[v] + simple_in[v]) for v in range(n)]
    elif span.dim == span.cycle_rank:
        even = [simple_out[v] + simple_in[v] in (0, n - 1) for v in range(n)]
    else:
        star = [0] * n
        for i, (t, h) in enumerate(simple):
            star[t] |= 1 << (m - 1 - i)
            star[h] |= 1 << (m - 1 - i)
        rows = span.rows
        even = [not any(bin(s & row).count("1") & 1 for row, _c in rows) for s in star]
    out_need = [0] * n
    in_need = [0] * n
    for v in range(n):
        out_want = in_want = k
        if even[v]:
            out_want += (out_have[v] + simple_out[v] - k) % 2
            in_want += (in_have[v] + simple_in[v] - k) % 2
        out_need[v] = max(0, out_want - out_have[v])
        in_need[v] = max(0, in_want - in_have[v])
    return out_need, in_need


def _cut_sizes(G):
    """Edges of G leaving each vertex set, indexed by its bitmask.

    cut[mask] = cut[rest] + deg(low) - 2 w(low, rest), with low the
    lowest vertex of mask and rest = mask without it.  The masks whose
    lowest vertex is low are low | (r << low + 1), and the weight from
    low into r is that into r without its lowest vertex plus one edge
    weight, so each mask costs O(1)."""
    n = G.n
    edge_w = [[0] * n for _ in range(n)]
    for (u, v), mm in G._m.items():
        edge_w[u][v] += mm
        edge_w[v][u] += mm
    cut = [0] * (1 << n)
    for low in range(n - 1, -1, -1):  # rest has higher vertices only
        shift = low + 1
        w_low = edge_w[low]
        deg = sum(w_low)
        bit = 1 << low
        w = [0] * (1 << (n - shift))
        cut[bit] = deg
        for r in range(1, 1 << (n - shift)):
            lb = r & -r
            w[r] = w[r ^ lb] + w_low[low + lb.bit_length()]
            rest = r << shift
            cut[rest | bit] = cut[rest] + deg - 2 * w[r]
    return cut


def _forced_parity_refuted(D, k, simple, span):
    """Provable-'no' check: find tight cuts whose forced flip parities
    are GF(2)-inconsistent with the candidate span.

    Every S with d_G(S) = 2k must have exactly k arcs out in any
    k-arc-strong orientation, which forces the parity of flipped simple
    edges across S.  If some XOR of these constraint vectors is
    orthogonal to the whole span while its parities XOR to 1, no family
    can work.  Such an XOR is exactly a way to write the parity-only
    vector (bit 0) as a sum of rows, so one basis and one solve decide
    it."""
    n = D.n
    m = len(simple)
    cut = _cut_sizes(D.underlying())
    span_vecs = [v for v, _ in span.rows]
    rows = []
    for mask in range(1, (1 << n) - 1):
        if cut[mask] != 2 * k:
            continue
        delta = 0
        for i, (t, h) in enumerate(simple):
            if ((mask >> t) & 1) != ((mask >> h) & 1):
                delta |= 1 << (m - 1 - i)
        digon_cross = 0
        simple_out = 0
        for (t, h), mm in D._m.items():
            if (mask >> t) & 1 and not (mask >> h) & 1:
                if D.has_arc(h, t):
                    digon_cross += mm
                else:
                    simple_out += mm
        pi = (k - digon_cross - simple_out) % 2
        sig = 0
        for j, bv in enumerate(span_vecs):
            if bin(delta & bv).count("1") & 1:
                sig |= 1 << (j + 1)
        rows.append(sig | pi)  # parity bit lives at position 0
    full = Gf2Basis()
    for r in rows:
        full.add(r, 0)
    return full.solve(1) is not None


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

    moves = [ind for _xs, ind in _candidate_sets(n, p, mode, indicator)]
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
    them, which fixes g, and the rest.  The Y sets are scored first and
    the X sets built one gain level at a time, as they are read; most
    nodes read one level.  At budget 1 a Y with d+(S) + g < k is
    dropped: its child would fail on S.  In at-most mode a set with a
    vertex that has no neighbour inside is skipped as it is read:
    dropping that vertex keeps the effect, so minimal families never
    use it."""
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
    # the child keeps at most (budget - 1) * p deficient vertices
    # outside the set, so the set holds at least need of them
    need = len(short) - (budget - 1) * p
    more = [v for v in short if not (paired >> v) & 1]
    other = [v for v in range(n) if not (paired >> v) & 1 and v not in short]
    if budget == 1:
        # every deficient vertex goes in: those on pairs with Y, the
        # others (more) with the rest
        seed = tuple(v for v in short if (paired >> v) & 1)
        top = sizes[-1] - len(more)
        floor = k - d_out
    else:
        seed, top, floor = (), sizes[-1], None
    ends = [v for v in range(n) if (paired >> v) & 1 and v not in seed]
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
    for g in sorted(levels, reverse=True):
        level = []
        for ys in levels[g]:
            lack = max(need - sum(1 for v in ys if v in short), 0)
            for size in sizes:
                free = size - len(ys)
                for j in range(lack, min(free, len(more)) + 1):
                    for ext in combinations(more, j):
                        for fill in combinations(other, free - j):
                            level.append(tuple(sorted(ys + ext + fill)))
        level.sort()
        for xs in level:
            if mode == "at-most":
                msk = 0
                for v in xs:
                    msk |= 1 << v
                if any(not (adj[v] & (msk ^ (1 << v))) for v in xs):
                    continue
            yield xs


def exact_inv_kp(D, k, p, mode="exact-size", l_max=4):
    """Minimum family of (=p or <=p)-inversions making D k-arc-strong,
    or None if no family of at most l_max sets works.

    Branch and bound: at each node a violated dicut is computed and the
    next set must contain some crossing pair with asymmetric arc counts
    (otherwise that cut stays below k forever).  Multidigraph inputs
    are allowed; sets act by swapping the two arc bundles of each
    internal pair.  A node tries its sets by decreasing gain, the arcs
    they add out of the violated side, ties by the sets themselves
    (_exact_candidates builds them lazily, one gain level at a time).

    Degree bound: a set changes the degrees of its own vertices only,
    so b more sets mend at most b * p deficient vertices (those with
    fewer than k arcs out or in), and a k-arc-strong digraph has none.
    A node with b sets left fails at once when more than b * p vertices
    are deficient.  The bound does two more things:

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
    outdeg, indeg = _degrees(n, caps)

    def deficient():
        # a single vertex has no proper cut, so its degrees bound nothing
        if n < 2:
            return []
        return [v for v in range(n) if outdeg[v] < k or indeg[v] < k]

    first = len(deficient())
    if first > l_max * p:
        return None  # the search would fail at every budget
    adj = [0] * n
    for (t, h) in D._m:
        adj[t] |= 1 << h
        adj[h] |= 1 << t

    def apply_set(xs):
        for a, b in combinations(xs, 2):
            ab, ba = caps[a * n + b], caps[b * n + a]
            caps[a * n + b], caps[b * n + a] = ba, ab
            outdeg[a] += ba - ab
            indeg[b] += ba - ab
            outdeg[b] += ab - ba
            indeg[a] += ab - ba

    chain = []
    found = []

    def dfs(budget):
        # a k-arc-strong digraph has no deficient vertex, so this bound
        # goes first and saves the flows of the nodes it rejects
        short = deficient()
        if len(short) > budget * p:
            return False
        side = _kernels.karc_deficient_cut(n, caps, k)
        if side == -1:
            found.append(list(chain))
            return True
        if budget == 0:
            return False
        for xs in _exact_candidates(n, caps, adj, k, p, mode, side, budget, short):
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

    start = -(-first // p)
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
