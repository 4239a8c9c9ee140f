"""The GF(2) coset search below the structural threshold.

Every inversion family acts on the simple arcs of a digraph (arcs
without an opposite arc; digons never change) as the GF(2) sum of the
flip indicators of its sets, so the orientations it can reach form a
coset of the span of those indicators.  _gf2_search walks that coset
depth-first and returns the family of the least span element whose
orientation is k-arc-strong, or None.  It decides is_kp_invertible
below the threshold, builds the triple families of odd-p witnesses and
the fallback family where the simulation rules do not apply, and
oracles.gf2_reachable is its checked, verified public form.

Gf2Basis is the elimination the span is built in; simulation solves
its even-p plans in it too.  The search's own proofs live here as well:
_cycle_rank, the rank at which an exact-size odd-p span stops,
_degree_needs, the degree bound with its parity raise, _MixedReach, the
k = 1 prune, and _forced_parity_refuted with _cut_sizes, the refutation
over cuts of underlying size 2k.

The references it is tested against stay outside the production path:
oracles.orientation_bfs_reachable walks the orientation states with no
span at all, and the tests scan every span element in order.
"""

from itertools import combinations

from . import _kernels
from .core import _degrees, InversionFamily, is_k_arc_strong


class Gf2Basis:
    """Row basis over GF(2) with combination tracking.

    Vectors are int bitmasks.  Each stored row remembers which input
    rows (by insertion index bit) combine to it, so membership queries
    can report a witnessing subset.

    The pivot table is the whole basis: each row is filed under its
    leading bit, and rows lists them by leading bit, highest first.  A
    row never changes once added and no two rows share a leading bit,
    so that is the echelon order by decreasing vector in which the rows
    would be kept sorted on insertion."""

    def __init__(self):
        self._pivot = {}  # leading bit -> its row (vector, combo)

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


def _gf2_search(D, k, p, mode, refute=False):
    """The coset search on a checked digraph D whose underlying graph is
    2k-edge-connected: the family of sets of size p (or <= p) that the
    least k-arc-strong element of the coset comes from, or None; the
    family is not verified.  refute is set when the answer can be "no",
    and turns on the forced-parity refutation for n <= 16: it is set for
    sub-threshold decisions in feasibility and in oracles.gf2_reachable,
    and not for witnesses above the threshold, whose existence the
    decision has already proved.

    The span is built from the candidate sets in canonical order, and
    the DFS walks exactly its coset, one simple arc after another: arc i
    is bit m - 1 - i of the flip vector, so the DFS meets the bits from
    the highest down, the order in which the span basis is echelonized.
    An arc is free, and tries both directions, when a basis row has its
    leading bit there; otherwise the arcs placed before it fix its flip,
    and it is forced.  The DFS prunes a branch once a vertex can no
    longer reach the out- and in-degree _degree_needs gives it.

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
    At that backtrack the refutation over forced-parity cuts (every cut
    of underlying size 2k must end up with exactly k arcs out), which
    proves most "no" instances, k-obstructions included, runs when
    refute is set and n <= 16, and for k = 1 the _MixedReach prune switches on.  It is
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
    cycle_rank = _cycle_rank(n, p, mode, simple)
    rank = m if cycle_rank is None else cycle_rank
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
    out_need, in_need = _degree_needs(n, k, caps, simple, span, rank)
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


def _degree_needs(n, k, caps, simple, span, rank):
    """Out- and in-degree each vertex needs from its simple arcs in a
    k-arc-strong leaf of the coset search, given the fixed digon arcs
    in caps and the basis span of the candidate indicators, with simple
    arc i as bit m - 1 - i; values below 0 are 0.  rank is the rank the
    search stops its span at: m, or the _cycle_rank of exact-size odd p.

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
    it exactly when it is empty.  At a rank below m the span is the
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
    elif span.dim == rank:
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
