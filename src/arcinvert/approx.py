"""Approximation for the minimum number of (<=p)-inversions.

Pipeline: (1) an optimal family of pair inversions is computed exactly
(branch and bound; without parallel arcs, pair flips reach every
orientation of the simple arcs, so 2k-edge-connectivity makes this
feasible, see min_k2_inversion_set), (2) the
resulting k-arc-strong digraph is thinned to a minimal one D', (3) the
pairs are greedily packed into groups of floor(p/2) that are pairwise
independent in UG(D') and each group is replaced by the union of its
pairs, (4) packed unions plus unpacked pairs are returned.

Soundness: an arc of D' inside the union of a packed group would be a
third edge inside two independent pairs, which independence forbids, so
the output flips the arcs of D' exactly as the pair family did and the
result contains the k-arc-strong D'.  The output size is at most
eta(p, k) * OPT + (number of unpacked pairs), with
eta(p, k) = min(C(p,2), (2k-1)(p-1)) / floor(p/2).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import _kernels
from .core import (
    _check_digraph,
    _check_k,
    _check_p,
    _check_vertex,
    _strong_after,
    _verified,
    InversionFamily,
    MultiDigraph,
    Multigraph,
    edge_connectivity,
    is_k_arc_strong,
)
from .errors import InvalidArgumentError, PreconditionViolatedError


def _check_connected(D, k, what):
    _check_digraph(D, what)
    _check_k(k)
    if edge_connectivity(D.underlying()) < 2 * k:
        raise PreconditionViolatedError(f"underlying multigraph is not {2 * k}-edge-connected")


def min_k2_inversion_set(D, k, support=None):
    """Minimum family of pair inversions making D k-arc-strong.

    Exact iterative-deepening branch and bound: each chosen pair must
    cross the currently violated dicut and add arcs out of it (see
    _gaining_pairs).
    Requires the underlying multigraph 2k-edge-connected.  Returns None
    when no pair family works, which can happen only when D has
    parallel arcs (a pair flip swaps a bundle, it cannot split it) or
    when ``support`` restricts the pairs to a vertex subset.

    On a digraph a family always exists.  Flipping a pair {u, v}
    reverses the simple arc between u and v, if any, and changes
    nothing else, so pair families reach every orientation of the
    simple arcs with the digons held fixed.  A vertex set X crossed by
    d digons then needs at least k - d simple arcs out, and
    2k-edge-connectivity of UG(D) puts at least 2(k - d) simple arcs
    across X.  The orientation theorem of Nash-Williams (Canad. J.
    Math. 12, 1960), in Frank's form for crossing supermodular demands
    such as k - d, orients the simple arcs to meet every such demand
    at once."""
    _check_connected(D, k, "min_k2_inversion_set")
    if support is not None:
        support = {_check_vertex(v, D.n, "support vertex") for v in support}
    fam = _min_pairs(D, k, support)
    return None if fam is None else _verified(D, fam, k, "pair search family")


def _asymmetric_pairs(D, sup=None):
    """The pairs u < v of sup (default: all vertices) whose two arc
    counts differ, each mapped to a bit of its own.  Such a pair has an
    arc, so one pass over D's arc dict finds them all.  A flip swaps the
    two counts of its pair, so every pair keeps this property.  The bits
    only tell the pairs apart: the branch order comes from
    _gaining_pairs' sort."""
    m = D._m
    pairs = {}
    for (t, h), c in m.items():
        pr = (t, h) if t < h else (h, t)
        if pr not in pairs and m.get((h, t), 0) != c and (sup is None or (t in sup and h in sup)):
            pairs[pr] = 1 << len(pairs)
    return pairs


def _gaining_pairs(n, caps, side, pairs):
    """(-gain, pair) for each of pairs that crosses side and whose flip
    raises d+(side), sorted; gain is the arcs out of side it adds less
    those it removes.  Both pair stages branch on this list only.

    A pair whose gain is not positive is never needed first.  Flips of
    distinct pairs touch disjoint arcs, so their gains on a fixed cut
    add up.  Any set of unflipped pairs that lifts d+(side) from below
    k to at least k thus holds a pair Q of positive gain.  Q comes
    before every non-positive pair in (-gain, pair) order, and the
    search under Q, which is complete, finds a family within the same
    budget.  So no non-positive pair is ever the first branch to
    succeed, and dropping them keeps every search's first family."""
    out = []
    for (u, v) in pairs:
        if ((side >> u) & 1) != ((side >> v) & 1):
            lo, hi = (u, v) if (side >> u) & 1 else (v, u)
            gain = caps[hi * n + lo] - caps[lo * n + hi]
            if gain > 0:
                out.append((-gain, (u, v)))
    out.sort()
    return out


def _min_pairs(D, k, sup=None):
    """min_k2_inversion_set on checked inputs, before its verification;
    pairs lie within sup."""
    return _pair_search(D, k, _asymmetric_pairs(D, sup), {})


def _pair_search(D, k, allowed, memo):
    """The branch and bound of _min_pairs over the pairs of ``allowed``
    (as _asymmetric_pairs gives them), starting from ``memo``.

    The search state is the mask of flipped pairs, one bit per allowed
    pair.  Pair flips commute, so the mask fixes caps, and one memo
    keeps, for each mask tested, its deficient side and the largest
    budget under which its subtree failed, across all the deepening
    budgets: no budget re-tests a state, and no failed subtree is
    searched again with the same or a smaller budget.  An entry from an
    earlier budget never cuts a later one: under budget B a state of
    |mask| flips is always reached with budget B - |mask|, so what
    failed under B' < B was B' - |mask|, below the budget it meets
    now.  Within one budget the entry acts as a per-budget failed memo
    would, so every search meets the same nodes in the same order and
    returns the same family.  A caller may hand in entries
    {mask: (side, 0)} for states that are not k-arc-strong: that is
    what a first visit stores, so the search is the same without the
    backend call.

    A flip changes the degrees of its two vertices only, so the count
    of deficient vertices (out- or in-degree below k) is kept up to
    date by the flips instead of recounted at each node.  A child is
    its parent's matrix with one more pair swapped, so its kernel call
    gets the parent's side, read from the memo, and that pair as its
    ``after`` hint."""
    n = D.n
    caps = D.caps_flat()
    outdeg, indeg = D._degree_lists()
    # a single vertex has no proper cut, so its degrees bound nothing
    short = sum(1 for v in range(n) if outdeg[v] < k or indeg[v] < k) if n > 1 else 0

    def flip(u, v):
        nonlocal short
        before = (outdeg[u] < k or indeg[u] < k) + (outdeg[v] < k or indeg[v] < k)
        uv, vu = caps[u * n + v], caps[v * n + u]
        caps[u * n + v], caps[v * n + u] = vu, uv
        outdeg[u] += vu - uv
        indeg[v] += vu - uv
        outdeg[v] += uv - vu
        indeg[u] += uv - vu
        short += (outdeg[u] < k or indeg[u] < k) + (outdeg[v] < k or indeg[v] < k) - before

    chain = []

    def dfs(mask, budget):
        # a pair flip touches two vertices; a k-arc-strong digraph has no
        # deficient vertex, so this bound goes before the flows
        if short > 2 * budget:
            return None
        entry = memo.get(mask)
        if entry is None:
            after = None
            if chain:
                # the parent, one flip of chain[-1] back, has its side
                # in the memo
                last = chain[-1]
                after = (memo[mask ^ allowed[last]][0], *last)
            side = _kernels.karc_deficient_cut(n, caps, k, after)
            if side == -1:
                return InversionFamily(chain)
            # with no flip left, a state that is not k-arc-strong fails
            entry = memo[mask] = (side, 0)
        side, failed = entry
        if budget <= failed:
            return None
        for _g, pr in _gaining_pairs(n, caps, side, allowed):
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


def greedy_k2_inversion_set(D, k):
    """Heuristic pair family: repeatedly flip the crossing pair that
    raises the violated cut most, each pair at most once.  When the
    greedy pass gets stuck it falls back to the exact search.  No
    optimality guarantee either way."""
    _check_connected(D, k, "greedy_k2_inversion_set")
    return _verified(D, _greedy_pairs(D, k), k, "greedy repair family")


def _greedy_pairs(D, k):
    """greedy_k2_inversion_set on checked inputs, before its
    verification: the first unflipped pair of _min_pairs' candidate
    list, so the leftmost descent of the exact search (without its
    budget).

    The walk and its fallback share one pair list and one memo: every
    state the walk scanned is not k-arc-strong, and enters the memo with
    the entry a first visit of the exact search would store, so the
    fallback meets the same nodes in the same order and returns the
    same family without asking the kernel about those states again.
    Each step's kernel call gets the previous step's side and pair as
    its ``after`` hint."""
    n = D.n
    caps = D.caps_flat()
    allowed = _asymmetric_pairs(D)
    memo = {}
    mask = 0
    after = None
    while True:
        side = _kernels.karc_deficient_cut(n, caps, k, after)
        if side == -1:
            return InversionFamily(sorted(pr for pr, bit in allowed.items() if mask & bit))
        memo[mask] = (side, 0)
        pairs = (pr for _g, pr in _gaining_pairs(n, caps, side, allowed) if not mask & allowed[pr])
        best = next(pairs, None)
        if best is None:
            break
        u, v = best
        caps[u * n + v], caps[v * n + u] = caps[v * n + u], caps[u * n + v]
        mask |= allowed[best]
        after = (side, u, v)
    result = _pair_search(D, k, allowed, memo)
    if result is None:
        raise PreconditionViolatedError("no pair inversion family exists for this input")
    return result


def minimally_k_arc_strong(D, k):
    """Inclusion-minimal k-arc-strong subdigraph of a k-arc-strong D.

    Arcs are scanned once in sorted order; each unit is dropped when the
    digraph stays k-arc-strong without it.  The result has at most
    2k(n-1) arcs.

    One flow decides each unit t->h: if D is k-arc-strong, then D - th
    is k-arc-strong exactly when it still has k arc-disjoint t->h
    paths.  A cut S with fewer than k arcs out in D - th has at least k
    in D, so th leaves it: t is in S and h is not, and S caps the t->h
    flow below k.  Conversely a t->h flow below k gives such a cut.

    A unit t->h whose tail has at most k arcs out, or whose head at
    most k arcs in, stays without a flow: dropping it leaves the cut
    {t} or the complement of {h} below k."""
    _check_digraph(D, "minimally_k_arc_strong")
    _check_k(k)
    if not is_k_arc_strong(D, k):
        raise PreconditionViolatedError("input digraph is not k-arc-strong")
    return _minimal_core(D, k)


def _minimal_core(D, k):
    """minimally_k_arc_strong on a D already known to be k-arc-strong."""
    n = D.n
    caps = D.caps_flat()
    out, into = D._degree_lists()
    for (t, h, m) in D.arcs():
        for _unit in range(m):
            if out[t] <= k or into[h] <= k:
                break
            caps[t * n + h] -= 1
            if _kernels.st_max_flow(n, caps, t, h, k)[0] == k:
                out[t] -= 1
                into[h] -= 1
                continue
            caps[t * n + h] += 1
            break
    # units are only removed, so every arc left is an arc of D
    return MultiDigraph._trusted(n, {(t, h): caps[t * n + h] for (t, h) in D._m if caps[t * n + h]})


def _checked_pair(e, n):
    """frozenset of the pair e, once it is two int vertices of 0..n-1."""
    es = frozenset(e)
    if len(es) != 2:
        raise InvalidArgumentError("pairs must have exactly 2 vertices")
    for v in es:
        _check_vertex(v, n, "pair vertex")
    return es


def pairs_independent(e, f, G):
    """Independence of two vertex pairs in the multigraph G: no edge of
    G inside the union other than (possibly) e and f themselves, and
    neither pair doubled.  For two edges of G this says the union spans
    precisely those two edges; the pairs may share a vertex."""
    es = _checked_pair(e, G.n)
    fs = _checked_pair(f, G.n)
    if es == fs:
        raise InvalidArgumentError("expected two distinct vertex pairs")
    return _independent(es, fs, G)


def _independent(es, fs, G):
    """pairs_independent on two distinct checked pairs."""
    if G.mult(*es) > 1 or G.mult(*fs) > 1:
        return False
    union = sorted(es | fs)
    for x, y in combinations(union, 2):
        if frozenset((x, y)) in (es, fs):
            continue
        if G.mult(x, y) > 0:
            return False
    return True


def pack_independent_pairs(pairs, G, p):
    """Greedy packing of pair inversions into unions of floor(p/2)
    pairwise-independent pairs.

    Returns (packed_unions, leftover_pairs).  Scanning is canonical:
    pairs are kept sorted and the lexicographically first independent
    group is extracted until none is left.  Each pair must be two int
    vertices of G, and no pair may repeat: a pair flipped twice is
    not flipped, and its union with others would flip it once."""
    if not isinstance(G, Multigraph):
        raise InvalidArgumentError("pack_independent_pairs expects a Multigraph")
    _check_p(p, 3)
    seen = set()
    for e in pairs:
        es = _checked_pair(e, G.n)
        if es in seen:
            raise InvalidArgumentError(f"pair {sorted(es)} repeated")
        seen.add(es)
    remaining = sorted(seen, key=sorted)
    h = p // 2
    packed = []
    while len(remaining) >= h:
        group = None
        for idxs in combinations(range(len(remaining)), h):
            cand = [remaining[i] for i in idxs]
            if all(
                _independent(cand[i], cand[j], G)
                for i in range(len(cand))
                for j in range(i + 1, len(cand))
            ):
                group = idxs
                break
        if group is None:
            break
        union = frozenset().union(*(remaining[i] for i in group))
        packed.append(union)
        remaining = [e for i, e in enumerate(remaining) if i not in group]
    return packed, remaining


def eta(p, k):
    """Approximation factor min(C(p,2), (2k-1)(p-1)) / floor(p/2)."""
    _check_p(p, 3)
    _check_k(k)
    return Fraction(min(comb(p, 2), (2 * k - 1) * (p - 1)), p // 2)


def ramsey_bound_descriptor(p, k):
    """Symbolic vertex-count bound above which the packing always packs
    every group fully; kept symbolic (Ramsey numbers are not computed)."""
    return f"R({p // 2},{4 * k},{8 * k}) - 1"


@dataclass(frozen=True)
class ApproxTrace:
    """Audit record of one approximation run."""

    base_pairs: InversionFamily
    base_optimal: bool
    minimal_core: MultiDigraph
    packed: tuple
    leftover: tuple
    eta: Fraction
    ramsey_bound: str
    guarantee_void: bool


def approx_kp(D, k, p, heuristic=False):
    """Family of (<=p)-inversions making D k-arc-strong, with trace.

    Requires the underlying multigraph 2k-edge-connected and p >= 3.
    With heuristic=False the pair stage is optimal and the output size
    is at most eta(p, k) * OPT + len(leftover); heuristic=True swaps in
    the greedy pair repair and voids the guarantee (flagged in the
    trace).  The returned family is verified before being returned."""
    _check_p(p, 3)
    _check_connected(D, k, "approx_kp")
    base = _greedy_pairs(D, k) if heuristic else _min_pairs(D, k)
    if base is None:
        raise PreconditionViolatedError("no pair inversion family exists for this input")
    # the check of base hands back the k-arc-strong digraph it applied
    core = _minimal_core(_strong_after(D, base, k, "pair stage family"), k)
    packed, leftover = pack_independent_pairs(base, core.underlying(), p)
    family = InversionFamily(list(packed) + list(leftover))
    # an output with the pair family's sets applies to the digraph that
    # check just proved k-arc-strong
    if family.canonical() != base.canonical():
        _verified(D, family, k, "approximation output")
    trace = ApproxTrace(
        base_pairs=base,
        base_optimal=not heuristic,
        minimal_core=core,
        packed=tuple(packed),
        leftover=tuple(leftover),
        eta=eta(p, k),
        ramsey_bound=ramsey_bound_descriptor(p, k),
        guarantee_void=heuristic,
    )
    return family, trace
