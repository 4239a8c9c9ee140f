"""Simulating one small inversion by a family of (=p)-inversions.

Inverting a pair, triple or quintuple can be reproduced exactly by a
family of inversions all of size p, which is how witnesses for one
inversion size get translated into another.  The recipes are private
set builders on checked arguments, and one private route, _plan_sets,
turns a list of targets into their plan sets, finding what depends on
the digraph alone once.  Each public simulate_* call checks its
arguments once and re-verifies, by application, the one plan it
returns.  The witness route of feasibility calls _plan_sets directly:
it builds no SimulationPlan and checks no plan, and the family it
merges is verified once, by feasibility._finish.

Size recipes (n >= p+2 throughout):

* p = 3 mod 4: for a triple S take the smallest (p-1)-set X disjoint
  from S; the sets X_i u S over all (p-3)-subsets X_i of X compose to
  exactly Inv(S).  Plan size C(p-1, 2); for p = 3 the plan is {S}.
* p = 1 mod 4: for a quintuple R the same trick works with a (p-3)-set
  and (p-5)-subsets (size C(p-3, 2)); a triple is reduced to quintuples
  through a fixed independent triple I (no edges inside), because
  inverting an independent set is a no-op.  Needs independence number
  >= 3, otherwise UnsupportedError.
* p even >= 4: inverting one arc e is solved as a GF(2) system over the
  p-subsets of a small window containing e and a digon or non-adjacent
  pair (a digon-free tournament is UnsupportedError); a window of p+2
  vertices always suffices (see simulate_pair).
"""

from dataclasses import dataclass
from itertools import combinations

from .core import InversionFamily, _check_digraph, _check_p, _check_vertex, _is_int, apply_inversions
from .errors import (
    InvalidArgumentError,
    PreconditionViolatedError,
    UnsupportedError,
)
from .parity import Gf2Basis


@dataclass(frozen=True)
class SimulationPlan:
    """Family of (=p)-sets whose application equals inverting target
    (and then companion, when set)."""

    target: tuple
    p: int
    sets: tuple
    companion: tuple | None = None

    def family(self):
        return InversionFamily(self.sets)

    def verify(self, D):
        """True iff applying the plan equals inverting the target(s)."""
        direct = [self.target] + ([self.companion] if self.companion else [])
        return apply_inversions(D, self.sets) == apply_inversions(D, direct)


def _validate(D, S, size, p, odd=True, one_mod_4=False):
    """The sorted target S, once D, S, p and n >= p + 2 are checked in
    that order; odd=False when the caller has checked its even p."""
    _check_digraph(D, "simulation", simple=True)
    s = sorted({_check_vertex(v, D.n) for v in S})
    if len(s) != size:
        raise InvalidArgumentError(f"target must have exactly {size} distinct vertices")
    if odd:
        _check_p(p)
        if p % 2 == 0:
            raise InvalidArgumentError(f"p must be odd, got {p}")
        if one_mod_4 and p % 4 == 3:
            raise InvalidArgumentError(f"p mod 4 must be in [1], got {p} (p mod 4 = 3)")
    if D.n < p + 2:
        raise PreconditionViolatedError(f"need n >= p+2 = {p + 2}, got n = {D.n}")
    return s


def _smallest_disjoint(n, avoid, size):
    out = []
    av = set(avoid)
    for v in range(n):
        if v not in av:
            out.append(v)
            if len(out) == size:
                return out
    raise PreconditionViolatedError(f"not enough vertices outside {sorted(av)}")


def _checked(D, s, p, sets, companion=None):
    """The plan of sets for the sorted target s, once it is seen to act
    as inverting s (and then companion)."""
    plan = SimulationPlan(target=tuple(s), p=p, sets=sets, companion=companion)
    if not plan.verify(D):
        raise RuntimeError("internal error: simulation plan failed verification")
    return plan


def independent_triple(G):
    """Lexicographically smallest independent triple of G, or None.

    Each vertex keeps the mask of its later non-neighbours; a is the
    first vertex whose mask holds some b that shares a later
    non-neighbour c with a."""
    n = G.n
    later = [((1 << n) - 1) >> (v + 1) << (v + 1) for v in range(n)]
    for (u, v) in G._m:
        later[u] &= ~(1 << v)  # u < v
    for a in range(n):
        rest = later[a]
        while rest:
            b = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            common = rest & later[b]
            if common:
                return [a, b, (common & -common).bit_length() - 1]
    return None


def _padded(n, core, p):
    """The p-sets X_i u core over the (p - |core|)-subsets X_i of the
    smallest (p - |core| + 2)-set disjoint from core."""
    ext = _smallest_disjoint(n, core, p - len(core) + 2)
    return tuple(frozenset(xi) | frozenset(core) for xi in combinations(ext, p - len(core)))


def _disjoint_triples(n, r, r2, p):
    """Sets inverting the disjoint sorted triples r and then r2; p = 1 mod 4.

    Composes the quintuple sets of (r minus u) u r2 over u in r: pairs
    inside r are flipped once, pairs inside r2 three times, cross pairs
    twice, which is exactly Inv(r) followed by Inv(r2)."""
    parts = (_padded(n, sorted((set(r) - {u}) | set(r2)), p) for u in r)
    return InversionFamily.symmetric_difference(*parts).sets


def _via_independent(n, s, ind, p):
    """Sets inverting the sorted triple s through the independent triple ind.

    s meets ind in at most 2 vertices: simulate_triple never calls this
    for an independent s, and the recursion below passes a triple
    that meets ind in exactly 2."""
    overlap = len(set(s) & set(ind))
    if overlap == 0:
        return _disjoint_triples(n, s, ind, p)
    if overlap == 2:
        s2 = _smallest_disjoint(n, set(s) | set(ind), 3)
        first = _disjoint_triples(n, ind, s2, p)
    else:
        # route through a triple sharing two vertices with ind
        v = _smallest_disjoint(n, set(s) | set(ind), 1)[0]
        s2 = sorted((set(ind) - set(s)) | {v})
        first = _via_independent(n, s2, ind, p)
    second = _disjoint_triples(n, s, s2, p)
    return InversionFamily.symmetric_difference(first, second).sets


def _plan_sets(D, targets, p):
    """The plan sets of each sorted target of the simple digraph D, in
    order: pairs for even p >= 4, triples for odd p; n >= p + 2.

    The public calls and the witness route share it.  What depends on D
    alone is found once, on the first target that needs it: the anchor
    of the pair windows for even p, the independent triple for p = 1
    mod 4.  A target whose inversion changes nothing (a digon or
    non-adjacent pair, an independent triple) needs neither and gets the
    empty plan."""
    n, m = D.n, D._m
    fact = None  # the anchor (even p) or the independent triple, once found
    out = []
    for s in targets:
        if p % 4 == 3:
            out.append(_padded(n, s, p))
            continue
        if p % 2:
            noop = not any(D.underlying().adjacent(u, v) for u, v in combinations(s, 2))
        else:
            noop = ((s[0], s[1]) in m) == ((s[1], s[0]) in m)
        if noop:
            out.append(())
            continue
        if fact is None:
            fact = independent_triple(D.underlying()) if p % 2 else _anchor(m, n)
            if fact is None:
                raise UnsupportedError(
                    "no independent triple found; p = 1 mod 4 needs independence number >= 3"
                    if p % 2
                    else "digon-free tournament: inverting one arc cannot be simulated by (=p)-sets"
                )
        out.append(_via_independent(n, s, fact, p) if p % 2 else _window_sets(D, *s, fact, p))
    return out


def _anchor(m, n):
    """The first pair a < b without a simple arc (a digon or no arc)."""
    for a, b in combinations(range(n), 2):
        if ((a, b) in m) == ((b, a) in m):
            return a, b
    return None


def _window_sets(D, u, v, anchor, p):
    """Sets inverting the simple arc between u and v through the anchor
    pair (see simulate_pair)."""
    m = D._m
    ends = {u, v, *anchor}
    window = sorted(ends.union(_smallest_disjoint(D.n, ends, p + 2 - len(ends))))
    # bit j of a set's row is the j-th simple arc inside the window, in
    # sorted order
    inside = [(t, h) for t in window for h in window if (t, h) in m and (h, t) not in m]
    target_bit = inside.index((u, v) if (u, v) in m else (v, u))
    basis = Gf2Basis()
    cands = list(combinations(window, p))
    for ci, xs in enumerate(cands):
        xset = set(xs)
        ind = 0
        for j, (t, h) in enumerate(inside):
            if t in xset and h in xset:
                ind |= 1 << j
        basis.add(ind, 1 << ci)
    combo = basis.solve(1 << target_bit)
    if combo is None:
        raise RuntimeError("internal error: no (=p)-plan for a single arc inside its window")
    return tuple(frozenset(cands[ci]) for ci in range(len(cands)) if (combo >> ci) & 1)


def simulate_quintuple(D, R, p):
    """Plan of (=p)-sets equal to inverting the 5-set R; p = 1 mod 4."""
    r = _validate(D, R, 5, p, one_mod_4=True)
    return _checked(D, r, p, _padded(D.n, r, p))


def simulate_disjoint_triples(D, R, R2, p):
    """Plan of (=p)-sets equal to inverting the disjoint triples R and
    then R2; p = 1 mod 4 (see _disjoint_triples)."""
    r = _validate(D, R, 3, p, one_mod_4=True)
    r2 = sorted({_check_vertex(v, D.n) for v in R2})
    if len(r2) != 3:
        raise InvalidArgumentError("companion must have exactly 3 distinct vertices")
    if set(r) & set(r2):
        raise InvalidArgumentError("the two triples must be disjoint")
    return _checked(D, r, p, _disjoint_triples(D.n, r, r2, p), tuple(r2))


def simulate_triple(D, S, p):
    """Plan of (=p)-sets equal to inverting the 3-set S; p odd >= 3.

    For p = 1 mod 4 an independent triple I is fixed and S is reduced to
    the disjoint-triples case by |S n I|; independence number < 3
    raises UnsupportedError."""
    s = _validate(D, S, 3, p)
    return _checked(D, s, p, _plan_sets(D, [s], p)[0])


def simulate_pair(D, e, p):
    """Plan of (=p)-sets equal to inverting the pair e; p even >= 4.

    A digon or non-adjacent pair is a no-op to invert, so e itself being
    one yields the empty plan; otherwise such a pair, the anchor, is
    needed in the window and a tournament without digons is
    UnsupportedError.

    The window W holds e, the first anchor and the smallest other
    vertices up to N = p + 2, an even number.  Over GF(2), write e_yz
    for the simple arc between y and z (0 for a digon or no arc), A for
    the sum of all simple arcs in W and s_y for those at y.  The p-set
    W - {y, z} inverts I_yz = A + s_y + s_z + e_yz.  Summing over the
    N - 1 (odd) choices of z gives R_y = A + s_y, as the stars sum to
    0, so I_yz + R_y + R_z = A + e_yz.  The anchor has e_ab = 0, so A
    lies in the span of the p-sets, and then so does e = (A + e) + A:
    the solve in _window_sets never fails."""
    if not _is_int(p) or p % 2 == 1:
        raise InvalidArgumentError(f"p must be even, got {p!r}")
    if p < 4:
        raise InvalidArgumentError(f"p must be >= 4, got {p}")
    s = _validate(D, e, 2, p, odd=False)
    return _checked(D, s, p, _plan_sets(D, [s], p)[0])
