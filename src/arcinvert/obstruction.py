"""Recognition and certification of k-obstructions.

A k-obstruction is a digraph whose vertices split into nonempty parts
(X_1, ..., X_r, Y) with X = X_1 u ... u X_r such that, in the underlying
multigraph G:

(i)   every part X_i has exactly 2k edges leaving it,
(ii)  every x in X and y in Y are joined by exactly one edge,
(iii) d+(X) - |X||Y|/2 is an odd integer.

Such digraphs stay k-obstructions under inversions of odd-size sets and
can never be made k-arc-strong, which is what makes them the complete
certificate of infeasibility for odd fixed inversion size (see
feasibility module).  Recognition for n >= 4k+2 tries each singleton
candidate for Y whose vertex has degree n - 1, and then the
high-degree vertex set; an exhaustive checker over all partitions
backs it up at n <= 9.
"""

from dataclasses import dataclass

from . import _kernels
from .core import (
    _check_digraph,
    _check_k,
    _check_multigraph,
    _check_vertex,
    _is_int,
    MultiDigraph,
    edge_connectivity,
)
from .errors import InvalidArgumentError, PreconditionViolatedError


@dataclass(frozen=True)
class ObstructionCertificate:
    """Partition witness; out_across records d+(X) of the issuing
    digraph and is informational (verification recomputes it)."""

    k: int
    x_parts: tuple
    y: tuple
    out_across: int | None = None

    def x_union(self):
        out = []
        for part in self.x_parts:
            out.extend(part)
        return sorted(out)


def _out_across(D, x_set):
    return sum(m for (t, h), m in D._m.items() if t in x_set and h not in x_set)


def verify_certificate(D, cert):
    """Check conditions (i)-(iii) of ``cert`` against D.

    Returns False on any failure, including a k that is not a positive
    int (bool is not) and a malformed partition (a part or y that is
    not even iterable included); the stored out_across is not compared
    (it documents the issuing digraph, and the partition stays valid
    after odd-size inversions even though d+(X) changes)."""
    if not isinstance(D, MultiDigraph) or not isinstance(cert, ObstructionCertificate):
        raise InvalidArgumentError("verify_certificate expects (MultiDigraph, ObstructionCertificate)")
    k = cert.k
    try:
        x_parts = [tuple(part) for part in cert.x_parts]
        y_part = tuple(cert.y)
    except TypeError:
        return False
    if not _is_int(k) or k < 1 or not x_parts:
        return False
    seen = set()
    for part in x_parts + [y_part]:
        if not part:
            return False
        for v in part:
            if not _is_int(v) or not 0 <= v < D.n or v in seen:
                return False
            seen.add(v)
    if len(seen) != D.n:
        return False
    G = D.underlying()
    x_set = set()
    for part in x_parts:
        if G.cut_size(part) != 2 * k:
            return False
        x_set.update(part)
    y_set = set(y_part)
    for x in x_set:
        for y in y_set:
            if G.mult(x, y) != 1:
                return False
    # (i) and (ii) make |X||Y| even, so (iii) needs no parity test of its
    # own: the cuts of the parts, 2k each, add up to |X||Y| plus twice
    # the edges between parts
    return (_out_across(D, x_set) - len(x_set) * len(y_set) // 2) % 2 == 1


def k_regular_partition(G, k, X):
    """Partition X into parts with exactly k edges leaving each, or None.

    Requires G k-edge-connected (else the uncrossing below is invalid)
    and X a proper subset of the vertices.  For each x in X the side of
    a minimum cut separating x from the contracted complement is
    extracted; if any such cut exceeds k there is no valid partition
    containing x.  Intersecting sides are merged; by submodularity both
    the intersection and the union of two crossing k-cuts are k-cuts
    again, which is checked explicitly."""
    _check_multigraph(G, "k_regular_partition")
    _check_k(k)
    xs = sorted({_check_vertex(v, G.n) for v in X})
    if not xs:
        return []
    if len(xs) == G.n:
        raise InvalidArgumentError("X must be a proper subset of the vertices")
    if edge_connectivity(G) < k:
        raise PreconditionViolatedError(f"graph is not {k}-edge-connected")
    return _k_regular_partition(G, k, xs)


def _k_regular_partition(G, k, xs):
    """k_regular_partition of a sorted, nonempty, proper vertex subset
    xs of a k-edge-connected G; the arguments are not checked again.

    The capacity matrix of G with the complement of xs contracted to
    one vertex y = len(xs) is built once, and each x = xs[i] gets one
    backend flow from i to y, limited at k + 1.  A flow that reaches
    the limit means every cut around x exceeds k.  Below it the flow
    ran to its end, so its mask is the residual reach from i, the side
    that min_cut returns, and the flow is that cut's size."""
    x_set = set(xs)
    rest = [v for v in range(G.n) if v not in x_set]
    y = len(xs)
    caps = G.contract([[x] for x in xs] + [rest]).caps_flat()
    sides = []
    for i in range(y):
        flow, mask = _kernels.st_max_flow(y + 1, caps, i, y, k + 1)
        if flow > k:
            return None
        sides.append(frozenset(xs[j] for j in range(y) if mask >> j & 1))
    # merge intersecting sides; by submodularity the intersection and the
    # union of two crossing k-cuts are k-cuts again, which is checked
    merged = []
    for side in dict.fromkeys(sides):
        for other in [m for m in merged if m & side]:
            crossing = not (other <= side or side <= other)
            if crossing and (G.cut_size(other & side) != k or G.cut_size(other | side) != k):
                raise RuntimeError(
                    "uncrossing invariant failed: intersection/union of "
                    "two crossing k-cuts is not a k-cut"
                )
            merged.remove(other)
            side |= other
        merged.append(side)
    return sorted((tuple(sorted(s)) for s in merged), key=lambda p: p[0])


def _check_obstruction_input(D, k, what):
    _check_digraph(D, what, simple=True)
    _check_k(k)
    if D.n < 4 * k + 2:
        raise PreconditionViolatedError(f"need n >= 4k+2 = {4 * k + 2}, got n = {D.n}")


def extend_to_certificate(D, k, Y):
    """Try to complete Y to an obstruction certificate of D, or None.

    Requires a digraph (no parallel arcs), 2k-edge-connected underlying
    multigraph and n >= 4k+2; these are the hypotheses under which the
    singleton/high-degree scan in is_k_obstruction is complete."""
    _check_obstruction_input(D, k, "extend_to_certificate")
    if edge_connectivity(D.underlying()) < 2 * k:
        raise PreconditionViolatedError(f"underlying multigraph is not {2 * k}-edge-connected")
    y_set = {_check_vertex(v, D.n) for v in Y}
    return _extend(D, k, y_set)


def _extend(D, k, y_set):
    """extend_to_certificate with UG(D) 2k-edge-connected and y_set a
    set of vertices; conditions (ii) and (iii) are tested before any flow."""
    if not y_set or len(y_set) == D.n:
        return None
    x_set = set(range(D.n)) - y_set
    cross = len(x_set) * len(y_set)
    if cross % 2 == 1:
        return None
    G = D.underlying()
    if any(G.mult(x, y) != 1 for y in y_set for x in x_set):
        return None
    out_across = _out_across(D, x_set)
    if (out_across - cross // 2) % 2 != 1:
        return None
    parts = _k_regular_partition(G, 2 * k, sorted(x_set))
    if parts is None:
        return None
    cert = ObstructionCertificate(
        k=k,
        x_parts=tuple(parts),
        y=tuple(sorted(y_set)),
        out_across=out_across,
    )
    if not verify_certificate(D, cert):
        raise RuntimeError("internal error: assembled certificate failed verification")
    return cert


def is_k_obstruction(D, k):
    """Certificate if D is a k-obstruction, else None (needs n >= 4k+2).

    Candidate Y sets: each singleton in vertex order, then the set of
    vertices of degree >= 2k+1; the first completion wins.  For
    n >= 4k+2 these candidates are exhaustive: in any obstruction either
    |Y| = 1, or Y is exactly the high-degree set.  A singleton {y} is
    tried only when y has degree n - 1 in the underlying multigraph:
    condition (ii) joins y to each of the other n - 1 vertices by
    exactly one edge, so no other singleton can complete.  The scan runs
    once per (D, k): D keeps its answer, which is_kp_invertible shares."""
    _check_obstruction_input(D, k, "is_k_obstruction")
    if edge_connectivity(D.underlying()) < 2 * k:
        return None
    return _obstruction_scan(D, k)


def _obstruction_scan(D, k):
    """is_k_obstruction for a digraph D on n >= 4k+2 vertices whose
    underlying multigraph is 2k-edge-connected.

    A singleton {y} passes condition (ii) only if y is joined to every
    other vertex by exactly one edge, so only if its degree is n - 1.
    Only those singletons are tried, still in vertex order and before
    the high-degree set; every other one would fail in _extend, so the
    first certificate found is the same.

    The answer depends on D and k alone, and D never changes, so it is
    kept on D: the scan runs once per (D, k), and every later call for
    that k, whatever p or witness request it serves, returns the same
    certificate object (or None).  A write replaces D's dict whole, so a
    concurrent reader sees the old dict or the new one, never a
    half-written entry; two threads that both miss scan twice and agree."""
    memo = D._obs or {}
    if k in memo:
        return memo[k]
    n = D.n
    degree = [0] * n
    for u, v, mm in D.underlying().edges():
        degree[u] += mm
        degree[v] += mm
    candidates = [{v} for v in range(n) if degree[v] == n - 1]
    high = {v for v in range(n) if degree[v] >= 2 * k + 1}
    if 2 <= len(high) < n:
        candidates.append(high)
    cert = None
    for y in candidates:
        cert = _extend(D, k, y)
        if cert is not None:
            break
    object.__setattr__(D, "_obs", {**memo, k: cert})
    return cert


# -- exhaustive back-up checker (small n) -------------------------------


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def exhaustive_obstruction_search(D, k):
    """Certificate by scanning every (Y, partition-of-X), or None.

    Reference oracle for n <= 9 (Bell(8) = 4140 partitions per Y is
    fine); no connectivity or n >= 4k+2 hypotheses needed."""
    _check_digraph(D, "exhaustive_obstruction_search", simple=True)
    if D.n > 9:
        raise InvalidArgumentError("exhaustive search is limited to n <= 9")
    _check_k(k)
    n = D.n
    G = D.underlying()
    for y_mask in range(1, 1 << n):
        if y_mask == (1 << n) - 1:
            continue
        y_set = {v for v in range(n) if (y_mask >> v) & 1}
        x_list = [v for v in range(n) if v not in y_set]
        if any(G.mult(x, y) != 1 for x in x_list for y in y_set):
            continue
        cross = len(x_list) * len(y_set)
        if cross % 2 == 1:
            continue
        if (_out_across(D, set(x_list)) - cross // 2) % 2 != 1:
            continue
        for parts in _set_partitions(x_list):
            if all(G.cut_size(p) == 2 * k for p in parts):
                cert = ObstructionCertificate(
                    k=k,
                    x_parts=tuple(sorted((tuple(sorted(p)) for p in parts), key=lambda q: q[0])),
                    y=tuple(sorted(y_set)),
                    out_across=_out_across(D, set(x_list)),
                )
                if not verify_certificate(D, cert):
                    raise RuntimeError("internal error: exhaustive certificate failed verification")
                return cert
    return None


# -- example families ---------------------------------------------------


def star_matching_obstruction(m):
    """1-obstruction on n = 2m+1 vertices (m >= 3 pairs plus a hub).

    Pair i is (2i, 2i+1) with the arc 2i -> 2i+1; the hub 2m is joined
    to every pair vertex by one arc, of which t = (m+1) mod 2 point
    toward the hub (so that condition (iii) holds for every m).
    Returns (digraph, certificate)."""
    if not _is_int(m) or m < 3:
        raise InvalidArgumentError("need at least 3 pairs (n = 2m+1 >= 7)")
    hub = 2 * m
    t = (m + 1) % 2
    arcs = []
    for i in range(m):
        arcs.append((2 * i, 2 * i + 1))
    for x in range(2 * m):
        if x < t:
            arcs.append((x, hub))
        else:
            arcs.append((hub, x))
    D = MultiDigraph(2 * m + 1, arcs)
    cert = ObstructionCertificate(
        k=1,
        x_parts=tuple((2 * i, 2 * i + 1) for i in range(m)),
        y=(hub,),
        out_across=t,
    )
    if not verify_certificate(D, cert):
        raise RuntimeError("internal error: star-matching construction is broken")
    return D, cert


def doubled_clique_obstruction(k, r):
    """k-obstruction with r parts of size k (digon cliques) and |Y| = 2.

    Each part induces digons on all internal pairs, every part vertex
    has one edge to each of the two hubs, and t = (rk+1) mod 2 of the
    hub edges point hubward.  Needs rk >= 4k (so n >= 4k+2).
    Returns (digraph, certificate)."""
    if not _is_int(k) or k < 1 or not _is_int(r) or r < 1:
        raise InvalidArgumentError("k and r must be positive ints")
    if r * k < 4 * k:
        raise InvalidArgumentError("need r >= 4 so that n >= 4k+2")
    nx = r * k
    y1, y2 = nx, nx + 1
    arcs = []
    for part in range(r):
        base = part * k
        for i in range(k):
            for j in range(i + 1, k):
                arcs.append((base + i, base + j))
                arcs.append((base + j, base + i))
    t = (r * k + 1) % 2
    cnt = 0
    for x in range(nx):
        for y in (y1, y2):
            if cnt < t:
                arcs.append((x, y))
            else:
                arcs.append((y, x))
            cnt += 1
    D = MultiDigraph(nx + 2, arcs)
    cert = ObstructionCertificate(
        k=k,
        x_parts=tuple(tuple(range(p * k, (p + 1) * k)) for p in range(r)),
        y=(y1, y2),
        out_across=t,
    )
    if not verify_certificate(D, cert):
        raise RuntimeError("internal error: doubled-clique construction is broken")
    return D, cert


# -- text serialization --------------------------------------------------


def certificate_to_text(cert):
    lines = [f"obstruction k={cert.k}", "Y: " + " ".join(map(str, cert.y))]
    for i, part in enumerate(cert.x_parts, start=1):
        lines.append(f"X{i}: " + " ".join(map(str, part)))
    return "\n".join(lines) + "\n"


def _vertex_tokens(line, body):
    try:
        return tuple(int(t) for t in body.split())
    except ValueError:
        raise InvalidArgumentError(f"non-integer vertex in certificate line {line!r}") from None


def certificate_from_text(text):
    k = None
    y = None
    parts = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("obstruction"):
            try:
                k = int(line.split("k=", 1)[1])
            except (IndexError, ValueError):
                raise InvalidArgumentError(f"bad header line {line!r}") from None
        elif line.startswith("Y:"):
            y = _vertex_tokens(line, line[2:])
        elif line.startswith("X") and ":" in line:
            parts.append(_vertex_tokens(line, line.split(":", 1)[1]))
        else:
            raise InvalidArgumentError(f"unrecognised certificate line {line!r}")
    if k is None or y is None or not parts:
        raise InvalidArgumentError("incomplete certificate text")
    return ObstructionCertificate(k=k, x_parts=tuple(parts), y=y)
