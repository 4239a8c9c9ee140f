"""Pure-Python flow/cut kernels.

All functions take a flat capacity matrix ``caps`` (row-major, length
n*n, caps[u*n+v] = number of parallel u->v arcs) and return vertex sets
as bitmasks (plain Python ints, so there is no vertex-count limit).
The C kernel (_cimpl.c) implements the same signatures and returns the
same results with the same tie-breaking, so the two backends are
interchangeable; tests assert bit-for-bit agreement.  min_cut_value
returns only a value, which is unique, so here it contracts the graph
instead of running the flows that the C kernel runs.

The flows walk, for each vertex, the ascending list of the vertices it
shares an arc with (in either direction) instead of scanning all n
vertices.  A list is built when a search first reaches its vertex and
is shared by all flows of one kernel call (of one search, with a
``matrix`` hint, below).  A residual arc u->v can only exist between
such neighbours, and the lists keep the ascending order of a dense
scan, so every breadth-first search visits the same vertices in the
same order and finds the same augmenting paths as a scan of every
vertex would.

A flow limited to 1 runs no flow at all: it is 1 exactly when t is
reachable from s, and below that limit the residual graph is the input,
so st_max_flow answers it with the row-mask reach that k = 1 cut scans
use, stopped at t.

karc_deficient_cut does less than the C kernel's scan and returns the
same side: with k = 1 it takes whole rows as bitmasks instead of
testing one vertex at a time.  With k >= 2 the C kernel sends its flows
between v and vertex 0, and this one between v and the set P of the
vertices already passed: every vertex of P is then k-connected to and
from vertex 0, so the flow to or from P falls below k exactly when the
flow to or from 0 does, with the same minimum cuts, and the minimal
side of those cuts is unique (karc_deficient_cut gives the argument).
Its searches start at v and stop at the first vertex of P they reach,
which is mostly close, and it skips each flow that v's own arcs to or
from P already fill.  With k = 1 and an ``after`` hint, which the C
kernel ignores, it grows a child's reach from its parent's side and
expands only the vertices the swap adds.

A call derives from caps what it needs (row and column bit masks,
neighbour lists, the transposed matrix) on first use, and drops it on
return.  A search that changes its matrix between calls by swaps and
unit adds can keep these parts in one Matrix instead: it writes caps
only through the Matrix's ``swap`` and ``add`` and passes the Matrix
as the ``matrix`` hint, and each call then reads and extends the
Matrix's parts, which those writes keep up to date.  The answers are
the same either way.  The C kernel ignores the hint.
"""

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import compress
from operator import or_

BACKEND = "py"


class Matrix:
    """A search's capacity matrix ``caps`` (row-major, n*n), with the
    parts the kernels derive from it, each built on first use:

    - ``outs[u]`` (``ins[u]``): the mask of the vertices that u has an
      arc to (from), or None until a reach first expands u;
    - ``nbrs[u]``: the ascending list of the vertices that share an arc
      with u, or None until a flow first reaches u (_flow builds it);
    - ``transposed()``: caps transposed, built on its first call.

    While a search uses the Matrix, swap and add are the only writes to
    caps, and each updates the parts already built, so every part
    agrees with caps at every kernel call.  A neighbour list may keep a
    vertex whose arcs add has removed: a flow steps to a neighbour only
    along a positive residual entry, so the extra vertex is never
    visited, and the lists keep their ascending order."""

    __slots__ = ("n", "caps", "outs", "ins", "nbrs", "_capsT")

    def __init__(self, n, caps):
        self.n = n
        self.caps = caps
        self.outs = [None] * n
        self.ins = [None] * n
        self.nbrs = [None] * n
        self._capsT = None

    def transposed(self):
        capsT = self._capsT
        if capsT is None:
            capsT = self._capsT = _transpose(self.n, self.caps)
        return capsT

    def swap(self, u, v):
        """Swaps the u->v and v->u counts and returns them as they were.
        u and v stay neighbours either way, so the neighbour lists stay
        as they are."""
        n, caps = self.n, self.caps
        i, j = u * n + v, v * n + u
        a, b = caps[i], caps[j]
        caps[i], caps[j] = b, a
        if (a > 0) != (b > 0):
            # one of the arcs u->v, v->u was there and the other is now
            bu, bv = 1 << u, 1 << v
            outs, ins = self.outs, self.ins
            if outs[u] is not None:
                outs[u] ^= bv
            if outs[v] is not None:
                outs[v] ^= bu
            if ins[u] is not None:
                ins[u] ^= bv
            if ins[v] is not None:
                ins[v] ^= bu
        capsT = self._capsT
        if capsT is not None:
            capsT[i], capsT[j] = a, b
        return a, b

    def add(self, t, h, d):
        """Adds d to the t->h count, which must stay non-negative."""
        n, caps = self.n, self.caps
        c = caps[t * n + h]
        caps[t * n + h] = c + d
        if (c > 0) != (c + d > 0):
            outs, ins = self.outs, self.ins
            if outs[t] is not None:
                outs[t] ^= 1 << h
            if ins[h] is not None:
                ins[h] ^= 1 << t
            if not c:
                # a new arc: its ends become neighbours, if they were not
                for x, y in ((t, h), (h, t)):
                    nb = self.nbrs[x]
                    if nb is not None:
                        i = bisect_left(nb, y)
                        if i == len(nb) or nb[i] != y:
                            nb.insert(i, y)
        capsT = self._capsT
        if capsT is not None:
            capsT[h * n + t] = c + d


def _transpose(n, caps):
    capsT = []
    for u in range(n):
        capsT += caps[u::n]
    return capsT


def _check_hint(n, caps, matrix):
    """Refuses a ``matrix`` hint that does not hold caps itself."""
    if matrix.caps is not caps or matrix.n != n:
        raise ValueError("a matrix hint must hold the caps list of its call")


def _flow(n, caps, res, nbrs, s, target, limit):
    """Max flow from s to the vertices flagged in ``target`` by BFS
    augmentation over the residual matrix ``res``, which must equal
    ``caps`` on entry.  Each search runs forwards from s along
    residual arcs and stops at the first flagged vertex it reaches;
    s must not be flagged.  To search backwards, that is, to send the
    flow from the flagged set into s, pass the transposed ``caps`` and
    ``res``.  ``nbrs[u]`` is the ascending list of the vertices that
    share an arc with u, in either direction (the same for a matrix and
    its transpose), or None until a search first reaches u; a kept list
    may also hold vertices that no longer do (see Matrix).

    Returns (flow, mask of the residual reach from s).  A flow that
    stops at its limit returns mask 0, as no search runs then, and
    leaves ``res`` equal to ``caps`` again; below the limit ``res``
    holds the final residual matrix."""
    verts = range(n)
    flow = 0
    touched = []
    while flow != limit:
        parent = [-1] * n
        parent[s] = s
        queue = [s]
        for u in queue:
            base = u * n
            nb = nbrs[u]
            if nb is None:
                nb = nbrs[u] = list(compress(verts, map(or_, caps[base:base + n], caps[u::n])))
            for v in nb:
                if parent[v] < 0 and res[base + v] > 0:
                    parent[v] = u
                    # parents are final once set: stopping here keeps
                    # the path, and no flagged vertex is ever expanded
                    if target[v]:
                        break
                    queue.append(v)
            else:
                continue
            break
        else:
            # no flagged vertex is reachable: the search has visited
            # the whole residual reach from s
            mask = 0
            for v in queue:
                mask |= 1 << v
            return flow, mask
        t = v
        bott = -1
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
            touched.append(u * n + v)
            touched.append(v * n + u)
            v = u
        flow += bott
    for i in touched:
        res[i] = caps[i]
    return flow, 0


def st_max_flow(n, caps, s, t, limit=-1, matrix=None):
    """Max s->t flow by BFS augmentation.

    Stops early once ``limit`` augmenting units are found (limit < 0
    means unbounded).  Returns (flow, side_mask).  Below the limit
    side_mask is the set of vertices reachable from s in the final
    residual graph, a minimum cut side; a flow that reaches its limit
    returns side_mask 0.  s and t must be distinct vertices
    (ValueError).

    With limit 1 no path is augmented: the flow is 1 exactly when s
    reaches t along positive entries, and otherwise the residual graph
    is caps itself, so the side is the reach of s.  _reach answers both
    with row masks and stops as soon as it reaches t.

    ``matrix`` is a Matrix holding caps itself, whose row masks and
    neighbour lists the call reads and extends (see Matrix).
    """
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise ValueError(f"need distinct s, t in 0..{n - 1}, got {s}, {t}")
    if matrix is not None:
        _check_hint(n, caps, matrix)
    if limit == 1:
        mask = _reach(n, caps, None if matrix is None else matrix.outs, 1 << s, False, 1 << t)
        return (1, 0) if mask >> t & 1 else (0, mask)
    target = [False] * n
    target[t] = True
    return _flow(n, caps, list(caps), [None] * n if matrix is None else matrix.nbrs, s, target, limit)


# POW[i] == 1 << i.  _reach grows it past 64 when a larger n needs it,
# by rebinding a new list: a list extended in place could be read half
# grown by a scan in another thread.
POW = [1 << i for i in range(64)]


def _reach(n, caps, rows, mask, backward, stop=0, todo=None):
    """Mask of the vertices that the vertices of ``mask`` reach along
    the positive entries of ``caps`` (backward: that reach them).  Each
    reached vertex is expanded once, by its row mask (backward: column
    mask): ``rows[u]``, or when rows is None or holds None there, the
    mask built in one C-level ``sum(compress(POW, row))``, which a rows
    list then keeps.  The search stops once every vertex is reached, or
    as soon as it reaches a vertex of ``stop``: the mask returned then
    holds that vertex but not the whole reach.  ``todo`` names the
    vertices of mask to expand (default: all of them); the caller
    vouches that the others reach nothing outside mask."""
    global POW
    pow2 = POW
    if len(pow2) < n:
        pow2 = POW = [1 << i for i in range(n)]
    full = (1 << n) - 1
    if todo is None:
        todo = mask
    while todo and mask != full:
        low = todo & -todo
        todo ^= low
        u = low.bit_length() - 1
        if rows is None or (row := rows[u]) is None:
            row = sum(compress(pow2, caps[u::n] if backward else caps[u * n:u * n + n]))
            if rows is not None:
                rows[u] = row
        new = row & ~mask
        mask |= new
        if new & stop:
            break
        todo |= new
    return mask


def _reach_after(n, caps, rows, backward, after):
    """The reach of vertex 0 (backward: the set that reaches it), grown
    from the parent's closed set when ``after`` holds the one of this
    direction, else scanned in full.  See karc_deficient_cut."""
    if after is not None:
        side, u, v = after
        # 0 in side: side was the forward reach; else its complement
        # was the backward reach
        if side & 1 != backward:
            closed = ~side & ((1 << n) - 1) if backward else side
            iu, iv = closed >> u & 1, closed >> v & 1
            if not (iu and iv):
                todo = 0
                if iu != iv:
                    i, o = (u, v) if iu else (v, u)
                    if caps[o * n + i] if backward else caps[i * n + o]:
                        closed |= 1 << o
                        todo = 1 << o
                return _reach(n, caps, rows, closed, backward, 0, todo)
    return _reach(n, caps, rows, 1, backward)


def karc_deficient_cut(n, caps, k, after=None, matrix=None):
    """Side S (nonempty, proper) with d+(S) < k, or -1 if none.

    k = 1 takes the forward, then the backward reach of vertex 0;
    larger k scans local arc-connectivity to and from vertex 0.
    Deterministic: the first deficiency in scan order (v ascending,
    0->v before v->0) is returned, with the minimal side of the minimum
    cuts: for 0->v the residual reach of 0, for v->0 that of v, after a
    maximum flow.

    With k >= 2 the flows run between v and the passed set P = {0..v-1}
    instead of vertex 0 (Hao and Orlin, J. Algorithms 17, 1994, grow
    their source set the same way).  When v is tested, every u in P has
    lambda(0, u) >= k and lambda(u, 0) >= k.  A 0->v cut S below k then
    holds all of P, as otherwise it separates 0 from some u in P, which
    lambda(0, u) >= k forbids.  Every P->v cut is a 0->v cut, so
    lambda(0, v) < k exactly when lambda(P, v) < k, and both have the
    same minimum cuts.  The minimal source side of the minimum cuts is
    unique, so the side returned is the one a 0->v flow returns, bit
    for bit; v->P and v->0 alike.

    The P->v flow searches backwards from v (forwards in the transposed
    matrix) and stops at the first vertex of P it reaches, and the v->P
    flow searches forwards from v.  Only a failing P->v flow needs one
    more search: the forward residual reach of P, its side.  The P->v
    flow is skipped when v has at least k arcs in from P, as every
    P->v cut carries all of them (the flow would find them as paths of
    one arc); the v->P flow likewise when v has at least k arcs out to
    P.

    ``after = (side, u, v)`` says that caps is one swap of the u-v
    counts away from a matrix whose answer at this k was side (a mask,
    not -1).  Only k = 1 reads it.  There side has no arc out: with 0
    in side it was the forward reach R of 0, else its complement B was
    the backward reach.  The swap changes only arcs between u and v.
    When neither lies in the closed set (R or B), no arc inside it or
    across its border changes, so it is the child's reach again.  When
    one end i lies in it and the other, o, does not, the swap can only
    add arcs i->o (backward: o->i), as the parent had none: the child's
    reach is the closed set, plus what o reaches (backward: what
    reaches o) if such an arc is there now, and only those new vertices
    are expanded.  When both ends lie in it, arcs inside it change and
    the reach is scanned in full.  The other reach is scanned in full.

    ``matrix`` is a Matrix holding caps itself: the reaches read its
    row masks and the flows its neighbour lists and transposed matrix,
    and what they build stays there for the next call.
    """
    if n <= 1:
        return -1
    if matrix is not None:
        _check_hint(n, caps, matrix)
    if k == 1:
        full = (1 << n) - 1
        mask = _reach_after(n, caps, None if matrix is None else matrix.outs, False, after)
        if mask != full:
            return mask
        mask = _reach_after(n, caps, None if matrix is None else matrix.ins, True, after)
        return full & ~mask if mask != full else -1
    # residual matrices, each built when its first flow runs
    res = capsT = resT = None
    nbrs = [None] * n if matrix is None else matrix.nbrs
    passed = [False] * n
    for v in range(1, n):
        passed[v - 1] = True
        # caps[v:v*n:n] is v's column over rows 0..v-1
        if sum(caps[v:v * n:n]) < k:
            if capsT is None:
                capsT = _transpose(n, caps) if matrix is None else matrix.transposed()
                resT = list(capsT)
            if _flow(n, capsT, resT, nbrs, v, passed, k)[0] < k:
                # resT is the transposed residual: its columns are the
                # residual rows
                return _reach(n, resT, None, (1 << v) - 1, True)
        if sum(caps[v * n:v * n + v]) < k:
            if res is None:
                res = list(caps)
            flow, mask = _flow(n, caps, res, nbrs, v, passed, k)
            if flow < k:
                return mask
    return -1


def min_cut_value(n, caps):
    """Value of a minimum cut of a symmetric matrix (n >= 2), -1 for
    n < 2, without max flows (Nagamochi-Ibaraki contraction).

    The graph is kept as one dict of neighbour weights per vertex and
    shrinks by contraction.  Contracting u and v keeps the minimum
    value as long as every cut below the best value found so far has
    u and v on one side; every degree of the current graph is a cut of
    the input, so each one is a candidate for that best value.  Two
    rules contract:

    - Degree test (Padberg-Rinaldi), before each ordering, one merge at
      a time, at vertices with at most two distinct neighbours: u goes
      into its heaviest neighbour v, which gives 2c(u, v) >= d(u).  A
      cut S with u on S's side, v not and S != {u} then does not grow
      when u moves across, as d(S - u) <= d(S) + d(u) - 2c(u, v), and
      the cut {u} is the candidate d(u).  This turns a chain of
      degree-2 vertices into one vertex without an ordering.
    - Maximum-adjacency ordering: the next vertex is the unvisited one
      most heavily attached to the visited ones.  When u is visited, an
      edge uv to an unvisited v attaches with q(uv), the weight between
      v and the vertices visited so far, uv included; then
      lambda(u, v) >= q(uv) (Nagamochi and Ibaraki, SIAM J. Discrete
      Math. 5(1), 1992).  Each edge with q at least the best value is
      contracted: no cut below the best separates its ends.  The last
      vertex's last edge has q equal to that vertex's degree, so every
      ordering contracts at least one edge.

    An ordering that misses a vertex shows a disconnected graph
    (value 0).  The next vertex comes from a heap with lazy deletion:
    a vertex's freshest entry has its highest weight and so pops first,
    and later ones are skipped."""
    if n < 2:
        return -1
    verts = range(n)
    adj = []
    for u in verts:
        row = caps[u * n:u * n + n]
        nb = dict(zip(compress(verts, row), compress(row, row)))
        nb.pop(u, None)
        adj.append(nb)
    deg = [sum(nb.values()) for nb in adj]
    best = min(deg)
    alive = set(verts)

    def merge(u, v):
        # contracts the edge uv, keeps the name with more neighbours
        if len(adj[u]) > len(adj[v]):
            u, v = v, u
        au, av = adj[u], adj[v]
        w = au.pop(v)
        del av[u]
        for x, c in au.items():
            ax = adj[x]
            del ax[u]
            ax[v] = av[x] = ax.get(v, 0) + c
        deg[v] += deg[u] - 2 * w
        adj[u] = None
        alive.discard(u)
        return v

    rep = list(verts)
    attach = [0] * n
    visited = [False] * n
    while best > 0:
        work = [u for u in alive if len(adj[u]) <= 2]
        while work and len(alive) > 1:
            u = work.pop()
            au = adj[u]
            if au is None or len(au) > 2:
                continue
            if not au:
                return 0
            work.extend(au)
            v = merge(u, max(au, key=au.get))
            if len(alive) > 1 and deg[v] < best:
                best = deg[v]
            work.append(v)
        if len(alive) <= 1 or best == 0:
            break
        for u in alive:
            attach[u] = 0
            visited[u] = False
        # key -q*n + x: the highest weight first, the lowest vertex on ties
        heap = [next(iter(alive))]
        seen = 0
        close = []
        while heap:
            u = heappop(heap) % n
            if visited[u]:
                continue
            visited[u] = True
            seen += 1
            for x, c in adj[u].items():
                if not visited[x]:
                    q = attach[x] = attach[x] + c
                    heappush(heap, x - q * n)
                    if q >= best:
                        close.append((u, x))
        if seen < len(alive):
            return 0
        for a, b in close:
            while rep[a] != a:
                a = rep[a]
            while rep[b] != b:
                b = rep[b]
            if a != b:
                v = merge(a, b)
                rep[a] = rep[b] = v
                if len(alive) > 1 and deg[v] < best:
                    best = deg[v]
    return best
