"""Pure-Python flow/cut kernels.

All functions take a flat capacity matrix ``caps`` (row-major, length
n*n, caps[u*n+v] = number of parallel u->v arcs) and return vertex sets
as bitmasks (plain Python ints, so there is no vertex-count limit).
The C kernel (_cimpl.c) implements the same signatures and returns the
same results with the same tie-breaking, so the two backends are
interchangeable; tests assert bit-for-bit agreement.

The flows walk, for each vertex, the ascending list of the vertices it
shares an arc with (in either direction) instead of scanning all n
vertices.  A list is built when a search first reaches its vertex and
is shared by all flows of one kernel call.  A residual arc u->v can
only exist between such neighbours, and the lists keep the ascending
order of a dense scan, so every breadth-first search visits the same
vertices in the same order and finds the same augmenting paths as a
scan of every vertex would.
"""

from itertools import compress
from operator import or_

BACKEND = "py"


def _flow(n, caps, res, nbrs, s, t, limit, reach=True):
    """Max s->t flow by BFS augmentation over the residual matrix
    ``res``, which must equal ``caps`` on entry and equals it again on
    return.  ``nbrs[u]`` is the ascending list of the vertices that
    share an arc with u, in either direction, or None until a search
    first reaches u.  Returns (flow, mask of the residual reach from
    s); with reach=False the mask is 0 when the flow stops at its
    limit, which saves the search for callers that then ignore it."""
    verts = range(n)
    flow = 0
    mask = 0
    touched = []
    while reach or flow != limit:
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
                    queue.append(v)
            # parents are final once set: stopping at t keeps its path
            if parent[t] >= 0 and flow != limit:
                break
        else:
            # t is unreachable or the flow is at its limit: the search
            # has visited the whole residual reach from s
            for v in queue:
                mask |= 1 << v
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
            touched.append(u * n + v)
            touched.append(v * n + u)
            v = u
        flow += bott
    for i in touched:
        res[i] = caps[i]
    return flow, mask


def st_max_flow(n, caps, s, t, limit=-1):
    """Max s->t flow by BFS augmentation.

    Stops early once ``limit`` augmenting units are found (limit < 0
    means unbounded).  Returns (flow, side_mask) where side_mask is the
    set of vertices reachable from s in the final residual graph; it is
    a minimum cut side only when the search exhausted (flow < limit or
    limit < 0).
    """
    return _flow(n, caps, list(caps), [None] * n, s, t, limit)


def strong_deficient_cut(n, caps):
    """Side S with no arcs leaving S, or -1 if strongly connected."""
    if n <= 1:
        return -1
    full = (1 << n) - 1
    # forward reach from 0
    mask = 1
    stack = [0]
    while stack:
        u = stack.pop()
        base = u * n
        for v in range(n):
            if not (mask >> v) & 1 and caps[base + v] > 0:
                mask |= 1 << v
                stack.append(v)
    if mask != full:
        return mask
    # backward reach to 0
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


def karc_deficient_cut(n, caps, k):
    """Side S (nonempty, proper) with d+(S) < k, or -1 if none.

    Scans local arc-connectivity to and from vertex 0; deterministic:
    the first deficiency in scan order (v ascending, 0->v before v->0)
    is returned.
    """
    if n <= 1:
        return -1
    if k == 1:
        return strong_deficient_cut(n, caps)
    res = list(caps)
    nbrs = [None] * n
    for v in range(1, n):
        flow, mask = _flow(n, caps, res, nbrs, 0, v, k, reach=False)
        if flow < k:
            return mask
        flow, mask = _flow(n, caps, res, nbrs, v, 0, k, reach=False)
        if flow < k:
            return mask
    return -1


def global_min_cut(n, caps):
    """(value, side_mask) of a minimum cut of a symmetric matrix (n>=2).

    Fixed-root scan: min over v>0 of maxflow(0, v).  Deterministic: the
    first v attaining the running minimum supplies the side.
    """
    res = list(caps)
    nbrs = [None] * n
    best = -1
    best_mask = 0
    for v in range(1, n):
        flow, mask = _flow(n, caps, res, nbrs, 0, v, best if best >= 0 else -1, reach=False)
        if best < 0 or flow < best:
            best = flow
            best_mask = mask
            if best == 0:
                break
    return best, best_mask
