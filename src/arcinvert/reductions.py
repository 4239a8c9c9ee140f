"""Gadget generators that encode classic hard problems as inversion
instances.

Each generator returns a ReductionInstance bundling the built digraph,
the instance parameters, maps back to the source object, and, when a
source solution is known or found, a planted inversion family.  Planted
families are verified by application at construction time, so generated
instances double as solver tests.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from . import _kernels
from .core import (
    _check_digraph,
    _check_k,
    _check_multigraph,
    _is_int,
    _verified,
    InversionFamily,
    MultiDigraph,
    Multigraph,
    is_k_arc_strong,
)
from .errors import InvalidArgumentError
from .oracles import Hypergraph, max_hypergraph_matching, max_p3_packing

# planted searches are exponential in these quantities and get skipped
# beyond the caps; the instance is still built, just without a witness
PUSH_SEARCH_LIMIT = 15
ORIENTATION_SEARCH_LIMIT = 20
SOLUTION_SEARCH_LIMIT = 200000


@dataclass(frozen=True)
class ReductionInstance:
    """A generated instance with its provenance.

    kind is one of p3p, hm, do-m22inv, push-n1, psi-ksi, npsi-22.
    params always carries k and p (and ell for npsi-22).  source_meta
    maps gadget vertices back to the source instance and records the
    predicted optimum where the reduction has a value formula.  planted
    is verified at construction: applying it to the digraph must give a
    k-arc-strong result."""

    digraph: MultiDigraph
    kind: str
    params: dict
    source_meta: dict
    planted: InversionFamily | None = None

    def __post_init__(self):
        if self.planted is not None:
            _verified(self.digraph, self.planted, self.params["k"], f"planted family for {self.kind}")


def rotative_tournament(m):
    """Tournament of order m in which i beats the next floor(m/2)
    vertices cyclically; even orders are cut down from order m + 1.
    The result is floor((m-1)/2)-arc-strong."""
    if not _is_int(m) or m < 1:
        raise InvalidArgumentError(f"order must be a positive int, got {m!r}")
    if m % 2 == 1:
        # 1 <= d <= m // 2 < m: no loop, and no arc twice
        return MultiDigraph._trusted(
            m, {(i, (i + d) % m): 1 for i in range(m) for d in range(1, m // 2 + 1)}
        )
    big = rotative_tournament(m + 1)
    return MultiDigraph._trusted(m, {(t, h): 1 for (t, h, _m) in big.arcs() if t < m and h < m})


# the gadget generators ask for a few (order, k) walls, many times over
@lru_cache(maxsize=32)
def _strong_tournament(m, k):
    T = rotative_tournament(m)
    if not is_k_arc_strong(T, k):
        raise RuntimeError(f"internal error: order-{m} tournament is not {k}-arc-strong")
    return T


def _gadget(n, arcs):
    """The digraph of a gadget's single arcs.  Every end is a vertex id
    the generator numbered itself, and no arc joins a vertex to itself,
    so only a repeated arc, which would be a parallel pair, is checked."""
    m = dict.fromkeys(arcs, 1)
    if len(m) != len(arcs):
        raise RuntimeError("internal error: a gadget arc repeats")
    return MultiDigraph._trusted(n, m)


def _bipartition(G):
    color = [-1] * G.n
    for root in range(G.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for u in G.neighbors(v):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    raise InvalidArgumentError("graph is not bipartite")
    return color


def _pair_cover(vertices, pool):
    """Pairs covering ``vertices``: consecutive pairs of the sorted
    list, the odd one out doubling up with its predecessor, or with the
    smallest vertex of ``pool`` when it is alone."""
    vs = sorted(vertices)
    pairs = [(vs[i], vs[i + 1]) for i in range(0, len(vs) - 1, 2)]
    if len(vs) % 2 == 1:
        if len(vs) >= 2:
            pairs.append((vs[-2], vs[-1]))
        else:
            partner = min(v for v in pool if v != vs[-1])
            pairs.append(tuple(sorted((partner, vs[-1]))))
    return pairs


def gen_p3p(G, k):
    """Inversion instance whose optimum counts 3-vertex paths.

    For a bipartite G on n vertices with maximum path-packing size y,
    the built oriented graph D satisfies: the minimum number of
    inversions of sets of at most 3 vertices making D k-arc-strong is
    ceil((n - y) / 2).  The planted family realises that size from a
    maximum packing."""
    _check_multigraph(G, "gen_p3p")
    _check_k(k)
    if G.n < 2:
        raise InvalidArgumentError("source graph needs at least 2 vertices")
    color = _bipartition(G)
    n = G.n
    base = n
    w = {(v, i): base + v * (2 * k - 1) + i for v in range(n) for i in range(k)}
    z = {(v, i): base + v * (2 * k - 1) + k + i for v in range(n) for i in range(k - 1)}
    qbase = base + n * (2 * k - 1)
    wq = {}
    for idx, Q in enumerate(combinations(range(n), 2)):
        wq[Q] = qbase + idx
    total = qbase + len(wq)
    wall = list(range(base, total))

    arcs = []
    T = _strong_tournament(len(wall), k)
    for (t, h, _m) in T.arcs():
        arcs.append((wall[t], wall[h]))
    for v in range(n):
        if color[v] == 0:
            arcs.extend((v, w[(v, i)]) for i in range(k))
            arcs.extend((z[(v, i)], v) for i in range(k - 1))
        else:
            arcs.extend((w[(v, i)], v) for i in range(k))
            arcs.extend((v, z[(v, i)]) for i in range(k - 1))
    for Q, wv in wq.items():
        for u in Q:
            arcs.append((u, wv) if color[u] == 0 else (wv, u))
    for (u, v, _m) in G.edges():
        a, b = (u, v) if color[u] == 0 else (v, u)
        arcs.append((a, b))
    D = _gadget(total, arcs)

    y, packing = max_p3_packing(G)
    covered = {u for tri in packing for u in tri}
    sets = [set(tri) for tri in packing]
    for pr in _pair_cover(sorted(set(range(n)) - covered), range(n)):
        sets.append(set(pr) | {wq[tuple(sorted(pr))]})
    value = -((y - n) // 2)  # ceil((n - y) / 2)
    planted = InversionFamily(sets)
    if len(planted.sets) != value:
        raise RuntimeError("internal error: planted family has the wrong size")
    meta = {
        "source_vertices": n,
        "bipartition": tuple(color),
        "w": {f"{v}.{i + 1}": idx for (v, i), idx in w.items()},
        "z": {f"{v}.{i + 1}": idx for (v, i), idx in z.items()},
        "wq": {f"{a},{b}": idx for (a, b), idx in wq.items()},
        "packing_size": y,
        "predicted_value": value,
        "mode": "at-most",
    }
    return ReductionInstance(D, "p3p", {"k": k, "p": 3}, meta, planted)


def gen_hm(H, k):
    """Inversion instance whose optimum counts a hypergraph matching.

    For an s-uniform H on n vertices with maximum matching size x, the
    built oriented graph D satisfies: the minimum number of inversions
    of sets of at most s + 1 vertices making D k-arc-strong is
    ceil((n - x) / (s - 1))."""
    if not isinstance(H, Hypergraph):
        raise InvalidArgumentError("gen_hm expects a Hypergraph")
    _check_k(k)
    s = H.uniformity()
    if s is None or s < 3:
        raise InvalidArgumentError("a uniform hypergraph with edges of size >= 3 is required")
    n = H.n
    hedges = sorted(H.edges, key=sorted)
    base = n
    we = {e: base + idx for idx, e in enumerate(hedges)}
    q_base = base + len(hedges)
    wq = {}
    for idx, Q in enumerate(combinations(range(n), s - 1)):
        wq[Q] = q_base + idx
    w3_base = q_base + len(wq)
    w3 = {(v, i): w3_base + v * k + i for v in range(n) for i in range(k)}
    w4_base = w3_base + n * k
    w4 = {(v, i): w4_base + v * (k - 1) + i for v in range(n) for i in range(k - 1)}
    total = w4_base + n * (k - 1)
    wall = list(range(base, total))

    arcs = []
    T = _strong_tournament(len(wall), k)
    for (t, h, _m) in T.arcs():
        arcs.append((wall[t], wall[h]))
    for e, wv in we.items():
        arcs.extend((wv, v) for v in sorted(e))
    for Q, wv in wq.items():
        arcs.extend((wv, v) for v in Q)
    for (v, i), wv in w3.items():
        arcs.append((wv, v))
    for (v, i), wv in w4.items():
        arcs.append((v, wv))
    D = _gadget(total, arcs)

    x, matching = max_hypergraph_matching(H)
    covered = {v for e in matching for v in e}
    sets = [set(e) | {we[e]} for e in matching]
    leftover = sorted(set(range(n)) - covered)
    idx = 0
    while idx < len(leftover):
        window = leftover[idx:idx + s - 1]
        if len(window) < s - 1:
            if len(leftover) >= s - 1:
                window = leftover[-(s - 1):]
            else:
                pad = [v for v in range(n) if v not in window]
                window = sorted(window + pad[: s - 1 - len(window)])
        Q = tuple(sorted(window))
        sets.append(set(Q) | {wq[Q]})
        idx += s - 1
    value = -((x - n) // (s - 1))  # ceil((n - x) / (s - 1))
    planted = InversionFamily(sets)
    if len(planted.sets) != value:
        raise RuntimeError("internal error: planted family has the wrong size")
    meta = {
        "source_vertices": n,
        "we": {",".join(map(str, sorted(e))): idx for e, idx in we.items()},
        "wq": {",".join(map(str, Q)): idx for Q, idx in wq.items()},
        "matching_size": x,
        "predicted_value": value,
        "mode": "at-most",
    }
    return ReductionInstance(D, "hm", {"k": k, "p": s + 1}, meta, planted)


def _deletable_orientation(G, fset):
    """Brute force over the 2^|E| orientations of a simple graph: one
    that is strongly connected and keeps every edge of fset deletable,
    or None.  Skipped above ORIENTATION_SEARCH_LIMIT edges."""
    edges = [(u, v) for (u, v, _m) in G.edges()]
    if len(edges) > ORIENTATION_SEARCH_LIMIT:
        return None
    for mask in range(1 << len(edges)):
        arcs = []
        for pos, (u, v) in enumerate(edges):
            arcs.append((v, u) if (mask >> pos) & 1 else (u, v))
        O = MultiDigraph(G.n, arcs)
        if not is_k_arc_strong(O, 1):
            continue
        ok = True
        for pos, (u, v) in enumerate(edges):
            if (u, v) in fset or (v, u) in fset:
                rest = [a for i, a in enumerate(arcs) if i != pos]
                if not is_k_arc_strong(MultiDigraph(G.n, rest), 1):
                    ok = False
                    break
        if ok:
            return arcs
    return None


def gen_do_m22inv(G, F):
    """Multidigraph whose (2,2)-feasibility mirrors the orientation
    problem with required-deletable edges.

    Edges named in F become single low-to-high arcs, all other edges two
    parallel low-to-high arcs.  The planted family (when the brute-force
    search finds a valid orientation) lists the pairs that the found
    orientation directs high-to-low."""
    _check_multigraph(G, "gen_do_m22inv", simple=True)
    fset = set()
    for e in F:
        u, v = sorted(e)
        if G.mult(u, v) == 0:
            raise InvalidArgumentError(f"F contains {u, v} which is not an edge of the graph")
        fset.add((u, v))
    arcs = []
    for (u, v, _m) in G.edges():
        arcs.append((u, v, 1 if (u, v) in fset else 2))
    D = MultiDigraph(G.n, arcs)
    orientation = _deletable_orientation(G, fset)
    planted = None
    if orientation is not None:
        planted = InversionFamily([(h, t) for (t, h) in orientation if t > h])
    meta = {
        "edges": [(u, v) for (u, v, _m) in G.edges()],
        "forced_deletable": sorted(fset),
        "orientation": orientation,
    }
    return ReductionInstance(D, "do-m22inv", {"k": 2, "p": 2}, meta, planted)


def gen_push_n1(D):
    """Packages an oriented graph for size-(n-1) inversions.

    Flipping all arcs at each vertex of a set X equals inverting the
    complements of the X-singletons when |X| is even, and gives the
    reverse of that digraph when |X| is odd; either way the inversion
    family makes D strongly connected exactly when the vertex-flipping
    does.  The planted family comes from a brute-force search over
    vertex subsets (vertex 0 can be fixed outside since a set and its
    complement flip identically)."""
    _check_digraph(D, "gen_push_n1")
    if not D.is_oriented():
        raise InvalidArgumentError("an oriented graph (no digons, no parallel arcs) is required")
    n = D.n
    if n < 3:
        raise InvalidArgumentError("need at least 3 vertices for size-(n-1) sets")
    planted = None
    flip_set = None
    if n <= PUSH_SEARCH_LIMIT:
        caps0 = D.caps_flat()
        for mask in range(1 << (n - 1)):
            chosen = [v + 1 for v in range(n - 1) if (mask >> v) & 1]
            caps = list(caps0)
            for v in chosen:
                for u in range(n):
                    a, b = caps[v * n + u], caps[u * n + v]
                    caps[v * n + u], caps[u * n + v] = b, a
            if _kernels.karc_deficient_cut(n, caps, 1) == -1:
                flip_set = chosen
                break
        if flip_set is not None:
            planted = InversionFamily([set(range(n)) - {x} for x in flip_set])
    meta = {
        "flip_set": flip_set,
        "flip_parity": None if flip_set is None else len(flip_set) % 2,
        "searched": n <= PUSH_SEARCH_LIMIT,
    }
    return ReductionInstance(D, "push-n1", {"k": 1, "p": n - 1}, meta, planted)


def _validate_partitioned(G, parts, H, what):
    _check_multigraph(G, what, simple=True)
    _check_multigraph(H, what, simple=True)
    r = len(parts)
    if H.n != r:
        raise InvalidArgumentError("pattern graph order must equal the number of parts")
    if r < 2:
        raise InvalidArgumentError("normalisation violated: fewer than 2 parts")
    seen = set()
    for part in parts:
        for v in part:
            if not 0 <= v < G.n or v in seen:
                raise InvalidArgumentError("parts must partition the vertex set")
            seen.add(v)
    if len(seen) != G.n:
        raise InvalidArgumentError("parts must partition the vertex set")
    if any(H.degree(c) < 2 for c in range(r)):
        raise InvalidArgumentError("normalisation violated: a pattern vertex has fewer than 2 edges")
    if any(len(part) < 3 for part in parts):
        raise InvalidArgumentError("normalisation violated: a part has fewer than 3 vertices")
    part_of = {}
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    across = {}
    for (u, v, _m) in G.edges():
        i, j = part_of[u], part_of[v]
        if i == j:
            raise InvalidArgumentError("normalisation violated: an edge lies inside a part")
        if H.mult(i, j) == 0:
            raise InvalidArgumentError("normalisation violated: an edge joins parts that are not a pattern edge")
        key = (min(i, j), max(i, j))
        across[key] = across.get(key, 0) + 1
    for (i, j, _m) in H.edges():
        if across.get((i, j), 0) < 2:
            raise InvalidArgumentError("normalisation violated: fewer than 2 edges between the parts of a pattern edge")
    return part_of


def _find_solution(G, parts, H):
    """First tuple (one vertex per part) whose choices are pairwise
    adjacent along every pattern edge, or None.  Skipped when the
    product of part sizes exceeds SOLUTION_SEARCH_LIMIT."""
    space = 1
    for part in parts:
        space *= len(part)
        if space > SOLUTION_SEARCH_LIMIT:
            return None
    hedges = [(i, j) for (i, j, _m) in H.edges()]
    for tup in product(*(sorted(p) for p in parts)):
        if all(G.mult(tup[i], tup[j]) > 0 for (i, j) in hedges):
            return tup
    return None


def gen_psi_ksi(G, parts, H, k):
    """Single-inversion instance from a partitioned pattern search.

    One inversion of a set of at most p = 2r + |E(H)| vertices can make
    the built oriented graph k-arc-strong exactly when some choice of
    one vertex per part realises every pattern edge in G.  Requires
    k >= 2 and a normalised source (validated, the violated condition
    is named)."""
    if not _is_int(k) or k < 2:
        raise InvalidArgumentError(f"k must be an int >= 2, got {k!r}")
    part_of = _validate_partitioned(G, parts, H, "gen_psi_ksi")
    r = len(parts)
    hedges = sorted((min(i, j), max(i, j)) for (i, j, _m) in H.edges())
    order = 3 * k
    T = _strong_tournament(order, k)
    tarcs = [(t, h) for (t, h, _m) in T.arcs()]

    nxt = G.n
    def block():
        nonlocal nxt
        ids = list(range(nxt, nxt + order))
        nxt += order
        return ids

    tilde = block()
    t_part = []
    x_part = []
    for _i in range(r):
        t_part.append(block())
        x_part.append(nxt)
        nxt += 1
    t_edge = {}
    z_vert = {}
    for (i, j) in hedges:
        t_edge[(i, j)] = block()
        for u in sorted(parts[i]):
            for v in sorted(parts[j]):
                if G.mult(u, v) > 0:
                    z_vert[(u, v)] = nxt
                    nxt += 1

    arcs = []
    def add_copy(ids):
        arcs.extend((ids[t], ids[h]) for (t, h) in tarcs)

    add_copy(tilde)
    for i in range(r):
        ti = t_part[i]
        add_copy(ti)
        arcs.extend((ti[t], tilde[t]) for t in range(k))
        arcs.extend((tilde[k + t], ti[k + t]) for t in range(k))
        xi = x_part[i]
        arcs.extend((xi, ti[t]) for t in range(k))
        arcs.extend((ti[k + t], xi) for t in range(k - 1))
        for v in sorted(parts[i]):
            arcs.extend((v, ti[t]) for t in range(k))
            arcs.extend((ti[k + t], v) for t in range(k))
            arcs.append((xi, v))
    for (i, j) in hedges:
        tij = t_edge[(i, j)]
        add_copy(tij)
        arcs.extend((tij[t], tilde[t]) for t in range(k))
        arcs.extend((tilde[k + t], tij[k + t]) for t in range(k - 2))
        for (u, v), zid in z_vert.items():
            if part_of[u] == i and part_of[v] == j:
                arcs.append((zid, u))
                arcs.append((zid, v))
                arcs.extend((zid, tij[t]) for t in range(k))
                arcs.extend((tij[k + t], zid) for t in range(k))
    D = MultiDigraph(nxt, arcs)

    p = 2 * r + len(hedges)
    solution = _find_solution(G, parts, H)
    planted = None
    if solution is not None:
        chosen = set(solution) | set(x_part)
        for (i, j) in hedges:
            u, v = solution[i], solution[j]
            chosen.add(z_vert[(u, v)])
        planted = InversionFamily([chosen])
    meta = {
        "parts": [sorted(p_) for p_ in parts],
        "pattern_edges": hedges,
        "tilde": tilde,
        "part_tournaments": t_part,
        "x": x_part,
        "edge_tournaments": {f"{i},{j}": ids for (i, j), ids in t_edge.items()},
        "z": {f"{u},{v}": zid for (u, v), zid in z_vert.items()},
        "solution": solution,
        "budget": 1,
    }
    return ReductionInstance(D, "psi-ksi", {"k": k, "p": p}, meta, planted)


def gen_npsi_22(G, parts, H):
    """Pair-inversion instance (k = 2) from a partitioned pattern
    search, with budget ell = 11|E(H)| + |V(H)|.

    The built multidigraph admits exactly ell pair inversions reaching
    2-arc-strong iff some choice of one vertex per part realises every
    pattern edge.  The planted family bundles, per chosen vertex, all
    adjacent pairs through its chain and, per realised pattern edge,
    the three pairs at the edge vertex."""
    part_of = _validate_partitioned(G, parts, H, "gen_npsi_22")
    r = len(parts)
    hedges = sorted((min(i, j), max(i, j)) for (i, j, _m) in H.edges())
    neighbors = {c: sorted(j for j in range(r) if H.mult(c, j) > 0) for c in range(r)}

    s = 0
    nxt = 1
    a_c = {}
    b_c = {}
    xyz = {}
    for c in range(r):
        a_c[c] = nxt
        b_c[c] = nxt + 1
        nxt += 2
        for v in sorted(parts[c]):
            for cc in neighbors[c]:
                xyz[(v, cc)] = (nxt, nxt + 1, nxt + 2)
                nxt += 3
    u_e = {}
    for e in hedges:
        u_e[e] = nxt
        nxt += 1
    t_f = {}
    gedges = sorted((min(u, v), max(u, v)) for (u, v, _m) in G.edges())
    for f in gedges:
        t_f[f] = nxt
        nxt += 1

    arcs = []
    for c in range(r):
        arcs.append((s, a_c[c]))
        arcs.append((b_c[c], s))
        nbs = neighbors[c]
        for v in sorted(parts[c]):
            arcs.append((a_c[c], xyz[(v, nbs[0])][0], 2))
            arcs.append((xyz[(v, nbs[-1])][1], b_c[c], 2))
            for i in range(len(nbs) - 1):
                arcs.append((xyz[(v, nbs[i])][1], xyz[(v, nbs[i + 1])][0], 2))
            for cc in nbs:
                x, y, zz = xyz[(v, cc)]
                arcs.append((x, y))
                arcs.append((x, zz))
                arcs.append((s, y))
                arcs.append((s, zz))
                arcs.append((zz, s, 2))
    for e in hedges:
        arcs.append((s, u_e[e]))
    for (u, v) in gedges:
        c, cc = part_of[u], part_of[v]
        tf = t_f[(u, v)]
        arcs.append((tf, u_e[(min(c, cc), max(c, cc))], 2))
        arcs.append((xyz[(u, cc)][2], tf))
        arcs.append((xyz[(v, c)][2], tf))
    D = MultiDigraph(nxt, arcs)

    ell = 11 * len(hedges) + r
    solution = _find_solution(G, parts, H)
    planted = None
    if solution is not None:
        pairs = []
        for c in range(r):
            v = solution[c]
            nbs = neighbors[c]
            pairs.append((a_c[c], xyz[(v, nbs[0])][0]))
            for idx, cc in enumerate(nbs):
                x, y, zz = xyz[(v, cc)]
                pairs.append((x, y))
                pairs.append((x, zz))
                pairs.append((s, y))
                if idx + 1 < len(nbs):
                    pairs.append((y, xyz[(v, nbs[idx + 1])][0]))
                else:
                    pairs.append((y, b_c[c]))
        for (i, j) in hedges:
            u, v = sorted((solution[i], solution[j]))
            c, cc = part_of[u], part_of[v]
            tf = t_f[(u, v)]
            pairs.append((tf, u_e[(i, j)]))
            pairs.append((tf, xyz[(u, cc)][2]))
            pairs.append((tf, xyz[(v, c)][2]))
        planted = InversionFamily(pairs)
        if len(planted.sets) != ell:
            raise RuntimeError("internal error: planted family size differs from the budget")
    meta = {
        "parts": [sorted(p_) for p_ in parts],
        "pattern_edges": hedges,
        "hub": s,
        "a": a_c,
        "b": b_c,
        "chains": {f"{v},{cc}": ids for (v, cc), ids in xyz.items()},
        "u": {f"{i},{j}": idx for (i, j), idx in u_e.items()},
        "t": {f"{u},{v}": idx for (u, v), idx in t_f.items()},
        "solution": solution,
    }
    return ReductionInstance(D, "npsi-22", {"k": 2, "p": 2, "ell": ell}, meta, planted)


def minimal_pattern_source():
    """Smallest normalised source: triangle pattern, three parts of
    three vertices, one solution triple plus a second disjoint edge set
    to meet the two-edges-per-pattern-edge requirement."""
    G = Multigraph(9, [(0, 3), (0, 6), (3, 6), (1, 4), (1, 7), (4, 7)])
    parts = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    H = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    return G, parts, H


def random_pattern_source(rng, r=3, part_size=3, extra_edges=1):
    """Seeded normalised source with a guaranteed solution: cycle
    pattern on r >= 3 colours, a planted solution tuple, and extra
    random cross edges per pattern edge."""
    if r < 3:
        raise InvalidArgumentError("need at least 3 parts for a cycle pattern")
    if part_size < 3:
        raise InvalidArgumentError("parts need at least 3 vertices")
    if extra_edges < 1:
        raise InvalidArgumentError(f"need at least 1 extra edge per pattern edge, got {extra_edges}")
    if extra_edges >= part_size * part_size:
        # each pattern edge joins its own two parts, whose part_size**2
        # pairs hold the solution edge and the extra ones
        raise InvalidArgumentError(f"at most {part_size**2 - 1} extra edges fit per pattern edge")
    parts = [list(range(i * part_size, (i + 1) * part_size)) for i in range(r)]
    H = Multigraph(r, [(i, (i + 1) % r) for i in range(r)])
    solution = [rng.choice(part) for part in parts]
    edges = set()
    for i in range(r):
        j = (i + 1) % r
        edges.add(tuple(sorted((solution[i], solution[j]))))
        added = 0
        while added < extra_edges:
            e = tuple(sorted((rng.choice(parts[i]), rng.choice(parts[j]))))
            if e not in edges:
                edges.add(e)
                added += 1
    G = Multigraph(r * part_size, sorted(edges))
    return G, parts, H
