"""Core graph types and the inversion/pushing/connectivity operations.

Vertices are 0..n-1.  MultiDigraph and Multigraph are value-semantic
(equality and hashing by content) and immutable after construction; all
operations return new objects.  Connectivity uses the kernel dispatch
layer (compiled when built, pure Python otherwise).

An inversion of a vertex set X reverses every arc with both endpoints
in X.  Applying a family of sets applies them one after another; the
result does not depend on the order, and applying a family twice is the
identity.  Inverting a set that spans a digon (arcs both ways) leaves
that digon unchanged.
"""

import math
from dataclasses import dataclass, field

from . import _kernels
from .errors import InvalidArgumentError, ParseError

INFINITY = math.inf


def _check_vertex(v, n, what="vertex"):
    """v itself when it is an int vertex id of 0..n-1 (bool is not)."""
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
        raise InvalidArgumentError(f"{what} id {v!r} out of range 0..{n - 1}")
    return v


def _check_count(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvalidArgumentError(f"vertex count must be a non-negative int, got {n!r}")


def _check_k(k):
    # bool is an int subclass, but True is no connectivity
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidArgumentError(f"k must be a positive int, got {k!r}")


def _check_p(p, least=2):
    if isinstance(p, bool) or not isinstance(p, int) or p < least:
        raise InvalidArgumentError(f"p must be an int >= {least}, got {p!r}")


def _check_digraph(D, what, simple=False):
    """Reject D unless it is a MultiDigraph, and with simple=True also
    when it has parallel arcs."""
    if not isinstance(D, MultiDigraph):
        raise InvalidArgumentError(f"{what} expects a MultiDigraph")
    if simple and not D.is_digraph():
        raise InvalidArgumentError("input has parallel arcs; a digraph is required")


class _Graph:
    """Value semantics of MultiDigraph and Multigraph: n vertices and a
    dict _m from vertex pairs to multiplicities, checked on construction
    and immutable after it.  A subclass names its pair and its two ends
    for the error messages (_pair, _ends), says whether a pair keeps its
    order (_directed; an edge is keyed (min, max)), and names the slots
    of its memos (_memo), which every new object starts empty."""

    __slots__ = ("n", "_m", "_hash")

    def __init__(self, n, pairs=()):
        _check_count(n)
        first, second = self._ends
        directed = self._directed
        m = {}
        for pair in pairs:
            if len(pair) == 2:
                u, v = pair
                mult = 1
            elif len(pair) == 3:
                u, v, mult = pair
            else:
                raise InvalidArgumentError(f"{self._pair}, got {pair!r}")
            _check_vertex(u, n, first)
            _check_vertex(v, n, second)
            if u == v:
                raise InvalidArgumentError(f"loop at vertex {u} not allowed")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise InvalidArgumentError(f"multiplicity must be a positive int, got {mult!r}")
            key = (u, v) if directed or u < v else (v, u)
            m[key] = m.get(key, 0) + mult
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_m", m)
        object.__setattr__(self, "_hash", None)
        for slot in self._memo:
            object.__setattr__(self, slot, None)

    @classmethod
    def _trusted(cls, n, m):
        """The graph on n vertices with the pair dict m, whose keys and
        multiplicities are known to be valid."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "_m", m)
        object.__setattr__(g, "_hash", None)
        for slot in cls._memo:
            object.__setattr__(g, slot, None)
        return g

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the checking constructor (a
        # pickle is outside input); the memo slots start empty again
        return type(self), (self.n, [(u, v, m) for (u, v), m in self._m.items()])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self._m == other._m

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, frozenset(self._m.items()))))
        return self._hash

    def induced(self, vertices):
        """(subgraph of the same type, sorted id list); ids reindexed by
        rank, which keeps every edge key (u, v) with u < v."""
        ids = sorted(_check_vertex(v, self.n) for v in set(vertices))
        pos = {v: i for i, v in enumerate(ids)}
        m = {(pos[u], pos[v]): mm for (u, v), mm in self._m.items() if u in pos and v in pos}
        return self._trusted(len(ids), m), ids


class MultiDigraph(_Graph):
    """Directed graph with parallel arcs allowed, no loops."""

    __slots__ = ("_ug", "_caps", "_deg")
    _pair = "arc must be (tail, head[, mult])"
    _ends = ("tail", "head")
    _directed = True
    _memo = __slots__

    # -- queries ------------------------------------------------------

    def mult(self, t, h):
        return self._m.get((t, h), 0)

    def arcs(self):
        """Iterate (tail, head, mult), sorted."""
        for (t, h) in sorted(self._m):
            yield t, h, self._m[(t, h)]

    def arc_count(self):
        return sum(self._m.values())

    def has_arc(self, t, h):
        return (t, h) in self._m

    def out_degree(self, v):
        return sum(m for (t, _h), m in self._m.items() if t == v)

    def in_degree(self, v):
        return sum(m for (_t, h), m in self._m.items() if h == v)

    def adjacent(self, u, v):
        return (u, v) in self._m or (v, u) in self._m

    def is_digraph(self):
        """No parallel arcs (digons still allowed)."""
        return all(m == 1 for m in self._m.values())

    def is_oriented(self):
        """Digraph without digons."""
        return self.is_digraph() and not any(True for _ in self.digon_pairs())

    def digon_pairs(self):
        """Iterate unordered pairs (u, v), u < v, with arcs both ways."""
        for (t, h) in sorted(self._m):
            if t < h and (h, t) in self._m:
                yield t, h

    def simple_arcs(self):
        """Arcs (t, h) with mult 1 and no opposite arc, sorted."""
        return [
            (t, h)
            for (t, h) in sorted(self._m)
            if self._m[(t, h)] == 1 and (h, t) not in self._m
        ]

    # -- derived objects ----------------------------------------------

    def underlying(self):
        """Underlying multigraph: each arc becomes an edge (digons give
        two parallel edges).  Built on the first call and kept, so every
        caller gets the same Multigraph and its memoised
        edge_connectivity."""
        if self._ug is None:
            edges = {}
            for (t, h), m in self._m.items():
                key = (t, h) if t < h else (h, t)
                edges[key] = edges.get(key, 0) + m
            object.__setattr__(self, "_ug", Multigraph._trusted(self.n, edges))
        return self._ug

    def reverse(self):
        return MultiDigraph._trusted(self.n, {(h, t): m for (t, h), m in self._m.items()})

    def caps_flat(self):
        """The n x n capacity matrix, row-major, as a fresh list that the
        caller may change.  The first call keeps a copy on the digraph,
        and later calls copy that.  The copy holds a byte a count (a
        tuple once some pair has 256 or more arcs), so a kept matrix
        costs n * n bytes."""
        caps = self._read_caps()
        if self._caps is None:
            try:
                kept = bytes(caps)
            except ValueError:
                kept = tuple(caps)
            object.__setattr__(self, "_caps", kept)
        return caps

    def _read_caps(self):
        """caps_flat() without keeping a new build: a digraph asked once,
        as a verification asks the digraph it applied, pays no copy."""
        if self._caps is not None:
            return list(self._caps)
        n = self.n
        caps = [0] * (n * n)
        for (t, h), m in self._m.items():
            caps[t * n + h] = m
        return caps

    def _degree_lists(self):
        """(out-degrees, in-degrees) as fresh lists.  The first call
        keeps tuple copies on the digraph, and later calls copy those."""
        if self._deg is not None:
            return list(self._deg[0]), list(self._deg[1])
        if self._caps is None:
            self.caps_flat()
        out, into = _degrees(self.n, self._caps)
        object.__setattr__(self, "_deg", (tuple(out), tuple(into)))
        return out, into

    def __repr__(self):
        return f"MultiDigraph(n={self.n}, arcs={self.arc_count()})"


class Multigraph(_Graph):
    """Undirected graph with parallel edges allowed, no loops."""

    __slots__ = ("_lam",)
    _pair = "edge must be (u, v[, mult])"
    _ends = ("vertex", "vertex")
    _directed = False
    _memo = __slots__

    def mult(self, u, v):
        if u == v:
            return 0
        return self._m.get((min(u, v), max(u, v)), 0)

    def edges(self):
        """Iterate (u, v, mult) with u < v, sorted."""
        for (u, v) in sorted(self._m):
            yield u, v, self._m[(u, v)]

    def edge_count(self):
        return sum(self._m.values())

    def degree(self, v):
        return sum(m for (a, b), m in self._m.items() if a == v or b == v)

    def adjacent(self, u, v):
        return self.mult(u, v) > 0

    def neighbors(self, v):
        out = set()
        for (a, b) in self._m:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return sorted(out)

    def contract(self, groups):
        """Contract each group to one vertex (group i -> vertex i).

        Groups must partition 0..n-1.  Edges inside a group vanish;
        multiplicities across groups add up.
        """
        owner = {}
        for i, grp in enumerate(groups):
            for v in grp:
                _check_vertex(v, self.n)
                if v in owner:
                    raise InvalidArgumentError(f"vertex {v} in two groups")
                owner[v] = i
        if len(owner) != self.n:
            raise InvalidArgumentError("groups must cover all vertices")
        edges = []
        for (u, v), m in self._m.items():
            gu, gv = owner[u], owner[v]
            if gu != gv:
                edges.append((min(gu, gv), max(gu, gv), m))
        return Multigraph(len(groups), edges)

    def caps_flat(self):
        n = self.n
        caps = [0] * (n * n)
        for (u, v), m in self._m.items():
            caps[u * n + v] = m
            caps[v * n + u] = m
        return caps

    def cut_size(self, side):
        """Number of edges with exactly one endpoint in ``side``."""
        s = set(side)
        return sum(m for (u, v), m in self._m.items() if (u in s) != (v in s))

    def __repr__(self):
        return f"Multigraph(n={self.n}, edges={self.edge_count()})"


def underlying(D):
    return D.underlying()


def reverse(D):
    return D.reverse()


# -- cuts -------------------------------------------------------------


@dataclass(frozen=True)
class Cut:
    """A vertex side and its boundary sizes.

    For cuts of a MultiDigraph all three sizes are set and
    out_size + in_size == undirected_size.  For cuts of a Multigraph
    only undirected_size is set.
    """

    side: frozenset
    undirected_size: int
    out_size: int | None = None
    in_size: int | None = None


def dicut(D, side):
    """Cut record of a MultiDigraph for the given side."""
    s = frozenset(side)
    for v in s:
        _check_vertex(v, D.n)
    out = 0
    inn = 0
    for (t, h), m in D._m.items():
        if t in s and h not in s:
            out += m
        elif h in s and t not in s:
            inn += m
    return Cut(side=s, undirected_size=out + inn, out_size=out, in_size=inn)


def _mask_to_set(mask):
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


# -- flows and connectivity -------------------------------------------


def _degrees(n, caps):
    """Out- and in-degree lists of the n x n capacity matrix caps."""
    return [sum(caps[v * n:v * n + n]) for v in range(n)], [sum(caps[v::n]) for v in range(n)]


def _st_flow(obj, s, t):
    """(value, mask of the source side) of an unlimited s->t flow in
    obj, after the argument checks of max_flow and min_cut."""
    _check_vertex(s, obj.n, "source")
    _check_vertex(t, obj.n, "sink")
    if s == t:
        raise InvalidArgumentError("source and sink must differ")
    return _kernels.st_max_flow(obj.n, obj.caps_flat(), s, t, -1)


def max_flow(obj, s, t):
    """Maximum number of arc-disjoint s->t paths (edge-disjoint for a
    Multigraph).  s must differ from t."""
    return _st_flow(obj, s, t)[0]


def min_cut(obj, s, t):
    """A minimum s-t cut as a Cut record (side contains s)."""
    side = _mask_to_set(_st_flow(obj, s, t)[1])
    if isinstance(obj, MultiDigraph):
        return dicut(obj, side)
    return Cut(side=side, undirected_size=obj.cut_size(side))


def edge_connectivity(G):
    """Global edge-connectivity of a Multigraph; INFINITY for n <= 1.

    Only the value is needed, and it is unique, so this calls the
    value-only kernel ``min_cut_value`` (no max flows in the pure
    backend).  The value is kept on G, which never changes, so the
    kernel runs once per Multigraph; with the memoised
    MultiDigraph.underlying, once per digraph."""
    if not isinstance(G, Multigraph):
        raise InvalidArgumentError("edge_connectivity expects a Multigraph")
    if G._lam is None:
        lam = INFINITY if G.n <= 1 else _kernels.min_cut_value(G.n, G.caps_flat())
        object.__setattr__(G, "_lam", lam)
    return G._lam


def violating_dicut(D, k):
    """A dicut of D with out-size < k, or None if D is k-arc-strong."""
    _check_digraph(D, "violating_dicut")
    _check_k(k)
    n = D.n
    if n <= 1:
        return None
    mask = _kernels.karc_deficient_cut(n, D._read_caps(), k)
    if mask == -1:
        return None
    return dicut(D, _mask_to_set(mask))


def is_k_arc_strong(D, k):
    """True iff every dicut of D has at least k arcs leaving."""
    return violating_dicut(D, k) is None


# -- inversions and pushing -------------------------------------------


class InversionFamily:
    """An ordered list of vertex sets, each of size >= 2.

    Order is kept for display but never affects the result of applying
    the family.  Equality is by the exact sequence; use canonical() to
    compare families as multisets.
    """

    __slots__ = ("sets",)

    def __init__(self, sets):
        out = []
        for s in sets:
            fs = frozenset(s)
            if len(fs) < 2:
                raise InvalidArgumentError(f"inversion set must have >= 2 vertices, got {sorted(fs)}")
            for v in fs:
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise InvalidArgumentError(f"bad vertex id {v!r} in inversion set")
            out.append(fs)
        object.__setattr__(self, "sets", tuple(out))

    def __setattr__(self, *a):
        raise AttributeError("InversionFamily is immutable")

    def __reduce__(self):
        return InversionFamily, (self.sets,)

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __getitem__(self, i):
        return self.sets[i]

    def canonical(self):
        return tuple(sorted(tuple(sorted(s)) for s in self.sets))

    def __eq__(self, other):
        if not isinstance(other, InversionFamily):
            return NotImplemented
        return self.sets == other.sets

    def __hash__(self):
        return hash(self.sets)

    def __repr__(self):
        return f"InversionFamily({[sorted(s) for s in self.sets]})"

    @staticmethod
    def symmetric_difference(*families):
        """Sets appearing an odd number of times across the families.

        Valid composition rule: applying F then G equals applying their
        symmetric difference, because two applications of the same set
        cancel.  Output order is canonical (sorted)."""
        count = {}
        for fam in families:
            for s in fam:
                count[s] = count.get(s, 0) + 1
        odd = [s for s, c in count.items() if c % 2 == 1]
        odd.sort(key=lambda s: tuple(sorted(s)))
        return InversionFamily(odd)

    def to_lines(self):
        return ["inv: " + " ".join(str(v) for v in sorted(s)) for s in self.sets]

    @staticmethod
    def from_lines(lines):
        sets = []
        for ln in lines:
            ln = ln.strip()
            if not ln:
                continue
            if not ln.startswith("inv:"):
                raise InvalidArgumentError(f"expected 'inv:' line, got {ln!r}")
            try:
                sets.append([int(tok) for tok in ln[4:].split()])
            except ValueError:
                raise InvalidArgumentError(f"bad vertex in line {ln!r}") from None
        return InversionFamily(sets)


def _coerce_family(family):
    if isinstance(family, InversionFamily):
        return family
    return InversionFamily(family)


def apply_inversions(D, family):
    """Apply each set of the family in order; see module docstring."""
    _check_digraph(D, "apply_inversions")
    fam = _coerce_family(family)
    n = D.n
    m = dict(D._m)
    for X in fam:
        xs = sorted(X)
        for v in xs:
            _check_vertex(v, n)
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                u, v = xs[i], xs[j]
                a = m.get((u, v), 0)
                b = m.get((v, u), 0)
                if a != b:
                    if a:
                        m[(v, u)] = a
                    else:
                        m.pop((v, u), None)
                    if b:
                        m[(u, v)] = b
                    else:
                        m.pop((u, v), None)
    return MultiDigraph._trusted(n, m)


def push(D, X):
    """Reverse every arc with exactly one endpoint in X."""
    _check_digraph(D, "push")
    s = {_check_vertex(v, D.n) for v in X}
    # a crossing arc and its opposite swap keys, so no two arcs collide
    m = {((h, t) if (t in s) != (h in s) else (t, h)): mm for (t, h), mm in D._m.items()}
    return MultiDigraph._trusted(D.n, m)


def _strong_after(D, family, k, what):
    """apply_inversions(D, family), once it is seen to be k-arc-strong:
    the one check every returned family and planted witness passes."""
    applied = apply_inversions(D, family)
    if not is_k_arc_strong(applied, k):
        raise RuntimeError(f"internal error: {what} failed verification")
    return applied


def _verified(D, family, k, what):
    """family, once _strong_after has checked it."""
    _strong_after(D, family, k, what)
    return family


# -- frames -----------------------------------------------------------


@dataclass(frozen=True)
class FramePartition:
    """Partition of the vertices into maximal k-edge-connected pieces.

    blocks are sorted tuples, listed by smallest element; contracted is
    the multigraph on block indices (edges inside blocks dropped)."""

    k: int
    blocks: tuple
    contracted: Multigraph = field(compare=False)

    def block_index(self, v):
        for i, b in enumerate(self.blocks):
            if v in b:
                return i
        raise InvalidArgumentError(f"vertex {v} not in any block")


def frames(G, k):
    """Split G into maximal vertex sets inducing k-edge-connected
    subgraphs (singletons count as infinitely connected).

    Recursive: a piece whose induced subgraph has a cut below k is split
    along it.  No cut below k separates two vertices of one frame, so
    any such cut gives the unique frame partition; the cut comes from
    ``karc_deficient_cut``, as on a symmetric matrix d+(S) is the cut
    size of S."""
    if not isinstance(G, Multigraph):
        raise InvalidArgumentError("frames expects a Multigraph")
    _check_k(k)
    blocks = []

    def split(ids):
        sub, _ = G.induced(ids)
        mask = _kernels.karc_deficient_cut(sub.n, sub.caps_flat(), k)
        if mask == -1:
            blocks.append(tuple(ids))
            return
        split([ids[i] for i in range(len(ids)) if (mask >> i) & 1])
        split([ids[i] for i in range(len(ids)) if not (mask >> i) & 1])

    if G.n:
        split(list(range(G.n)))
    blocks.sort()
    return FramePartition(k=k, blocks=tuple(blocks), contracted=G.contract(blocks))


# -- .mdg text format ---------------------------------------------------


def parse_mdg(text):
    """Parse the .mdg format.

    Line types: ``mdg <n>`` header (required first non-blank line),
    ``a <tail> <head> [mult]`` arcs, ``#`` comments, blank lines
    ignored.  Malformed input raises ParseError with the line number."""
    n = None
    arcs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if n is None:
            if toks[0] != "mdg" or len(toks) != 2:
                raise ParseError(line_no, f"expected 'mdg <n>' header, got {raw.strip()!r}")
            try:
                n = int(toks[1])
            except ValueError:
                raise ParseError(line_no, f"bad vertex count {toks[1]!r}") from None
            if n < 0:
                raise ParseError(line_no, f"bad vertex count {n}")
            continue
        if toks[0] != "a" or len(toks) not in (3, 4):
            raise ParseError(line_no, f"expected 'a <tail> <head> [mult]', got {raw.strip()!r}")
        try:
            t = int(toks[1])
            h = int(toks[2])
            mult = int(toks[3]) if len(toks) == 4 else 1
        except ValueError:
            raise ParseError(line_no, f"bad arc tokens in {raw.strip()!r}") from None
        if not 0 <= t < n or not 0 <= h < n:
            raise ParseError(line_no, f"arc endpoint out of range 0..{n - 1}")
        if t == h:
            raise ParseError(line_no, f"loop at vertex {t} not allowed")
        if mult < 1:
            raise ParseError(line_no, f"multiplicity must be >= 1, got {mult}")
        arcs.append((t, h, mult))
    if n is None:
        raise ParseError(1, "missing 'mdg <n>' header")
    return MultiDigraph(n, arcs)


def emit_mdg(D, comment=None):
    """Canonical .mdg text: sorted arcs, multiplicity only when > 1."""
    lines = []
    if comment:
        for c in str(comment).splitlines():
            lines.append(f"# {c}")
    lines.append(f"mdg {D.n}")
    for t, h, m in D.arcs():
        lines.append(f"a {t} {h}" if m == 1 else f"a {t} {h} {m}")
    return "\n".join(lines) + "\n"


def read_mdg(path):
    with open(path, encoding="utf-8") as fh:
        return parse_mdg(fh.read())


def write_mdg(path, D, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_mdg(D, comment=comment))
