"""Outside-in tracing of the arcinvert layers.

A Tracer wraps every public function of each package module, the
kernel dispatch functions of ``arcinvert._kernels`` and the methods
``MultiDigraph.underlying`` and ``Gf2Basis.add``, without touching the
package's source.  Modules import functions by name from each other
(``edge_connectivity`` is bound in core, approx, feasibility,
obstruction, oracles and cli), so every module-level binding of a
wrapped function is patched, not only the defining one.  ``uninstall``
puts every original back.

Each call of a wrapped function records a span: name, start, end, the
index of the enclosing span and the id of the benchmark call it belongs
to.  Leaf functions (the kernels and the two methods, plus
``pairs_independent``) are called far too often for one span each, so
their count, time and, for kernels, the matrix cells n*n are summed
into the enclosing span instead.  Everything stays in memory until the
run ends.
"""

import functools
import inspect
import sys
import time

LAYERS = ("_kernels", "core", "feasibility", "obstruction", "simulation", "oracles", "approx", "reductions")
METHODS = (("core", "MultiDigraph", "underlying"), ("oracles", "Gf2Basis", "add"))
LEAF_FUNCTIONS = ("approx.pairs_independent",)

# span record fields
NAME, START, END, PARENT, CALL, LEAVES, FOUND, OUTER = range(8)


def layer_name(module_name):
    short = module_name.rsplit(".", 1)[-1]
    return "kernels" if short == "_kernels" else short


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.call_id = None
        self.orphan = {}  # leaf calls made outside any span
        self._active = {}
        self._patches = []  # (owner, attribute, original)
        self._wrappers = set()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, active = self.spans, self.stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = active.get(name, 0)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id, None, False, depth == 0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] = depth + 1
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                rec[FOUND] = out is not None
                return out
            finally:
                rec[END] = time.perf_counter()
                active[name] = depth
                stack.pop()

        return wrapper

    def _leaf(self, name, fn, cells):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if stack:
                    rec = spans[stack[-1]]
                    if rec[LEAVES] is None:
                        rec[LEAVES] = {}
                    agg = rec[LEAVES]
                else:
                    agg = self.orphan
                slot = agg.get(name)
                if slot is None:
                    slot = agg[name] = [0, 0.0, 0]
                slot[0] += 1
                slot[1] += dt
                if cells:
                    slot[2] += args[0] * args[0]

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: sys.modules[f"arcinvert.{m}"] for m in LAYERS}
        originals = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            layer = layer_name(mod.__name__)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if short == "_kernels":
                    wrapper = self._leaf(name, obj, cells=True)
                elif name in LEAF_FUNCTIONS:
                    wrapper = self._leaf(name, obj, cells=False)
                else:
                    wrapper = self._span(name, obj)
                originals[id(obj)] = (obj, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "arcinvert" or mod_name.startswith("arcinvert.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[meth]
            name = f"{layer_name(short)}.{cls_name}.{meth}"
            self._patch(cls, meth, original, self._leaf(name, original, cells=False))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self._wrappers.add(id(wrapper))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "arcinvert" or mod_name.startswith("arcinvert.")):
                continue
            for attr, obj in vars(mod).items():
                if id(obj) in self._wrappers and getattr(obj, "__wrapped__", None) is not None:
                    raise RuntimeError(f"tracer left a wrapper on {mod_name}.{attr}")

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """Per-function {calls, s, self_s, found} over all spans, the
        leaf calls made directly under each span name, and the kernel
        cells.  ``s`` counts only the outermost span of a recursion and
        self time is a span's duration minus what its child spans and
        leaf calls cover."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for i, rec in enumerate(spans):
            if rec[LEAVES]:
                covered[i] += sum(slot[1] for slot in rec[LEAVES].values())
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        out = {}
        direct_leaves = {}
        cells = 0
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            t = out.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "found": 0})
            t["calls"] += 1
            t["found"] += rec[FOUND]
            if rec[OUTER]:
                t["s"] += dur
            t["self_s"] += dur - covered[i]
            for leaf, (count, secs, c) in (rec[LEAVES] or {}).items():
                lt = out.setdefault(leaf, {"calls": 0, "s": 0.0, "self_s": 0.0, "found": 0})
                lt["calls"] += count
                lt["s"] += secs
                lt["self_s"] += secs
                cells += c
                under = direct_leaves.setdefault(rec[NAME], {})
                under[leaf] = under.get(leaf, 0) + count
        return out, direct_leaves, cells

    def dump(self):
        return {
            "fields": ["name", "start", "end", "parent", "call", "leaves", "found"],
            "spans": [rec[:OUTER] for rec in self.spans],
            "orphan_leaves": self.orphan,
        }
