"""A fixed piece of pure-Python work that measures how fast the host
runs the interpreter at a given moment.

The benchmark's timings are taken on shared machines whose speed moves
by tens of percent within seconds and for minutes at a time: other
tenants' work slows this process down without preempting it (CPU time
slows as much as wall time).  The benchmark times this loop between
the workload's calls and divides each call's time by the speed it saw
around the call, so that a call's figure reads what it would take at
the reference speed (``REFERENCE_S`` for one ``sample()``), not how
busy the host was.

The loop is the benchmark's own code and never calls the package, so a
change to the package cannot change it.  It does the kinds of work the
package's pure-Python backend does: breadth-first augmenting paths over
a flat capacity list, XOR elimination on int bit masks, and set and
dict bookkeeping.
"""

import random
import time
from collections import deque

# seconds one sample() takes at the reference speed; the fastest
# sample seen on the 2-vCPU host the benchmark was written on
REFERENCE_S = 0.0035

_N = 24
_rng = random.Random(20260101)
_CAPS = [0] * (_N * _N)
for _u in range(_N):
    for _v in _rng.sample(range(_N), 5):
        if _v != _u:
            _CAPS[_u * _N + _v] += 1
            _CAPS[_v * _N + _u] += 1
_WORDS = [_rng.getrandbits(_N) for _ in range(400)]


def _max_flow(s, t):
    n = _N
    res = list(_CAPS)
    parent = [-1] * n
    flow = 0
    while True:
        for i in range(n):
            parent[i] = -1
        parent[s] = s
        q = deque([s])
        while q:
            u = q.popleft()
            if u == t:
                break
            base = u * n
            for v in range(n):
                if parent[v] < 0 and res[base + v] > 0:
                    parent[v] = u
                    q.append(v)
        if parent[t] < 0:
            return flow
        v = t
        while v != s:
            u = parent[v]
            res[u * n + v] -= 1
            res[v * n + u] += 1
            v = u
        flow += 1


def _work():
    total = 0
    for t in range(1, _N):
        total += _max_flow(0, t)
    basis = {}
    for word in _WORDS:
        v = word
        while v:
            h = v.bit_length() - 1
            if h in basis:
                v ^= basis[h]
            else:
                basis[h] = v
                break
    seen = set()
    for word in _WORDS:
        key = (word & 0xFF, word >> 16)
        if key not in seen:
            seen.add(key)
    return total + len(basis) + len(seen)


_EXPECTED = _work()


def sample():
    """Seconds the fixed work took just now."""
    t0 = time.perf_counter()
    got = _work()
    dt = time.perf_counter() - t0
    if got != _EXPECTED:
        raise RuntimeError("calibration work gave a different result")
    return dt
