"""Kernel dispatch: compiled backend when available, pure Python otherwise.

The backend is picked once, at import time.  ARCINVERT_KERNEL=py forces
the pure backend, ARCINVERT_KERNEL=c requires the compiled one
(ImportError if it was not built), auto or unset picks the compiled
backend when present, and any other value raises RuntimeError.  Both
take the same arguments and return the same values at every size.

karc_deficient_cut keeps the last matrix its backend proved k-arc-strong
(answer -1): the backend object, n, k and a copy of caps.  A call with
the same backend object, n and k and a caps list equal to that copy
answers -1 without the backend.  Every search that finds a strong
digraph re-verifies it through apply_inversions and a strongness check
(core._strong_after), so the verification asks this question a second
time about the same matrix; the memo answers it.  It is exact: both
backends are deterministic functions of (n, caps, k), and the
verification still builds its matrix independently, so a search whose
own flips disagree with apply_inversions hands the backend a different
matrix.  The memo never answers across backends (a swapped _impl
misses), holds one matrix, copies caps only on strong answers, and
compares entries by value.  Threads share it safely: the entry is one
tuple, replaced whole and read once per call, and its copy of caps
never changes, so a thread that reads another thread's entry hits only
on an equal matrix.

karc_deficient_cut's optional ``after = (side, u, v)`` says that caps
is one swap of the u-v counts away from a matrix whose answer at the
same k was side.  It is passed to the backend; the pure one grows its
k = 1 reaches from side (see _pyimpl.karc_deficient_cut), the compiled
one ignores it, and both answer as without it.

karc_deficient_cut and st_max_flow take one more optional hint,
``matrix``: a Matrix whose ``caps`` is the caps argument itself.  A
search that changes one matrix between its kernel calls keeps one
Matrix over it for the whole search, changes caps only through the
Matrix's ``swap`` and ``add``, and passes it to every call.  The pure
backend then keeps what its calls derive from caps (row and column
masks, neighbour lists, the transposed matrix) in the Matrix and
updates it on each write, instead of deriving it again on each call;
the compiled one ignores the hint.  Neither answer depends on it.  A
Matrix belongs to its search and is dropped with it.
"""

import importlib
import os

from . import _pyimpl

_requested = os.environ.get("ARCINVERT_KERNEL", "auto").strip().lower() or "auto"
_impl = _pyimpl
if _requested in ("auto", "c"):
    try:
        _impl = importlib.import_module("._cimpl", __name__)
    except ImportError:
        if _requested == "c":
            raise ImportError(
                "ARCINVERT_KERNEL=c requested but the compiled kernel is not built"
            ) from None
elif _requested != "py":
    raise RuntimeError(f"unknown ARCINVERT_KERNEL value: {_requested!r}")

backend_name = _impl.BACKEND
Matrix = _pyimpl.Matrix

# (backend, n, k, caps copy) of the last strong answer, or None
_strong = None


def st_max_flow(n, caps, s, t, limit=-1, matrix=None):
    return _impl.st_max_flow(n, caps, s, t, limit, matrix)


def karc_deficient_cut(n, caps, k, after=None, matrix=None):
    global _strong
    impl = _impl
    last = _strong
    if last is not None and last[0] is impl and last[1] == n and last[2] == k and last[3] == caps:
        return -1
    side = impl.karc_deficient_cut(n, caps, k, after, matrix)
    if side == -1:
        _strong = (impl, n, k, list(caps))
    return side


def min_cut_value(n, caps):
    return _impl.min_cut_value(n, caps)
