"""Kernel dispatch: compiled backend when available, pure Python otherwise.

The backend is picked once, at import time.  ARCINVERT_KERNEL=py forces
the pure backend, ARCINVERT_KERNEL=c requires the compiled one
(ImportError if it was not built), anything else / unset picks the
compiled backend when present.  Both take the same arguments and return
the same values at every size.
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


def st_max_flow(n, caps, s, t, limit=-1):
    return _impl.st_max_flow(n, caps, s, t, limit)


def karc_deficient_cut(n, caps, k):
    return _impl.karc_deficient_cut(n, caps, k)


def min_cut_value(n, caps):
    return _impl.min_cut_value(n, caps)
