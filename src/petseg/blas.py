"""The thread count of numpy's bundled OpenBLAS, read and set through ctypes.

numpy's wheels ship OpenBLAS as ``libscipy_openblas64_`` with its symbols
renamed. :func:`pinned` finds ``scipy_openblas_set_num_threads64_`` in the
copy numpy has already loaded; where there is none (another BLAS, another
platform) it pins nothing and says so. The count is process-wide, so two
pins must not overlap in time.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np


@cache
def _api():
    """``(get, set)`` of numpy's OpenBLAS thread count, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def threads() -> int | None:
    """BLAS's current thread count, or None when it cannot be read."""
    api = _api()
    return api[0]() if api else None


@contextmanager
def pinned(n: int):
    """Run the block with BLAS at ``n`` threads and restore the previous
    count afterwards; yields whether the pin took effect."""
    api = _api()
    if api is None:
        yield False
        return
    get, set_ = api
    old = get()
    set_(n)
    try:
        yield True
    finally:
        set_(old)
