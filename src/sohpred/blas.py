"""The thread count of the OpenBLAS that NumPy bundles: read it, and hold it at one thread."""

from __future__ import annotations

import contextlib
from functools import cache

import numpy as np


@cache
def openblas_threads():
    """OpenBLAS's own thread-count getter and setter in NumPy's bundled library, or None.

    The symbols' names depend on how the NumPy wheel built OpenBLAS, so the
    known names are tried in turn.  The imports stay here: a run that never
    asks pays nothing for them.
    """
    import ctypes
    from pathlib import Path

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(dll, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(dll, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype = ctypes.c_int
                    set_.argtypes = [ctypes.c_int]
                    set_.restype = None
                    return get, set_
    return None


@contextlib.contextmanager
def one_thread():
    """Run the body with OpenBLAS on one thread, then restore the count it had.

    The count is restored also when the body raises.  Where no OpenBLAS
    setter is found the thread count is left alone.
    """
    blas = openblas_threads()
    previous = blas[0]() if blas else None
    if blas:
        blas[1](1)
    try:
        yield
    finally:
        if blas:
            blas[1](previous)
