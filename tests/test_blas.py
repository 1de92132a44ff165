import ctypes
from pathlib import Path

import numpy as np

from mpseg import _blas

GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
           "openblas_get_num_threads64_", "openblas_get_num_threads")


def bundled_openblas_threads() -> list:
    """The thread count each OpenBLAS file in numpy's wheel reports."""
    root = Path(np.__file__).resolve().parent
    counts = []
    for lib in [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]:
        handle = ctypes.CDLL(str(lib))
        getter = next(getattr(handle, name) for name in GETTERS if hasattr(handle, name))
        getter.argtypes, getter.restype = [], ctypes.c_int
        counts.append(getter())
    return counts


def test_importing_mpseg_holds_numpy_openblas_to_one_thread():
    counts = bundled_openblas_threads()
    if counts:
        assert _blas.OPENBLAS_SET_NUM_THREADS is not None
        assert counts == [1] * len(counts)
    else:
        assert _blas.OPENBLAS_SET_NUM_THREADS is None

