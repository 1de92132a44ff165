"""Hold the OpenBLAS bundled in numpy's wheel to one thread.

``mpseg/__init__.py`` calls ``set_threads(1)`` once at import, so every
entry point (the CLI, the tests, an in-process import) runs one BLAS
thread. The largest product in a step is (20x1024)@(1024x32): a second
thread finds no work worth sharing and spins on a core between calls.
Setting ``OPENBLAS_NUM_THREADS`` here would do nothing: numpy has loaded
OpenBLAS by the time mpseg is imported.

The library is the ``*openblas*`` file in the wheel's ``numpy.libs``
directory (``numpy/.dylibs`` on macOS). Its thread setter is the first
found of the scipy-openblas names (numpy 2 wheels) and the plain
``openblas_`` names (numpy 1.24 wheels), each with its ILP64 suffix
first. A numpy built on MKL, Accelerate or a system BLAS bundles no such
library; then ``OPENBLAS_SET_NUM_THREADS`` is None and ``set_threads``
does nothing.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_", "openblas_set_num_threads")


def _find_setter():
    """The bundled OpenBLAS's set_num_threads, or None."""
    root = Path(np.__file__).resolve().parent
    for libdir in (root.parent / "numpy.libs", root / ".dylibs"):
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for name in _SETTERS:
                setter = getattr(handle, name, None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    return setter
    return None


OPENBLAS_SET_NUM_THREADS = _find_setter()


def set_threads(n: int) -> None:
    """Set the bundled OpenBLAS's thread count; a no-op when there is none."""
    if OPENBLAS_SET_NUM_THREADS is not None:
        OPENBLAS_SET_NUM_THREADS(n)
