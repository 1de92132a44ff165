"""Locating the mpseg sources and recording the environment a run saw.

The benchmark drives the library from the checkout it sits in
(``<root>/src/mpseg``), never from an installed copy, so the code it
measures is the code next to it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Environment variables that change how the program runs; recorded, never set.
RECORDED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "MPSEG_THREADS", "PYTHONHASHSEED")

_OPENBLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                            "scipy_openblas_get_num_threads",
                            "openblas_get_num_threads64_",
                            "openblas_get_num_threads")


class MissingSource(RuntimeError):
    pass


def import_mpseg():
    """Import mpseg from this checkout's src/, or raise MissingSource."""
    if not (SRC / "mpseg" / "__init__.py").is_file():
        raise MissingSource(f"no mpseg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mpseg
    if Path(mpseg.__file__).resolve().parent != SRC / "mpseg":
        raise MissingSource(f"mpseg imported from {mpseg.__file__}, not from {SRC}")
    return mpseg


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when not found."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "vars": {k: os.environ.get(k) for k in RECORDED_VARS},
    }
