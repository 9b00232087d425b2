#!/usr/bin/env python3
"""Print the OpenBLAS kernel ("core") that numpy's BLAS runs in this process.

OpenBLAS builds with ``DYNAMIC_ARCH`` pick a kernel per CPU at load time, and
``OPENBLAS_CORETYPE`` overrides the pick for one process. Kernels sum a GEMM
in different orders, so trained bytes (``metrics.csv``, checkpoints) are the
same only under the same core:

    python3 scripts/blas_core.py                            # e.g. SkylakeX
    OPENBLAS_CORETYPE=Haswell python3 scripts/blas_core.py  # Haswell

The core is read through ``ctypes`` from the scipy-openblas library that the
numpy wheel ships; with any other BLAS the answer is ``unknown``.
"""

import ctypes
import glob
import os

import numpy as np

# the query each scipy-openblas build exports: 64-bit-integer build, then 32-bit
CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename")


def blas_core() -> str:
    """Name of the OpenBLAS core numpy runs on, or ``unknown``."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in CORENAME_SYMBOLS:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.argtypes, query.restype = [], ctypes.c_char_p
                return query().decode()
    return "unknown"


if __name__ == "__main__":
    print(blas_core())
