"""Compute kernel for the CSR matrix-vector product.

Two interchangeable backends: a numba-compiled loop (default when numba
is importable) and vectorized numpy. Set PLSKIT_NUMPY=1 to force the
numpy backend. csr_matvec_py is always available so the backends can be
compared directly in tests and benchmarks.
"""

import os

import numpy as np

_FORCE_NUMPY = os.environ.get("PLSKIT_NUMPY", "") not in ("", "0")

try:
    if _FORCE_NUMPY:
        raise ImportError("numpy backend forced")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def _csr_matvec(values, col_indices, row_offsets, x):
    n = row_offsets.size - 1
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for k in range(row_offsets[i], row_offsets[i + 1]):
            acc += values[k] * x[col_indices[k]]
        out[i] = acc
    return out


def _row_sums(prod, row_offsets):
    # segment sums that stay exact for empty rows
    n = row_offsets.size - 1
    if prod.size == 0:
        return np.zeros(n)
    starts = np.minimum(row_offsets[:-1], prod.size - 1)
    out = np.add.reduceat(prod, starts)
    out[row_offsets[:-1] == row_offsets[1:]] = 0.0
    return out


def csr_matvec_py(values, col_indices, row_offsets, x):
    return _row_sums(values * x[col_indices], row_offsets)


if HAVE_NUMBA:
    csr_matvec = njit(cache=True)(_csr_matvec)
else:
    csr_matvec = csr_matvec_py

BACKEND = "numba" if HAVE_NUMBA else "numpy"
