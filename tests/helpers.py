"""Shared builders for the test suite."""

import numpy as np

from plskit import csr_from_triplets


def csr_from_dense(a):
    a = np.asarray(a, dtype=np.float64)
    triplets = [
        (i, j, a[i, j])
        for i in range(a.shape[0])
        for j in range(a.shape[1])
        if a[i, j] != 0.0
    ]
    return csr_from_triplets(triplets, a.shape[0], a.shape[1])


def path_laplacian(n):
    """Singular irreducible Laplacian of the path graph; null vectors are
    all-ones on both sides."""
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i] += 1.0
        a[i + 1, i + 1] += 1.0
        a[i, i + 1] -= 1.0
        a[i + 1, i] -= 1.0
    return csr_from_dense(a)


def random_t1(rng, n):
    """Random irreducibly diagonally dominant M-matrix (hence T1)."""
    a = -rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(a, 0.0)
    for i in range(n - 1):
        # keep the pattern connected
        if a[i, i + 1] == 0.0:
            a[i, i + 1] = -0.5
        if a[i + 1, i] == 0.0:
            a[i + 1, i] = -0.5
    row = -a.sum(axis=1)
    np.fill_diagonal(a, row + rng.random(n) + 0.1)
    return csr_from_dense(a)


def random_symmetric_t1(rng, n):
    """Random symmetric irreducibly diagonally dominant M-matrix (T1)."""
    a = -rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    a = np.triu(a, 1)
    for i in range(n - 1):
        if a[i, i + 1] == 0.0:
            a[i, i + 1] = -0.5
    a = a + a.T
    np.fill_diagonal(a, -a.sum(axis=1) + rng.random(n) + 0.1)
    return csr_from_dense(a)
