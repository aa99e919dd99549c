"""Shared builders for the test suite, and the per-node loops that the
vectorized assembly and connectivity check are compared against."""

from collections import deque

import numpy as np
from hypothesis import strategies as st

from plskit import SparseMatrix, csr_from_triplets, spmv
from plskit import obstacle as obs


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


def random_t2(rng, n, symmetric=False):
    """Random t2 matrix T = A diag(s) with its right null vector.

    A is a Z-matrix with zero row sums on a random pattern that a directed
    cycle through every node makes irreducible, and s > 0 scales its
    columns, so T (1/s) = A 1 = 0. Returns (T, 1/s). With symmetric=True,
    A is symmetric and T = diag(s) A diag(s), whose null vector on both
    sides is 1/s.
    """
    a = -rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    cycle = rng.permutation(n)
    a[cycle, np.roll(cycle, -1)] = -(rng.random(n) + 0.1)
    if symmetric:
        a = a + a.T
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    s = rng.uniform(0.2, 5.0, n)
    t = a * s
    if symmetric:
        t = s[:, None] * t
        t = (t + t.T) / 2.0  # symmetric to the bit
    return csr_from_dense(t), 1.0 / s


def irreducible_m_matrix(n, symmetric, f, density, seed):
    """The irreducible nonsingular M-matrix T = f rho(B) I - B of order n:
    B >= 0 has a zero diagonal, entries of the given density drawn with
    the seed, and a directed cycle through every node, which makes it
    irreducible; it is symmetrized before rho(B) is taken if asked."""
    rng = np.random.default_rng(seed)
    b = rng.random((n, n)) * (rng.random((n, n)) < density)
    cycle = rng.permutation(n)
    b[cycle, np.roll(cycle, -1)] = rng.random(n) + 0.1
    np.fill_diagonal(b, 0.0)
    if symmetric:
        b = (b + b.T) / 2.0
        rho = np.linalg.eigvalsh(b).max()
    else:
        rho = np.abs(np.linalg.eigvals(b)).max()
    return csr_from_dense(f * rho * np.eye(n) - b)


@st.composite
def irreducible_m_matrices(draw):
    """irreducible_m_matrix of order 2-11, symmetric or not, with f in
    1 + [1e-3, 0.32], so most are not diagonally dominant."""
    n = draw(st.integers(2, 11))
    symmetric = draw(st.booleans())
    f = 1.0 + 10.0 ** draw(st.floats(-3.0, np.log10(0.32)))
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))
    return irreducible_m_matrix(n, symmetric, f, density,
                                draw(st.integers(0, 2**32 - 1)))


def loop_assembly(spec, n):
    """Reference for obstacle.assemble_elliptic: one node at a time, the
    four neighbours in the order -x, +x, -y, +y. Returns
    (T, f_vec, psi_vec, b) with b's exact zeros made exact as there."""
    x0, x1, y0, y1 = spec.domain
    dx = (x1 - x0) / (n + 1)
    dy = (y1 - y0) / (n + 1)
    grid = obs.Grid2D(n, n, dx, dy, x0, y0)
    cx = 1.0 / dx**2
    cy = 1.0 / dy**2
    neumann = spec.bc_kind == obs.NEUMANN
    size = grid.n
    triplets = []
    f_vec = np.empty(size)
    psi_vec = np.empty(size)
    for k in range(size):
        j, i = divmod(k, n)
        x, y = grid.node_xy(k)
        f_vec[k] = spec.f(x, y)
        psi_vec[k] = spec.psi(x, y)
        diag = 2.0 * cx + 2.0 * cy
        for di, dj, c in ((-1, 0, cx), (1, 0, cx), (0, -1, cy), (0, 1, cy)):
            ii, jj = i + di, j + dj
            if 0 <= ii < n and 0 <= jj < n:
                triplets.append((k, jj * n + ii, -c))
            elif neumann:
                diag -= c
                h = dx if di else dy
                bx = x + di * dx if di else x
                by = y + dj * dy if dj else y
                f_vec[k] += c * h * spec.flux(bx, by)
            else:
                f_vec[k] += c * spec.bc_value
        triplets.append((k, k, diag))
    T = csr_from_triplets(triplets, size, size)
    b = f_vec - spmv(T, psi_vec)
    scale = np.abs(f_vec) + spmv(
        SparseMatrix(size, size, T.row_offsets, T.col_indices, np.abs(T.values)),
        np.abs(psi_vec),
    )
    b[np.abs(b) <= 16.0 * np.finfo(np.float64).eps * scale] = 0.0
    return T, f_vec, psi_vec, b


def queue_is_connected(matrix):
    """Reference for SparseMatrix.is_irreducible: node 0 reaches every node in
    a one-node-at-a-time breadth-first search over the rows of A, and in
    another over the rows of A^T."""
    n = matrix.n_rows
    if n == 0:
        return True
    for mat in (matrix, matrix.transpose()):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        queue = deque([0])
        while queue:
            i = queue.popleft()
            lo, hi = mat.row_offsets[i], mat.row_offsets[i + 1]
            for j in mat.col_indices[lo:hi]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        if not seen.all():
            return False
    return True
