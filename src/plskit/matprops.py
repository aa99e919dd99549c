"""Hypothesis checks on the system matrix and solvability classification.

Two matrix classes matter to the solver: nonsingular irreducible M-matrices
("t1") and singular irreducible matrices with one-dimensional strictly
positive left/right null spaces whose diagonal perturbations are M-matrices
("t2"). Verdicts are three-valued; Inconclusive is reported honestly when
the numerics cannot separate the cases.

Both certificates are theorems (Berman & Plemmons, Nonnegative Matrices
in the Mathematical Sciences, ch. 6).

- t1: a Z-matrix T is a nonsingular M-matrix iff T x > 0 for some x > 0
  (T x = 1 then has a positive solution). check_t1 tries x = 1, then one
  solve of T x = 1, and needs each (T x)_i above its rounding bound. A
  y >= 0 with T y < 0 (or T y ~ 0) disproves it: the solution's |x|, and
  up to _DENSE_SOLVE_LIMIT the Perron vector of s I - T.
- t2: an irreducible Z-matrix T with T w = 0 for a w > 0 is a singular
  irreducible M-matrix, so its null spaces are 1-d and positive, its
  proper principal submatrices and every T + D (D >= 0 diagonal, nonzero)
  are nonsingular M-matrices. check_t2 needs positive w and v with
  residuals |T w|, |T^T v| <= 1e-10 ||T||_inf. Each is tried as 1 on T's
  row sums (T^T's for v) first, and found by a node-deletion solve only
  when that start misses the solve's tolerance; either way it faces the
  same residual and positivity tests. An irreducibly diagonally
  dominant T (the x = 1 test of check_t1) is nonsingular, and check_t2
  says so before any solve.

Irreducibility, a strongly connected pattern, comes from
SparseMatrix.is_irreducible: a one-pass certificate, else a search, found
once per matrix, so check_t1 and check_t2 on the same matrix share it.
The Z-sign test reads the diagonal's slots, which the diagonal test
caches anyway, and T 1 is T's row sums, with no product. The row sums
and absolute row sums are cached on T, read-only, so check_t2 reads the
ones check_t1 made on the same matrix.
"""

from dataclasses import dataclass

import numpy as np

from .numkit import (
    DimensionError, SparseMatrix, _require_finite, active_operator, as_vector,
    principal_submatrix, spmv,
)
from .krylov import KrylovOptions, NotConverged, bicgstab_solve

PROVEN = "Proven"
DISPROVEN = "Disproven"
INCONCLUSIVE = "Inconclusive"

UNIQUE = "Unique"
FAMILY_ALONG_W = "FamilyAlongW"
NO_SOLUTION = "NoSolution"

# systems up to this dimension are solved densely: on a singular T, a
# Krylov solve of T x = 1 can meet check_t1's loose tolerance with an x
# that neither proves nor disproves t1, where the dense solve fails and
# the null vector disproves it (108 of 900 random singular t2 matrices)
_DENSE_SOLVE_LIMIT = 1024
_NULL_RESIDUAL = 1e-10  # |T w| / ||T||_inf at or below this certifies t2
_SINGULAR_RESIDUAL = 1e-12  # |T y| / ||T||_inf at or below this disproves t1
_T1_SOLVE_TOL = 0.5  # |T x - 1|_2 <= 1/2 leaves T x >= 1/2 in every row
_ROUNDING_ULPS = 16.0  # (T y)_i within this many ulps of (|T| y)_i is noise
_SOLVE_FAILED = (NotConverged, np.linalg.LinAlgError)
_DOMINANT = "irreducibly diagonally dominant"


class InvalidNullVector(ValueError):
    """A null vector that must be strictly positive is not."""


@dataclass
class MatrixClassReport:
    is_z_matrix: bool
    is_irreducible: bool
    t1_verdict: str | None = None
    t2_verdict: str | None = None
    left_null: np.ndarray | None = None
    right_null: np.ndarray | None = None
    notes: tuple = ()


@dataclass(frozen=True)
class Solvability:
    verdict: str
    vtb: float


def _class_report(matrix):
    """The Z-sign and irreducibility report both checks start from; a
    non-finite entry is refused before either."""
    if matrix.n_rows != matrix.n_cols:
        raise DimensionError(f"matrix is {matrix.shape}, expected square")
    _require_finite(matrix)
    above = matrix.values > 0.0
    slots = matrix.diagonal_slots()
    stored = slots >= 0
    above[matrix.row_offsets[:-1][stored] + slots[stored]] = False
    return MatrixClassReport(is_z_matrix=not above.any(),
                             is_irreducible=matrix.is_irreducible())


def check_t1(matrix):
    """Decide whether T is an irreducible nonsingular M-matrix.

    By the theorem of the module docstring, tried on x = 1 (irreducible
    diagonal dominance), then on one solve of T x = 1. The same products
    disprove it: T y ~ 0 or T y < 0 for a y >= 0, the solution's |x|, or
    up to _DENSE_SOLVE_LIMIT the Perron vector of s I - T."""
    report = _class_report(matrix)
    report.t1_verdict, note = _t1_verdict(matrix, report)
    report.notes = (note,)
    return report


def _t1_verdict(matrix, report):
    n = matrix.n_rows
    if n == 0:
        return DISPROVEN, "empty matrix"
    if not report.is_z_matrix:
        return DISPROVEN, "positive off-diagonal entry"
    if not report.is_irreducible:
        return DISPROVEN, "matrix is reducible"
    if matrix.diagonal().min() <= 0.0:
        return DISPROVEN, "nonpositive diagonal entry"
    tnorm, row_sums, noise, dominant = _ones_test(matrix)
    if dominant:
        return PROVEN, _DOMINANT
    disproof = _t1_disproof(row_sums, noise, tnorm)
    if disproof:
        return DISPROVEN, disproof

    ulps = _rounding_ulps(matrix)
    abs_t = SparseMatrix(n, n, matrix.row_offsets, matrix.col_indices,
                         np.abs(matrix.values))
    try:
        y = _solve(matrix, np.ones(n, dtype=bool), np.ones(n), _T1_SOLVE_TOL)
    except _SOLVE_FAILED:
        try:
            y = _positive_null_vector(matrix, tnorm, row_sums)
        except _SOLVE_FAILED:
            return INCONCLUSIVE, "solves of T x = 1 and T w = 0 failed"
    else:
        if y.min() > 0.0 and np.all(spmv(matrix, y) > ulps * spmv(abs_t, y)):
            return PROVEN, "T x > 0 for the positive solution x of T x = 1"

    def disproof_by(y):
        y = y / y.max()
        return _t1_disproof(spmv(matrix, y), ulps * spmv(abs_t, y), tnorm)

    disproof = disproof_by(np.abs(y))
    if not disproof and n <= _DENSE_SOLVE_LIMIT:
        disproof = disproof_by(_perron_vector(matrix))
    if disproof:
        return DISPROVEN, disproof
    return INCONCLUSIVE, "solution of T x = 1 neither proves nor disproves t1"


def _perron_vector(matrix):
    """|Perron vector| of B = s I - T, s the largest diagonal entry, by a
    dense eigensolve. B >= 0 for a Z-matrix, so its Perron root rho(B) is
    the eigenvalue of largest real part, and T y = (s - rho(B)) y < 0 for
    the Perron vector y when rho(B) > s."""
    s = matrix.diagonal().max()
    values, vectors = np.linalg.eig(s * np.eye(matrix.n_rows) - matrix.to_dense())
    return np.abs(vectors[:, np.argmax(values.real)].real)


def _rounding_ulps(matrix):
    """Rounding bound of (T y)_i for y >= 0 as a multiple of (|T| y)_i:
    16 ulps, or k_i + 1 ulps for a row of k_i >= 16 entries."""
    ulps = np.maximum(_ROUNDING_ULPS, np.diff(matrix.row_offsets) + 1.0)
    return ulps * np.finfo(np.float64).eps


def _ones_test(matrix):
    """||T||_inf, T 1, the rounding noise of each of its rows, and whether
    T 1 >= 0 with some row above its noise: with irreducibility, that
    makes T irreducibly diagonally dominant, so nonsingular. A row sum
    counts as positive only above the noise of the sum that formed it, or
    a singular Laplacian would pass. Each check calls it once and passes
    the norm down; both sums are T's cached ones."""
    abs_sums = matrix.abs_row_sums()
    tnorm = float(abs_sums.max())
    row_sums = matrix.row_sums()
    noise = _rounding_ulps(matrix) * abs_sums
    dominant = bool(np.all(row_sums >= 0.0) and np.any(row_sums > noise))
    return tnorm, row_sums, noise, dominant


def _t1_disproof(ty, noise, tnorm):
    """The note of a t1 disproof by T y for a y >= 0 with max 1, or None.
    With T = s I - B, B >= 0, T y < 0 means B y > s y, so rho(B) > s."""
    if np.abs(ty).max() <= _SINGULAR_RESIDUAL * tnorm:
        return "singular: positive vector found in the null space"
    if np.all(ty < -noise):
        return "spectral radius exceeds the diagonal bound"
    return None


def _solve(matrix, mask, rhs, abs_tol):
    """T_AA^-1 rhs on the rows and columns of mask: dense up to
    _DENSE_SOLVE_LIMIT, else Jacobi Bi-CGSTAB on active_operator's slice
    from ones to |residual|_2 <= abs_tol."""
    if rhs.size <= _DENSE_SOLVE_LIMIT:
        return np.linalg.solve(principal_submatrix(matrix, mask).to_dense(), rhs)
    opts = KrylovOptions(rel_tol=0.0, abs_tol=abs_tol)
    return bicgstab_solve(active_operator(matrix, mask), rhs,
                          x0=np.ones(rhs.size), opts=opts)[0]


def _positive_null_vector(matrix, tnorm, row_sums):
    """w with w_0 = 1 and T_{-0,-0} w_{-0} = -T_{-0,0}, scaled to max 1,
    to |residual|_2 <= 0.1 _NULL_RESIDUAL ||T||_inf / sqrt(n) on rows
    1..n-1, as v^T T w = 0 bounds row 0 by sqrt(n) max v/v_0; tnorm is
    ||T||_inf and row_sums is T 1. Rows 1..n-1 of T 1 are the residual
    at w = 1, so w = 1 is returned with no solve when they meet that
    bound. Otherwise the node-deletion system is solved (a Krylov solve
    starts from ones). The caller checks w either way."""
    n = matrix.n_rows
    abs_tol = 0.1 * _NULL_RESIDUAL * tnorm / np.sqrt(n)
    if np.linalg.norm(row_sums[1:]) <= abs_tol:
        return np.ones(n)
    rhs = -spmv(matrix, np.eye(1, n)[0])[1:]
    w = np.concatenate([[1.0], _solve(matrix, np.arange(n) > 0, rhs, abs_tol)])
    return w / w.max()


def check_t2(matrix):
    """Decide whether T is singular irreducible with positive 1-d null spaces.

    By the Berman & Plemmons theorem of the module docstring, with w and v
    from one node-deletion solve each (v = w for symmetric T), or equal
    to 1 with no solve when T's (T^T's) row sums already meet its
    tolerance."""
    report = _class_report(matrix)
    report.t2_verdict, note = _t2_verdict(matrix, report)
    report.notes = (note,)
    return report


def _t2_verdict(matrix, report):
    """(verdict, note) of check_t2; sets the report's null vectors once
    both are found."""
    if matrix.n_rows == 0:
        return DISPROVEN, "empty matrix"
    if not report.is_z_matrix or not report.is_irreducible:
        return DISPROVEN, "needs an irreducible Z-pattern"
    tnorm, row_sums, _, dominant = _ones_test(matrix)
    if tnorm == 0.0:
        return DISPROVEN, "zero matrix"
    if dominant:
        return DISPROVEN, "nonsingular: " + _DOMINANT
    transpose = matrix if matrix.is_symmetric() else matrix.transpose()
    try:
        w = _positive_null_vector(matrix, tnorm, row_sums)
        v = (w if transpose is matrix
             else _positive_null_vector(transpose, transpose.norm_inf(),
                                        transpose.row_sums()))
    except _SOLVE_FAILED:
        return INCONCLUSIVE, "solve for the null vectors failed"
    report.right_null, report.left_null = w, v

    resid_w = float(np.abs(spmv(matrix, w)).max())
    resid_v = (resid_w if v is w
               else float(np.abs(spmv(transpose, v)).max()))
    relative = max(resid_w, resid_v) / tnorm
    if relative > 1e-4:
        return DISPROVEN, "no null space found; matrix appears nonsingular"
    if relative > _NULL_RESIDUAL:
        return INCONCLUSIVE, "null-space residual between the decision thresholds"
    if min(w.min(), v.min()) <= -1e-8:
        return DISPROVEN, "null vector is not strictly positive"
    if min(w.min(), v.min()) <= 0.0:
        return INCONCLUSIVE, "null vector positivity is borderline"
    return PROVEN, (f"positive null vectors, residual {relative:.1e} ||T||_inf "
                    f"<= threshold {_NULL_RESIDUAL:.0e}")


def classify_solvability(v, b, class_tol=None):
    """Classify a singular system by the sign of v^T b.

    Negative means a unique solution, zero (within class_tol) a family
    along the right null vector, positive no solution. The default
    class_tol is 1e-10 ||v||_2 ||b||_2.
    """
    v = as_vector(v)
    b = as_vector(b)
    if v.shape != b.shape:
        raise DimensionError("null vector and right-hand side differ in length")
    if v.size == 0 or v.min() <= 0.0:
        raise InvalidNullVector("left null vector must be strictly positive")
    vtb = float(v @ b)
    tol = (
        class_tol
        if class_tol is not None
        else 1e-10 * float(np.linalg.norm(v)) * float(np.linalg.norm(b))
    )
    if vtb < -tol:
        return Solvability(UNIQUE, vtb)
    if vtb > tol:
        return Solvability(NO_SOLUTION, vtb)
    return Solvability(FAMILY_ALONG_W, vtb)
