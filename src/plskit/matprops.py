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
  solve of T x = 1, and needs each (T x)_i above its rounding bound.
- t2: an irreducible Z-matrix T with T w = 0 for a w > 0 is a singular
  irreducible M-matrix, so its null spaces are 1-d and positive, its
  proper principal submatrices and every T + D (D >= 0 diagonal, nonzero)
  are nonsingular M-matrices. check_t2 needs positive w and v with
  residuals |T w|, |T^T v| <= 1e-10 ||T||_inf. An irreducibly diagonally
  dominant T (the x = 1 test of check_t1) is nonsingular, and check_t2
  says so before any solve.

Irreducibility, a strongly connected pattern, comes from
SparseMatrix.is_irreducible, which searches once per matrix, so
check_t1 and check_t2 on the same matrix share one search.
"""

from dataclasses import dataclass

import numpy as np

from .numkit import (
    DimensionError, SparseMatrix, active_operator, as_vector, principal_submatrix,
    spmv,
)
from .krylov import Breakdown, KrylovOptions, NotConverged, qmr_solve

PROVEN = "Proven"
DISPROVEN = "Disproven"
INCONCLUSIVE = "Inconclusive"

UNIQUE = "Unique"
FAMILY_ALONG_W = "FamilyAlongW"
NO_SOLUTION = "NoSolution"

_DENSE_SOLVE_LIMIT = 1024  # systems up to this dimension are solved densely
_NULL_RESIDUAL = 1e-10  # |T w| / ||T||_inf at or below this certifies t2
_SINGULAR_RESIDUAL = 1e-12  # |T y| / ||T||_inf at or below this disproves t1
_T1_SOLVE_TOL = 0.5  # |T x - 1|_2 <= 1/2 leaves T x >= 1/2 in every row
_ROUNDING_ULPS = 16.0  # (T y)_i within this many ulps of (|T| y)_i is noise
_SOLVE_FAILED = (NotConverged, Breakdown, np.linalg.LinAlgError)
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


@dataclass
class Solvability:
    verdict: str
    vtb: float


def _require_square(matrix):
    if matrix.n_rows != matrix.n_cols:
        raise DimensionError(f"matrix is {matrix.shape}, expected square")


def _off_diagonal_sign_ok(matrix):
    rows = np.repeat(
        np.arange(matrix.n_rows), np.diff(matrix.row_offsets)
    )
    off = rows != matrix.col_indices
    return bool(np.all(matrix.values[off] <= 0.0))


def check_t1(matrix):
    """Decide whether T is an irreducible nonsingular M-matrix.

    By the theorem of the module docstring, tried on x = 1 (irreducible
    diagonal dominance), then on one solve of T x = 1. The same products
    disprove it: T y ~ 0 or T y < 0 for a y >= 0."""
    _require_square(matrix)
    report = MatrixClassReport(is_z_matrix=_off_diagonal_sign_ok(matrix),
                               is_irreducible=matrix.is_irreducible())
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
            y = _positive_null_vector(matrix, tnorm)
        except _SOLVE_FAILED:
            return INCONCLUSIVE, "solves of T x = 1 and T w = 0 failed"
    else:
        if y.min() > 0.0 and np.all(spmv(matrix, y) > ulps * spmv(abs_t, y)):
            return PROVEN, "T x > 0 for the positive solution x of T x = 1"
    y = np.abs(y) / np.abs(y).max()
    disproof = _t1_disproof(spmv(matrix, y), ulps * spmv(abs_t, y), tnorm)
    if disproof:
        return DISPROVEN, disproof
    return INCONCLUSIVE, "solution of T x = 1 neither proves nor disproves t1"


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
    the norm down."""
    abs_sums = matrix.abs_row_sums()
    tnorm = float(abs_sums.max())
    row_sums = spmv(matrix, np.ones(matrix.n_cols))
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
    _DENSE_SOLVE_LIMIT (QMR missed 1 of 900 seeded t2 tests), else Jacobi
    QMR on active_operator's slice from ones to |residual|_2 <= abs_tol."""
    if rhs.size <= _DENSE_SOLVE_LIMIT:
        return np.linalg.solve(principal_submatrix(matrix, mask).to_dense(), rhs)
    opts = KrylovOptions(rel_tol=0.0, abs_tol=abs_tol)
    return qmr_solve(active_operator(matrix, mask), rhs, x0=np.ones(rhs.size),
                     opts=opts)[0]


def _positive_null_vector(matrix, tnorm):
    """w with w_0 = 1 and T_{-0,-0} w_{-0} = -T_{-0,0}, scaled to max 1.
    A Krylov solve starts from ones (the answer if T 1 = 0) and stops at
    0.1 _NULL_RESIDUAL ||T||_inf / sqrt(n) on rows 1..n-1, as v^T T w = 0
    bounds row 0 by sqrt(n) max v/v_0; tnorm is ||T||_inf."""
    n = matrix.n_rows
    rhs = -spmv(matrix, np.eye(1, n)[0])[1:]
    abs_tol = 0.1 * _NULL_RESIDUAL * tnorm / np.sqrt(n)
    w = np.concatenate([[1.0], _solve(matrix, np.arange(n) > 0, rhs, abs_tol)])
    return w / w.max()


def check_t2(matrix):
    """Decide whether T is singular irreducible with positive 1-d null spaces.

    By the Berman & Plemmons theorem of the module docstring, with w and v
    from one node-deletion solve each (v = w for symmetric T)."""
    _require_square(matrix)
    n = matrix.n_rows
    is_z = _off_diagonal_sign_ok(matrix)
    irreducible = matrix.is_irreducible()
    report = MatrixClassReport(is_z_matrix=is_z, is_irreducible=irreducible)
    if n == 0 or not is_z or not irreducible:
        report.t2_verdict = DISPROVEN
        report.notes = ("empty matrix" if n == 0 else "needs an irreducible Z-pattern",)
        return report
    tnorm, _, _, dominant = _ones_test(matrix)
    if tnorm == 0.0:
        report.t2_verdict = DISPROVEN
        report.notes = ("zero matrix",)
        return report
    if dominant:
        report.t2_verdict = DISPROVEN
        report.notes = ("nonsingular: " + _DOMINANT,)
        return report
    transpose = matrix if matrix.is_symmetric() else matrix.transpose()
    try:
        w = _positive_null_vector(matrix, tnorm)
        v = (w if transpose is matrix
             else _positive_null_vector(transpose, transpose.norm_inf()))
    except _SOLVE_FAILED:
        report.t2_verdict = INCONCLUSIVE
        report.notes = ("solve for the null vectors failed",)
        return report
    report.right_null = w
    report.left_null = v

    resid_w = float(np.abs(spmv(matrix, w)).max())
    resid_v = float(np.abs(spmv(transpose, v)).max())
    relative = max(resid_w, resid_v) / tnorm
    if relative > 1e-4:
        report.t2_verdict = DISPROVEN
        report.notes = ("no null space found; matrix appears nonsingular",)
        return report
    if relative > _NULL_RESIDUAL:
        report.t2_verdict = INCONCLUSIVE
        report.notes = ("null-space residual between the decision thresholds",)
        return report
    if w.min() <= 0.0 or v.min() <= 0.0:
        if min(w.min(), v.min()) <= -1e-8:
            report.t2_verdict = DISPROVEN
            report.notes = ("null vector is not strictly positive",)
        else:
            report.t2_verdict = INCONCLUSIVE
            report.notes = ("null vector positivity is borderline",)
        return report
    report.t2_verdict = PROVEN
    report.notes = (f"positive null vectors, residual {relative:.1e} ||T||_inf "
                    f"<= threshold {_NULL_RESIDUAL:.0e}",)
    return report


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
