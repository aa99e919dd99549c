"""Hypothesis checks on the system matrix and solvability classification.

Two matrix classes matter to the solver: nonsingular irreducible M-matrices
("t1") and singular irreducible matrices with one-dimensional strictly
positive left/right null spaces whose diagonal perturbations are M-matrices
("t2"). Verdicts are three-valued; Inconclusive is reported honestly when
the numerics cannot separate the cases.

The t2 certificate is a theorem (Berman & Plemmons, Nonnegative Matrices
in the Mathematical Sciences, ch. 6): an irreducible Z-matrix T with
T w = 0 for a w > 0 is a singular irreducible M-matrix, so its null spaces
are 1-d and positive, its proper principal submatrices and every T + D
(D >= 0 diagonal, nonzero) are nonsingular M-matrices. check_t2 needs
positive w and v with residuals |T w|, |T^T v| <= 1e-10 ||T||_inf.
"""

from dataclasses import dataclass

import numpy as np

from .numkit import DimensionError, as_vector, principal_submatrix, spmv
from .krylov import Breakdown, JACOBI, KrylovOptions, NotConverged, qmr_solve

PROVEN = "Proven"
DISPROVEN = "Disproven"
INCONCLUSIVE = "Inconclusive"

UNIQUE = "Unique"
FAMILY_ALONG_W = "FamilyAlongW"
NO_SOLUTION = "NoSolution"

_DENSE_SOLVE_LIMIT = 1024  # dense null-vector solve up to this dimension
_NULL_RESIDUAL = 1e-10  # |T w| / ||T||_inf at or below this certifies t2
_SEPARATION = 1e-10  # relative spectral gap needed for a t1 verdict
_DOMINANCE_ULPS = 16.0  # row sums within this many ulps of sum |T_kj| are zero


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
    alpha: float | None = None
    spectral_radius_estimate: float | None = None
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


def _is_connected(matrix):
    """Irreducibility: node 0 reaches every node along the rows of A and
    along the rows of A^T, so the directed pattern is strongly connected.

    Each search is breadth-first one level at a time: the next frontier
    is every unseen column in the frontier's rows, sorted so that each
    node enters once.
    """
    n = matrix.n_rows
    if n == 0:
        return True
    for mat in (matrix, matrix.transpose()):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            reached = _row_columns(mat, frontier)
            reached = np.sort(reached[~seen[reached]])
            first = np.ones(reached.size, dtype=bool)
            first[1:] = reached[1:] != reached[:-1]
            frontier = reached[first]
            seen[frontier] = True
        if not seen.all():
            return False
    return True


def _row_columns(matrix, rows):
    """Column indices stored in the given rows, row after row."""
    starts = matrix.row_offsets[rows]
    counts = matrix.row_offsets[rows + 1] - starts
    # entry e of the gathered run sits at starts[r] + (e - begin of run r)
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return matrix.col_indices[np.arange(shift.size) + shift]


def _shifted_power_bounds(matrix, alpha, max_iters):
    """Collatz-Wielandt bounds for rho(alpha I - T) via B' = 2 alpha I - T.

    Returns (lower, upper, w_estimate); the shift makes the nonnegative
    iteration matrix aperiodic so the bounds close for irreducible patterns.
    """
    n = matrix.n_rows
    w = np.ones(n)
    lower, upper = 0.0, np.inf
    for _ in range(max_iters):
        bw = 2.0 * alpha * w - spmv(matrix, w)
        if np.any(w <= 0.0) or np.any(bw <= 0.0):
            w = np.abs(bw)
            w /= w.max()
            continue
        ratios = bw / w
        lower, upper = float(ratios.min()), float(ratios.max())
        w = bw / bw.max()
        if upper - lower <= _SEPARATION * alpha * 0.1:
            break
    return lower - alpha, upper - alpha, w


def check_t1(matrix):
    """Decide whether T is an irreducible nonsingular M-matrix.

    The cheap certificate (irreducibly diagonally dominant Z-matrix) is
    tried first; otherwise power iteration brackets rho(alpha I - T)
    against alpha = max diagonal entry.
    """
    _require_square(matrix)
    notes = []
    is_z = _off_diagonal_sign_ok(matrix)
    irreducible = _is_connected(matrix)
    diag = matrix.diagonal()
    report = MatrixClassReport(is_z_matrix=is_z, is_irreducible=irreducible)
    if not is_z:
        report.t1_verdict = DISPROVEN
        report.notes = ("positive off-diagonal entry",)
        return report
    if not irreducible:
        report.t1_verdict = DISPROVEN
        report.notes = ("matrix is reducible",)
        return report
    if matrix.n_rows == 0 or diag.min() <= 0.0:
        report.t1_verdict = DISPROVEN
        report.notes = ("nonpositive diagonal entry",)
        return report
    alpha = float(diag.max())
    report.alpha = alpha

    # a row sum counts as positive only above the rounding noise of the
    # sum that formed it, or a singular Laplacian would pass as dominant
    row_sums = spmv(matrix, np.ones(matrix.n_cols))
    noise = _DOMINANCE_ULPS * np.finfo(np.float64).eps * matrix.abs_row_sums()
    if np.all(row_sums >= 0.0) and np.any(row_sums > noise):
        report.t1_verdict = PROVEN
        report.notes = ("irreducibly diagonally dominant",)
        # short power run just to report an estimate; the lower Collatz
        # bound sits below rho(B), which dominance already puts below alpha
        lower, _, _ = _shifted_power_bounds(matrix, alpha, max_iters=50)
        report.spectral_radius_estimate = max(lower, 0.0)
        return report

    lower, upper, w = _shifted_power_bounds(
        matrix, alpha, max_iters=500 + 2 * matrix.n_rows
    )
    report.spectral_radius_estimate = upper
    tnorm = matrix.norm_inf()
    null_resid = float(np.abs(spmv(matrix, w)).max())
    if null_resid <= 1e-12 * tnorm * float(np.abs(w).max()):
        report.t1_verdict = DISPROVEN
        notes.append("singular: positive vector found in the null space")
    elif upper <= alpha * (1.0 - _SEPARATION):
        report.t1_verdict = PROVEN
    elif lower >= alpha * (1.0 + _SEPARATION):
        report.t1_verdict = DISPROVEN
        notes.append("spectral radius exceeds the diagonal bound")
    else:
        report.t1_verdict = INCONCLUSIVE
        notes.append("power iteration could not separate rho from alpha")
    report.notes = tuple(notes)
    return report


def _positive_null_vector(matrix):
    """w with w_0 = 1 and T_{-0,-0} w_{-0} = -T_{-0,0}, scaled to max 1.
    Dense up to _DENSE_SOLVE_LIMIT (QMR missed 1 of 900 seeded t2 tests), then
    Jacobi QMR from ones (the answer if T 1 = 0) to 0.1 _NULL_RESIDUAL ||T||
    / sqrt(n) on rows 1..n-1, as v^T T w = 0 bounds row 0 by sqrt(n) max v/v_0."""
    n = matrix.n_rows
    sub = principal_submatrix(matrix, np.arange(n) > 0)
    rhs = -spmv(matrix, np.eye(1, n)[0])[1:]
    if n <= _DENSE_SOLVE_LIMIT:
        tail = np.linalg.solve(sub.to_dense(), rhs)
    else:
        abs_tol = 0.1 * _NULL_RESIDUAL * matrix.norm_inf() / np.sqrt(n)
        opts = KrylovOptions(rel_tol=0.0, abs_tol=abs_tol, preconditioner=JACOBI)
        tail, _ = qmr_solve(sub, rhs, x0=np.ones(n - 1), opts=opts)
    w = np.concatenate([[1.0], tail])
    return w / w.max()


def check_t2(matrix):
    """Decide whether T is singular irreducible with positive 1-d null spaces.

    By the Berman & Plemmons theorem of the module docstring, with w and v
    from one node-deletion solve each (v = w for symmetric T)."""
    _require_square(matrix)
    n = matrix.n_rows
    is_z = _off_diagonal_sign_ok(matrix)
    irreducible = _is_connected(matrix)
    report = MatrixClassReport(is_z_matrix=is_z, is_irreducible=irreducible)
    if not is_z or not irreducible or n == 0:
        report.t2_verdict = DISPROVEN
        report.notes = ("needs an irreducible Z-pattern",)
        return report
    tnorm = matrix.norm_inf()
    if tnorm == 0.0:
        report.t2_verdict = DISPROVEN
        report.notes = ("zero matrix",)
        return report
    transpose = matrix.transpose()
    try:
        w = _positive_null_vector(matrix)
        v = w if matrix.is_symmetric() else _positive_null_vector(transpose)
    except (NotConverged, Breakdown, np.linalg.LinAlgError):
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
