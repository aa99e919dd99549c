"""Krylov inner solvers for the sparse systems of each outer step.

`cg_solve` is conjugate gradients for symmetric positive (semi)definite
systems; `bicgstab_solve` is Bi-CGSTAB for nonsymmetric ones. Both need
products with the operator alone (matvec) and its diagonal(), and both
always apply Jacobi (diagonal) preconditioning, the only kind there is.
Both share KrylovOptions and KrylovStats, and both confirm convergence
on the recomputed true residual, never on the recurrence estimate alone;
both restart from the true residual and give up after _STALLS restarts
in a row that find no better iterate. Both test their start with
`_start_stats` and return a start that already meets the tolerance as it
is, bit for bit, with 0 iterations. Every product runs through
numkit.reused_product, on buffers that one solve allocates once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numkit import reused_product

_STALLS = 2  # restarts in a row without a new best residual
_GROWTH = 1e4  # a Bi-CGSTAB run ends once its residual grows this much


@dataclass
class KrylovOptions:
    rel_tol: float = 1e-12
    abs_tol: float = 0.0
    max_iters: int | None = None  # defaults to 10 n at solve time

    def __post_init__(self):
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class KrylovStats:
    iterations: int
    final_residual_norm: float
    converged: bool
    breakdown: bool


class NotConverged(RuntimeError):
    """Iteration budget exhausted; carries the best iterate found."""

    def __init__(self, message, x, stats):
        super().__init__(message)
        self.x = x
        self.stats = stats


class Breakdown(RuntimeError):
    """Nonpositive CG curvature: the operator is not positive definite;
    carries the best iterate found."""

    def __init__(self, message, x, stats):
        super().__init__(message)
        self.x = x
        self.stats = stats


def _norm(v):
    # what np.linalg.norm computes for a 1-d float vector, without its
    # argument handling
    return math.sqrt(v @ v)


def _start_stats(b, product, opts):
    """The entry test of both solvers at a start x0, given product = op x0.

    Returns (r, tol, stats): the residual r = b - op x0, the tolerance
    rel_tol ||b|| + abs_tol, and KrylovStats(0, ||r||, ||r|| <= tol,
    False). A converged start is the solve's result, returned as it is
    with these stats.
    """
    tol = opts.rel_tol * _norm(b) + opts.abs_tol
    r = b - product
    res = _norm(r)
    return r, tol, KrylovStats(0, res, res <= tol, False)


def _inverse_diagonal(op):
    """Jacobi's D^-1, a zero diagonal entry read as 1."""
    d = np.asarray(op.diagonal(), dtype=np.float64)
    return 1.0 / np.where(np.abs(d) > 0.0, d, 1.0)


def _not_converged(used, budget, x_best, res_best, broke):
    """The NotConverged of a spent budget or of _STALLS stalled restarts."""
    return NotConverged(
        f"no convergence within {budget} iterations" if used >= budget
        else f"no convergence within {used} iterations (stalled)",
        x_best,
        KrylovStats(used, res_best, False, broke),
    )


def bicgstab_solve(op, b, x0=None, opts=None):
    """Solve op x = b by Bi-CGSTAB (van der Vorst, 1992); returns
    (x, KrylovStats).

    For nonsymmetric operators, with products by op alone. Jacobi is
    applied on the right, p^ = D^-1 p and s^ = D^-1 s, so the recurrence
    residual stays the residual of op x = b and the tolerance keeps its
    meaning. A run from a true residual r0 keeps r^ = r0 fixed. It ends at
    the tolerance, at the budget, at an exact zero pivot (r^T r, r^T v or
    omega), or when its recurrence residual grows past _GROWTH ||r0||.
    Every run ends by forming the true residual, and the next run starts
    there. Two runs in a row that do not lower the best true residual, or
    a spent iteration budget, raise NotConverged with the best iterate and
    its stats. It never raises Breakdown: stats.breakdown says that a run
    ended at a zero pivot.

    Its products run on two numkit.reused_product pairs, as cg_solve's
    do: p^ and s^ live in the pairs' vectors, and v survives the product
    with s^. The start and the true residual borrow p^ for x.
    """
    opts = opts or KrylovOptions()
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    p_hat, apply_p = reused_product(op, n)
    s_hat, apply_s = reused_product(op, n)
    np.copyto(p_hat, x)  # p^ is free until a run starts, so it carries x
    r, tol, start = _start_stats(b, apply_p(), opts)
    if start.converged:
        return x, start
    res = start.final_residual_norm
    budget = opts.max_iters if opts.max_iters is not None else 10 * max(n, 1)
    inv_d = _inverse_diagonal(op)

    x_best, res_best = x.copy(), res
    used = 0
    stalls = 0  # consecutive runs that did not lower res_best
    broke = False
    while not res <= tol:  # a NaN residual is not converged
        if used >= budget or stalls >= _STALLS:
            raise _not_converged(used, budget, x_best, res_best, broke)
        r_hat = r.copy()
        rho = float(r_hat @ r)
        p = r.copy()
        limit = _GROWTH * res
        while used < budget:
            np.multiply(p, inv_d, out=p_hat)
            v = apply_p()
            sigma = float(r_hat @ v)
            if sigma == 0.0:
                broke = True
                break
            alpha = rho / sigma
            x += alpha * p_hat
            r -= alpha * v
            used += 1
            if _norm(r) <= tol:
                break
            np.multiply(r, inv_d, out=s_hat)
            t = apply_s()
            tt = float(t @ t)
            omega = float(t @ r) / tt if tt > 0.0 else 0.0
            x += omega * s_hat
            r -= omega * t
            estimate = _norm(r)
            if estimate <= tol or not estimate <= limit:
                break
            rho_next = float(r_hat @ r)
            if omega == 0.0 or rho_next == 0.0:
                broke = True
                break
            p -= omega * v
            p *= (rho_next / rho) * (alpha / omega)
            p += r
            rho = rho_next
        np.copyto(p_hat, x)
        r = b - apply_p()  # re-sync on the true residual
        res = _norm(r)
        if res < res_best:
            x_best, res_best = x.copy(), res
            stalls = 0
        else:
            stalls += 1
    return x, KrylovStats(used, res, True, broke)


def cg_solve(op, b, x0=None, opts=None):
    """Solve op x = b by conjugate gradients; returns (x, KrylovStats).

    For symmetric positive (semi)definite operators, preconditioned by
    Jacobi, z = D^-1 r. The recurrence residual only says when to look:
    convergence is confirmed on the true residual, and when the two
    disagree the iteration restarts from the true residual. A nonpositive
    curvature p^T A p or r^T z raises Breakdown; a spent iteration
    budget, or two restarts in a row that do not lower the best true
    residual (the tolerance is below the attainable accuracy), raise
    NotConverged. Both carry the best iterate and its stats.

    One solve allocates its vectors once: x, r, z and the direction p are
    updated in place, and every product runs on numkit.reused_product's
    buffers (for a numkit.EllOperator, the only holder of the ELL layout,
    p lives in its padded direction vector, so no product copies or pads
    it; the true residual borrows p for x). A CSR matrix, such as
    active_operator's fallback slice, takes its plain matvec.
    Every operation keeps the bits of the textbook form, such as
    x += alpha p.
    """
    opts = opts or KrylovOptions()
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    p, apply = reused_product(op, n)
    np.copyto(p, x)  # p is free until a run starts, so it carries x
    r, tol, start = _start_stats(b, apply(), opts)
    if start.converged:
        return x, start
    res = start.final_residual_norm
    budget = opts.max_iters if opts.max_iters is not None else 10 * max(n, 1)
    inv_d = _inverse_diagonal(op)

    x_best, res_best = x.copy(), res
    z = np.empty(n)
    step = np.empty(n)  # alpha p, then alpha q
    used = 0
    stalls = 0  # consecutive runs that did not lower res_best
    while res > tol:
        if used >= budget or stalls >= _STALLS:
            raise _not_converged(used, budget, x_best, res_best, False)
        np.multiply(r, inv_d, out=z)
        np.copyto(p, z)
        rz = float(r @ z)
        broke = False
        while used < budget:
            q = apply()
            curvature = float(p @ q)
            if not (curvature > 0.0 and rz > 0.0):
                broke = True
                break
            alpha = rz / curvature
            x += np.multiply(p, alpha, out=step)
            r -= np.multiply(q, alpha, out=step)
            used += 1
            if _norm(r) <= tol:
                break
            np.multiply(r, inv_d, out=z)
            rz_next = float(r @ z)
            p *= rz_next / rz
            p += z
            rz = rz_next
        np.copyto(p, x)
        np.subtract(b, apply(), out=r)  # re-sync on the true residual
        res = _norm(r)
        if res < res_best:
            x_best, res_best = x.copy(), res
            stalls = 0
        else:
            stalls += 1
        if broke and res > tol:
            raise Breakdown(
                "nonpositive curvature; the operator is not positive definite",
                x_best,
                KrylovStats(used, res_best, False, True),
            )
    return x, KrylovStats(used, res, True, False)
