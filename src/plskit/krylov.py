"""Krylov inner solvers for the sparse systems of each outer step.

`cg_solve` is conjugate gradients for symmetric positive (semi)definite
systems; `bicgstab_solve` is Bi-CGSTAB for nonsymmetric ones. Each
supplies only its recurrence, run from a true residual; both share one
restart loop, `_restarted`, and KrylovOptions and KrylovStats.

The loop copies x0 and tests it first: with r = b - op x0 and the
tolerance tol = rel_tol ||b|| + abs_tol, a start with ||r|| <= tol is the
result as it is, bit for bit, with 0 iterations. Otherwise it builds
Jacobi's D^-1 (always applied; it is the only preconditioner) and runs
the recurrence from r, within a budget of max_iters iterations, 10 n by
default. Every run ends by forming the true residual, and convergence is
confirmed there, never on the recurrence estimate alone; the next run
starts from it. The solve ends with NotConverged when the budget is spent
or when _STALLS runs in a row find no better true residual, and with
Breakdown when a CG run breaks down short of the tolerance; both carry
the best iterate and its stats. A residual that is not <= tol, NaN
included, is never converged. Each solve needs products with the
operator alone, and every product runs through numkit.reused_product, on
buffers that the solve allocates once; between runs the first pair's
vector carries x for the true residual.
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
        if not (0.0 <= self.rel_tol < math.inf and 0.0 <= self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and nonnegative")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
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


def _inverse_diagonal(op):
    """Jacobi's D^-1, a zero diagonal entry read as 1."""
    d = np.asarray(op.diagonal(), dtype=np.float64)
    return 1.0 / np.where(np.abs(d) > 0.0, d, 1.0)


def _restarted(op, b, x0, opts, runs, fatal=None):
    """The restart loop of both solvers (see the module docstring);
    returns (x, KrylovStats).

    runs(op, x, r, tol, inv_d, v, apply), called once after the entry
    test, allocates a solver's scratch and returns run(left, res): one run
    of its recurrence from the true residual r, res = ||r||, that updates
    x and r in place within left iterations and returns (iterations,
    broke). (v, apply) is the first reused_product pair. fatal is the
    Breakdown message of a solver whose broken run ends the solve when the
    true residual misses tol, or None; stats.breakdown then stays False.
    """
    opts = opts or KrylovOptions()
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    v, apply = reused_product(op, n)
    np.copyto(v, x)  # v is free until a run starts, so it carries x
    tol = opts.rel_tol * _norm(b) + opts.abs_tol
    r = b - apply()
    res = _norm(r)
    if res <= tol:
        return x, KrylovStats(0, res, True, False)
    budget = opts.max_iters if opts.max_iters is not None else 10 * max(n, 1)
    x_best, res_best = x.copy(), res
    run = runs(op, x, r, tol, _inverse_diagonal(op), v, apply)
    used = 0
    stalls = 0  # consecutive runs that did not lower res_best
    broke = False
    while not res <= tol:  # a NaN residual is not converged
        if used >= budget or stalls >= _STALLS:
            raise NotConverged(
                f"no convergence within {budget} iterations" if used >= budget
                else f"no convergence within {used} iterations (stalled)",
                x_best,
                KrylovStats(used, res_best, False, broke),
            )
        iterations, run_broke = run(budget - used, res)
        used += iterations
        broke = broke or run_broke
        np.copyto(v, x)
        np.subtract(b, apply(), out=r)  # re-sync on the true residual
        res = _norm(r)
        if res < res_best:
            res_best, stalls = res, 0
            if not res <= tol:  # a converged x is returned as it is
                x_best = x.copy()
        else:
            stalls += 1
        if run_broke and fatal and not res <= tol:
            raise Breakdown(fatal, x_best, KrylovStats(used, res_best, False, True))
    return x, KrylovStats(used, res, True, broke and not fatal)


def bicgstab_solve(op, b, x0=None, opts=None):
    """Solve op x = b by Bi-CGSTAB (van der Vorst, 1992); returns
    (x, KrylovStats).

    For nonsymmetric operators. Jacobi is applied on the right, p^ = D^-1
    p and s^ = D^-1 s, so the recurrence residual stays the residual of
    op x = b and the tolerance keeps its meaning. A run from a true
    residual r0 keeps r^ = r0 fixed. It ends at the tolerance, at the
    budget, at an exact zero pivot (r^T r, r^T v or omega), or when its
    recurrence residual grows past _GROWTH ||r0||. It never raises
    Breakdown: stats.breakdown says that a run ended at a zero pivot.
    p^ lives in the first reused_product pair's vector and s^ in a second
    pair's; v survives the product with s^.
    """
    return _restarted(op, b, x0, opts, _bicgstab_runs)


def _bicgstab_runs(op, x, r, tol, inv_d, p_hat, apply_p):
    s_hat, apply_s = reused_product(op, x.size)

    def run(left, res):
        nonlocal x, r  # updated in place
        r_hat = r.copy()
        rho = float(r_hat @ r)
        p = r.copy()
        limit = _GROWTH * res
        used = 0
        while used < left:
            np.multiply(p, inv_d, out=p_hat)
            v = apply_p()
            sigma = float(r_hat @ v)
            if sigma == 0.0:
                return used, True
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
                return used, True
            p -= omega * v
            p *= (rho_next / rho) * (alpha / omega)
            p += r
            rho = rho_next
        return used, False

    return run


def cg_solve(op, b, x0=None, opts=None):
    """Solve op x = b by conjugate gradients; returns (x, KrylovStats).

    For symmetric positive (semi)definite operators, preconditioned by
    Jacobi, z = D^-1 r. The recurrence residual only says when to look.
    A nonpositive curvature p^T A p or r^T z ends the run; when the true
    residual then misses the tolerance, the solve raises Breakdown, and a
    converged solve reports breakdown=False.

    The direction p lives in the first reused_product pair's vector (for
    a numkit.EllOperator, the only holder of the ELL layout, its padded
    direction vector, so no product copies or pads it); z and the step
    alpha p, then alpha q, are allocated once per solve. A CSR matrix,
    such as active_operator's fallback slice, takes its plain matvec.
    Every operation keeps the bits of the textbook form, such as
    x += alpha p.
    """
    return _restarted(op, b, x0, opts, _cg_runs,
                      "nonpositive curvature; the operator is not positive definite")


def _cg_runs(op, x, r, tol, inv_d, p, apply):
    z = np.empty(x.size)
    step = np.empty(x.size)  # alpha p, then alpha q

    def run(left, res):
        nonlocal x, r, p  # updated in place
        np.multiply(r, inv_d, out=z)
        np.copyto(p, z)
        rz = float(r @ z)
        used = 0
        while used < left:
            q = apply()
            curvature = float(p @ q)
            if not (curvature > 0.0 and rz > 0.0):
                return used, True
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
        return used, False

    return run
