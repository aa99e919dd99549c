"""Krylov inner solvers for the sparse systems of each outer step.

`cg_solve` is conjugate gradients for symmetric positive (semi)definite
systems; `qmr_solve` is QMR by coupled two-term Lanczos
biorthogonalization without look-ahead, for nonsymmetric ones. Both
always apply Jacobi (diagonal) preconditioning, the only kind there is,
so the operator needs matvec (QMR also rmatvec) and diagonal(). Both
share KrylovOptions and KrylovStats, and both confirm convergence on the
recomputed true residual, never on the recurrence estimate alone. Both
test their start with `start_stats` and return a start that already
meets the tolerance as it is, with 0 iterations; a caller holding op x0
can make the same test without the operator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numkit import reused_product

_PIVOT_FLOOR = 1e-300  # below this a Lanczos pivot counts as a breakdown
_STALL_WINDOW = 60  # sweep iterations without a new best residual
_CHECK_EVERY = 10  # QMR sweep iterations between true-residual checks
_CG_STALLS = 2  # CG restarts in a row without a new best residual
_SHADOW_SEED = 0  # QMR's retry shadow vector after a stagnant breakdown


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
    """Unrecoverable breakdown (a collapsed Lanczos pivot or nonpositive
    CG curvature); carries the best iterate found."""

    def __init__(self, message, x, stats):
        super().__init__(message)
        self.x = x
        self.stats = stats


class _BreakdownSignal(Exception):
    pass


def _norm(v):
    # what np.linalg.norm computes for a 1-d float vector, without its
    # argument handling
    return math.sqrt(v @ v)


def start_stats(b, product, opts):
    """The entry test of both solvers at a start x0, given product = op x0.

    Returns (r, tol, stats): the residual r = b - op x0, the tolerance
    rel_tol ||b|| + abs_tol, and KrylovStats(0, ||r||, ||r|| <= tol,
    False). A converged start is the solve's result, returned with these
    stats, so a caller that holds op x0 gets it without the operator.
    """
    tol = opts.rel_tol * _norm(b) + opts.abs_tol
    r = b - product
    res = _norm(r)
    return r, tol, KrylovStats(0, res, res <= tol, False)


def _inverse_diagonal(op):
    """Jacobi's D^-1, a zero diagonal entry read as 1."""
    d = np.asarray(op.diagonal(), dtype=np.float64)
    return 1.0 / np.where(np.abs(d) > 0.0, d, 1.0)


def _qmr_sweep(op, b, x, r, res, inv_d, tol, budget, shadow=None):
    """One QMR run from x, whose true residual is r with norm res > tol,
    until tol, the budget (at least 1), or breakdown.

    Jacobi preconditioning is applied on the right (columns scaled by the
    operator diagonal), so the recurrence residual stays the residual of
    the original system and the tolerance keeps its meaning. The shadow
    Lanczos sequence starts from the residual, or from shadow if given.

    Returns (x_best, r_best, res_best, used, hit_tol), r_best the true
    residual at x_best. Raises _BreakdownSignal with the best triple
    attached when a Lanczos pivot collapses.
    """
    x_best, r_best, res_best = x.copy(), r, res
    v_t = r.copy()
    rho = _norm(v_t)
    w_t = r.copy() if shadow is None else shadow.copy()
    z = w_t * inv_d
    xi = _norm(z)
    gamma, eta, theta = 1.0, -1.0, 0.0
    eps = 1.0
    p = q = None
    d_vec = s_vec = None

    used = 0
    last_gain = 0
    while used < budget:
        if abs(rho) < _PIVOT_FLOOR or abs(xi) < _PIVOT_FLOOR:
            raise _BreakdownSignal(x_best, r_best, res_best, used)
        v = v_t / rho
        w = w_t / xi
        z = z / xi
        delta = float(z @ v)
        if abs(delta) < _PIVOT_FLOOR:
            raise _BreakdownSignal(x_best, r_best, res_best, used)
        y_t = v * inv_d
        z_t = z
        if p is None:
            p = y_t.copy()
            q = z_t.copy()
        else:
            p = y_t - (xi * delta / eps) * p
            q = z_t - (rho * delta / eps) * q
        p_t = op.matvec(p)
        eps = float(q @ p_t)
        if abs(eps) < _PIVOT_FLOOR:
            raise _BreakdownSignal(x_best, r_best, res_best, used)
        beta = eps / delta
        if abs(beta) < _PIVOT_FLOOR:
            raise _BreakdownSignal(x_best, r_best, res_best, used)
        v_t = p_t - beta * v
        rho_prev, rho = rho, _norm(v_t)
        w_t = op.rmatvec(q) - beta * w
        z = w_t * inv_d
        xi = _norm(z)
        theta_prev, gamma_prev = theta, gamma
        theta = rho / (gamma * abs(beta))
        gamma = 1.0 / math.sqrt(1.0 + theta * theta)
        if gamma < _PIVOT_FLOOR:
            raise _BreakdownSignal(x_best, r_best, res_best, used)
        eta = -eta * rho_prev * gamma * gamma / (beta * gamma_prev * gamma_prev)
        if d_vec is None:
            d_vec = eta * p
            s_vec = eta * p_t
        else:
            shrink = (theta_prev * gamma) ** 2
            d_vec = eta * p + shrink * d_vec
            s_vec = eta * p_t + shrink * s_vec
        x = x + d_vec
        r = r - s_vec
        used += 1

        estimate = _norm(r)
        if estimate <= tol or used % _CHECK_EVERY == 0 or used == budget:
            r = b - op.matvec(x)  # re-sync on the true residual
            res = _norm(r)
            if res < res_best:
                x_best, r_best, res_best = x.copy(), r, res
                last_gain = used
            if res <= tol:
                return x_best, r_best, res_best, used, True
            if used - last_gain >= _STALL_WINDOW:
                # stalled; caller restarts
                return x_best, r_best, res_best, used, False
    return x_best, r_best, res_best, used, False


def qmr_solve(op, b, x0=None, opts=None):
    """Solve op x = b by QMR; returns (x, KrylovStats).

    Jacobi-preconditioned on the right (see _qmr_sweep). Returns
    immediately when x0 already meets the tolerance; otherwise the entry
    test's residual starts the first sweep, and each later sweep starts
    from the best iterate and the true residual already formed there, so
    no sweep recomputes a residual it was handed. On a Lanczos
    breakdown the iteration restarts from the best iterate as long as each
    sweep improved the residual. The first breakdown that made no progress
    is retried once from the best iterate with a fixed pseudo-random
    shadow vector in place of the residual, which moves the Lanczos pivots
    off the collapsed ones; only a path that raised Breakdown changes. A
    stagnant breakdown after that raises Breakdown and a spent iteration
    budget raises NotConverged, both carrying the best iterate and its
    stats.
    """
    opts = opts or KrylovOptions()
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r, tol, start = start_stats(b, op.matvec(x), opts)
    if start.converged:
        return x, start
    res = start.final_residual_norm
    budget = opts.max_iters if opts.max_iters is not None else 10 * max(n, 1)
    inv_d = _inverse_diagonal(op)

    total = 0
    broke = False
    shadow = None
    while True:
        # each sweep starts from an iterate x and its true residual r
        entry_res = res
        try:
            x, r, res, used, ok = _qmr_sweep(op, b, x, r, res, inv_d, tol,
                                             budget - total, shadow)
            total += used
            if ok:
                return x, KrylovStats(total, res, True, broke)
        except _BreakdownSignal as sig:
            x, r, res, used = sig.args
            total += used
            broke = True
            if res >= 0.99 * entry_res and shadow is None and total < budget:
                shadow = np.random.default_rng(_SHADOW_SEED).standard_normal(n)
                continue
        # restart from the best iterate only while sweeps keep shrinking
        # the residual; a stagnant sweep would just replay itself
        if res < 0.99 * entry_res and total < budget:
            continue
        stats = KrylovStats(total, res, False, broke)
        if broke and total < budget:
            raise Breakdown("Lanczos breakdown without progress", x, stats)
        raise NotConverged(
            f"no convergence within {total} iterations (stalled)"
            if total < budget
            else f"no convergence within {budget} iterations",
            x,
            stats,
        )


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
    r, tol, start = start_stats(b, apply(), opts)
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
        if used >= budget or stalls >= _CG_STALLS:
            raise NotConverged(
                f"no convergence within {budget} iterations"
                if used >= budget
                else f"no convergence within {used} iterations (stalled)",
                x_best,
                KrylovStats(used, res_best, False, False),
            )
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
