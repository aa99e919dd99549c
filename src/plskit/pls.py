"""Solvers for piecewise linear systems of the two benchmark forms.

Elliptic: min{0,x} + T max{0,x} = b, iterated as (I - P + T P) x = b.
Parabolic: x + T max{0,x} = b, iterated as (I + T P) x = b.

The active mask P starts empty and is rebuilt from the signs of each
iterate: component i is active iff x_i >= 0, so an exact zero is active.
For an M-matrix T the paper's theorem makes it grow monotonically with
exact inner solves, so it grows at most n times and stabilizes within
n + 1 linear solves. Nothing enforces that: each
report counts the components that left the mask at every step, so a
step that breaks the theorem shows. Termination: the mask repeats, or it
changes only at components whose value is exactly zero (both cases leave
the iterate satisfying the nonsmooth system).

Each step is solved on the active set A only. With I the inactive set,
(I - P + T P) x = b splits into T_AA x_A = b_A and (I + T P) x = b into
(I + T_AA) x_A = b_A; both then give x_I = b_I - T_IA x_A directly. The
operator T_AA (+ I) comes from numkit.active_operator, which gathers the
active rows of T's CSR arrays straight into a padded (ELL) layout, with
no CSR slice per step; the operator is the only holder of that layout,
and T stays CSR. matprops' QMR solves get their slices the same way. The
reduced system is solved by CG when T is symmetric and by QMR otherwise,
both Jacobi-preconditioned, as every inner solve is.

A trail (solve_parabolic_pls) carries each step's mask, inner solution
x_A and its product M x_A with the step's operator M = T_AA (+ I) into
the next time step, as a (mask, x_A, M x_A) triple. Step j on the same
mask starts from x_A, and when b_A - M x_A already meets the inner
tolerance it takes x_A as its solution with the 0-iteration stats both
solvers return for such a start, without gathering M: the same bits,
for a fraction of the work. A wrong final iterate cannot pass the
nonsmooth residual gate.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .numkit import (
    ELLIPTIC,
    PARABOLIC,
    DimensionError,
    as_vector,
    active_operator,
    spmv,
)
from .krylov import (
    Breakdown,
    KrylovOptions,
    KrylovStats,
    NotConverged,
    cg_solve,
    qmr_solve,
    start_stats,
)
from .matprops import FAMILY_ALONG_W, NO_SOLUTION, classify_solvability

CONVERGED = "Converged"
NO_SOLUTION_CERTIFIED = "NoSolutionCertified"
MAX_OUTER_EXCEEDED = "MaxOuterExceeded"

MIN_PLUS_TMAX = "MinPlusTMax"
MAX_PLUS_TMIN = "MaxPlusTMin"


@dataclass
class PlsProblem:
    T: object
    b: np.ndarray
    kind: str = ELLIPTIC
    t2_data: tuple | None = None

    def __post_init__(self):
        if self.T.n_rows != self.T.n_cols:
            raise DimensionError(f"matrix is {self.T.shape}, expected square")
        self.b = as_vector(self.b)
        if self.b.size != self.T.n_rows:
            raise DimensionError("right-hand side length must match the matrix")
        if self.kind not in (ELLIPTIC, PARABOLIC):
            raise ValueError(f"unknown kind {self.kind!r}")


@dataclass
class IterationReport:
    outer_iterations: int
    active_counts: list
    inner_stats: list
    residual_history: list
    solvability: object | None = None  # matprops.Solvability when classified
    family_direction: np.ndarray | None = None
    # per step, the components of the previous mask missing from the new
    # one; nonzero only if the iteration is not monotone
    left_counts: list = field(default_factory=list)


@dataclass
class PlsSolution:
    x: np.ndarray
    y: np.ndarray
    status: str
    report: IterationReport


@dataclass
class SolverOptions:
    res_tol: float = 1e-8  # relative to ||b||_inf
    max_outer: int | None = None  # defaults to n + 1
    krylov: KrylovOptions = field(default_factory=KrylovOptions)

    def __post_init__(self):
        if self.max_outer is not None and self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


def _lift(T, b, mask, x_active):
    """Full iterate from the active part: x_I = b_I - (T x~)_I, where x~
    is x_active scattered into zeros."""
    x = np.zeros(T.n_rows)
    x[mask] = x_active
    return np.where(mask, x, b - spmv(T, x))


def _step(T, b, kind, mask, x, inner, kopts, trail=None, j=0):
    """One outer step (I - P + T P) x = b or (I + T P) x = b, solved on the
    active set A with the step's operator M = T_AA (+ I), from x's active
    part. An empty mask gives x = b exactly, with no operator and no
    solve, and the stats both solvers give a 0 x 0 system.

    Given a trail (see _picard), triple j = (mask, x_A, M x_A) on this
    step's mask gives the start x_A instead, and the step leaves its own
    triple in slot j, with M x_A taken by the kernel of the solvers' first
    product. When b_A - M x_A already meets the inner tolerance
    (krylov.start_stats), x_A is the solve's result: the step returns it
    with the stats either solver gives such a start, builds no operator
    and calls no solver. A product of None is never used.
    """
    carried = trail[j] if trail is not None and j < len(trail) else None
    if carried is not None and not np.array_equal(carried[0], mask):
        carried = None
    product = None
    if not mask.any():
        x, stats = _lift(T, b, mask, np.zeros(0)), KrylovStats(0, 0.0, True, False)
    elif carried is not None and carried[2] is not None and (
            stats := start_stats(b[mask], carried[2], kopts)[2]).converged:
        x, product = _lift(T, b, mask, carried[1]), carried[2]
    else:
        op = active_operator(T, mask, 1.0 if kind == PARABOLIC else 0.0)
        try:
            x_active, stats = inner(op, b[mask],
                                    x0=x[mask] if carried is None else carried[1],
                                    opts=kopts)
        except (NotConverged, Breakdown) as exc:
            exc.x = _lift(T, b, mask, exc.x)
            raise
        if trail is not None:
            product = op.matvec(x_active)
        del op  # the operator and the solve's scratch are freed before the lift
        x = _lift(T, b, mask, x_active)
    # x's active part is the inner solution, bit for bit; a triple on the
    # same mask is overwritten in place
    if carried is not None:
        np.compress(mask, x, out=carried[1])
        trail[j] = (carried[0], carried[1], product)
    elif trail is not None:
        trail[j:j + 1] = [(mask, x[mask], product)]  # replace or append
    return x, stats


def _picard(T, b, kind, opts, complement=False, trail=None):
    """Masked Picard loop; returns the PlsSolution.

    The operator mask starts empty and each step is rebuilt from the signs
    of the new iterate, x >= 0 (complemented for the MaxPlusTMin form), and the
    report counts the components each step drops. Stops when the mask
    repeats or flips only at exact zeros. Each linear solve is
    warm-started from the previous iterate, or, given a trail, from the
    trail's x_A for this step when its mask equals this step's: trail is
    a list of (mask, x_A, M x_A) triples, triple j from step j of an
    earlier solve with the same T and M its step operator (the product
    may be None), and each step overwrites its triple, so on return the
    trail holds this solve's triples only. A step whose carried start
    already meets the inner tolerance takes it without a solve (see
    _step). The start changes only the rounding and the inner iteration
    count; a trail from another T could mislead a step, but a wrong
    final iterate cannot pass the nonsmooth residual gate. The inner
    tolerance is measured against the full ||b|| and the default budget
    stays 10 n, so the reduced solve meets the same residual bound as a
    solve over all n unknowns. A stable mask whose nonsmooth residual
    misses the gate raises NotConverged.
    """
    n = T.n_rows
    inner = cg_solve if T.is_symmetric() else qmr_solve
    given = opts.krylov
    kopts = replace(
        given,
        rel_tol=0.0,
        abs_tol=given.rel_tol * float(np.linalg.norm(b)) + given.abs_tol,
        max_iters=given.max_iters if given.max_iters is not None else 10 * max(n, 1),
    )
    gate = _residual_gate(b, opts)
    form = MAX_PLUS_TMIN if complement else MIN_PLUS_TMAX
    x = np.zeros(n)
    opmask = np.zeros(n, dtype=bool)
    active_counts = [0]
    left_counts = []
    inner_stats = []
    residual_history = []
    max_outer = opts.max_outer if opts.max_outer is not None else n + 1
    stable = False
    outer = 0
    for _ in range(max_outer):
        x, stats = _step(T, b, kind, opmask, x, inner, kopts, trail, outer)
        outer += 1
        inner_stats.append(stats)
        signs = x >= 0.0  # the tie is active
        newmask = ~signs if complement else signs
        active_counts.append(int(newmask.sum()))
        left_counts.append(int(np.count_nonzero(opmask & ~newmask)))
        residual_history.append(residual_nonsmooth(T, b, x, kind, form=form))
        if np.array_equal(newmask, opmask):
            stable = True
            break
        # the step operators differ only in columns where the mask flipped;
        # flips confined to components within a few ulps of zero leave the
        # product unchanged, so the iterate already solves the nonsmooth
        # system; the residual gate makes the early exit sound
        flipped = np.abs(x[newmask != opmask]).max()
        if (
            flipped <= 4.0 * np.finfo(np.float64).eps * np.abs(x).max()
            and residual_history[-1] <= gate
        ):
            stable = True
            break
        opmask = newmask
    if trail is not None:
        del trail[outer:]
    report = IterationReport(outer, active_counts, inner_stats, residual_history,
                             left_counts=left_counts)
    if not stable:
        return PlsSolution(x, np.maximum(x, 0.0), MAX_OUTER_EXCEEDED, report)
    if residual_history[-1] > gate:
        raise NotConverged(
            "mask stabilized but the nonsmooth residual misses the gate; "
            "tighten the inner tolerance",
            x,
            inner_stats[-1],
        )
    return PlsSolution(x, np.maximum(x, 0.0), CONVERGED, report)


def _residual_gate(b, opts):
    scale = float(np.abs(b).max()) if b.size else 0.0
    return opts.res_tol * (scale if scale > 0.0 else 1.0)


def solve_elliptic_pls(problem, opts=None):
    """Solve min{0,x} + T max{0,x} = b.

    With t2_data = (v, w) supplied, v^T b > 0 certifies an empty solution
    set without iterating, and v^T b = 0 flags the one-parameter family
    x + alpha w (alpha >= 0) in the report.
    """
    if problem.kind != ELLIPTIC:
        raise ValueError("problem kind must be elliptic")
    opts = opts or SolverOptions()
    solvability = None
    family = None
    if problem.t2_data is not None:
        v, w = problem.t2_data
        solvability = classify_solvability(v, problem.b)
        if solvability.verdict == NO_SOLUTION:
            zero = np.zeros(problem.T.n_rows)
            report = IterationReport(0, [0], [], [], solvability=solvability)
            return PlsSolution(zero, zero.copy(), NO_SOLUTION_CERTIFIED, report)
        if solvability.verdict == FAMILY_ALONG_W:
            family = as_vector(w)
    sol = _picard(problem.T, problem.b, ELLIPTIC, opts)
    sol.report.solvability = solvability
    sol.report.family_direction = family
    return sol


def solve_parabolic_pls(problem, opts=None, trail=None):
    """Solve x + T max{0,x} = b; this form always has a unique solution.

    trail, a list, carries each outer step's (mask, x_A, M x_A) triple,
    its inner solution and that solution's product with the step's
    operator M, from one call to the next on the same T (see _picard): a
    time-stepping caller passes the same list to every step, and a step
    whose mask sequence repeats the last one's starts each inner solve
    from there, or skips the solve when that start already meets the
    inner tolerance. A wrong final iterate cannot pass the nonsmooth
    residual gate.
    """
    if problem.kind != PARABOLIC:
        raise ValueError("problem kind must be parabolic")
    return _picard(problem.T, problem.b, PARABOLIC, opts or SolverOptions(),
                   trail=trail)


def solve_shifted(T, b, xi, form, opts=None):
    """Solve the shifted forms with thresholds xi instead of zero.

    MinPlusTMax: min{xi,x} + T max{xi,x} = b. MaxPlusTMin swaps min and
    max. Both reduce to the plain elliptic iteration in z = x - xi with
    right-hand side b - (I+T) xi; the second form runs on the complemented
    mask. The solution, and the iterate carried by NotConverged or
    Breakdown, are in the unshifted variable x = z + xi.
    """
    if form not in (MIN_PLUS_TMAX, MAX_PLUS_TMIN):
        raise ValueError(f"unknown shift form {form!r}")
    opts = opts or SolverOptions()
    b = as_vector(b)
    xi = as_vector(xi)
    if b.size != T.n_rows or xi.size != T.n_rows:
        raise DimensionError("operand lengths must match the matrix")
    b2 = b - xi - spmv(T, xi)
    try:
        sol = _picard(T, b2, ELLIPTIC, opts, complement=(form == MAX_PLUS_TMIN))
    except (NotConverged, Breakdown) as exc:
        exc.x = exc.x + xi
        raise
    sol.x = sol.x + xi
    return sol


def residual_nonsmooth(T, b, x, kind=ELLIPTIC, xi=None, form=MIN_PLUS_TMAX):
    """Max-norm residual of the nonsmooth equation at x."""
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if b.shape != x.shape or x.size != T.n_rows:
        raise DimensionError("operand lengths must match the matrix")
    if form not in (MIN_PLUS_TMAX, MAX_PLUS_TMIN):
        raise ValueError(f"unknown shift form {form!r}")
    if kind == PARABOLIC:
        r = x + spmv(T, np.maximum(x, 0.0)) - b
    else:
        base = 0.0 if xi is None else np.asarray(xi, dtype=np.float64)
        lo, hi = np.minimum(x, base), np.maximum(x, base)
        if form == MIN_PLUS_TMAX:
            r = lo + spmv(T, hi) - b
        else:
            r = hi + spmv(T, lo) - b
    return float(np.abs(r).max()) if r.size else 0.0


@dataclass
class CheckReport:
    passed: bool
    y_min: float
    slack_min: float
    complementarity: float


def lcp_check(T, b, y, kind=ELLIPTIC, tol=1e-8):
    """Verify the complementarity conditions satisfied by y = max{0,x}.

    Elliptic: y >= 0, T y >= b, y^T (T y - b) = 0; the parabolic slack is
    y + T y - b. Inequalities are tested against tol scaled by
    max(1, ||b||_inf); the complementarity product against tol ||y|| ||b||.
    """
    y = np.asarray(y, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    slack = spmv(T, y) - b
    if kind == PARABOLIC:
        slack = y + slack
    scale = max(1.0, float(np.abs(b).max()) if b.size else 0.0)
    y_min = float(y.min()) if y.size else 0.0
    slack_min = float(slack.min()) if slack.size else 0.0
    comp = abs(float(y @ slack))
    passed = (
        y_min >= -tol * scale
        and slack_min >= -tol * scale
        and comp <= tol * float(np.linalg.norm(y)) * float(np.linalg.norm(b))
    )
    return CheckReport(passed, y_min, slack_min, comp)
