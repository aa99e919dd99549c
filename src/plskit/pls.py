"""Solvers for piecewise linear systems of the two benchmark forms.

Elliptic: min{0,x} + T max{0,x} = b, iterated as (I - P + T P) x = b.
Parabolic: x + T max{0,x} = b, iterated as (I + T P) x = b.

Each form has its own solver, which takes its operands directly:
solve_elliptic_pls(T, b, opts, t2_data), solve_parabolic_pls(T, b,
opts, trail) and, for thresholds xi, solve_shifted(T, b, xi, form, opts).
All three, and the checks residual_nonsmooth and lcp_check, check them
in one place, numkit.operands, as the oracle and matprops' checks do: T
must be square and finite, and b, x, y, xi and t2_data's v and w finite
vectors of T's dimension. T's finiteness is found once per matrix, so
checking every time step of a run scans T once.

The active mask P starts empty and is rebuilt from the signs of each
iterate: component i is active iff x_i >= 0, so an exact zero is active.
For an M-matrix T the paper's theorem makes it grow monotonically with
exact inner solves, so it grows at most n times and stabilizes within
n + 1 linear solves. Nothing enforces monotone growth: each
report counts the components that left the mask at every step, so a
step that breaks the theorem shows. Termination: the mask repeats, or it
changes only at components whose value is exactly zero (both cases leave
the iterate satisfying the nonsmooth system). The theorem's n + 1 solves
are also the loop's cap, which is not a setting: a matrix outside the
theorem whose mask still moves after them gets MaxOuterExceeded. Nor is
the residual gate, res_tol = 1e-8 relative to ||b||_inf: it is a
constant of SolverOptions, whose one field is the inner solves'
KrylovOptions.

Each step is solved on the active set A only. With I the inactive set,
(I - P + T P) x = b splits into T_AA x_A = b_A and (I + T P) x = b into
(I + T_AA) x_A = b_A; both then give x_I = b_I - s_I with s = T x~, x~
the inner solution x_A scattered into zeros. The operator T_AA (+ I)
comes from numkit.active_operator, which gathers the active rows of T's
CSR arrays straight into a padded (ELL) layout, with no CSR slice per
step; the operator is the only holder of that layout, and T stays CSR.
T caches the O(n) row data that each gather reads (its diagonal),
never a layout.
matprops' Krylov solves get their slices the same way. The reduced
system is solved by CG when T is symmetric and by Bi-CGSTAB otherwise,
both Jacobi-preconditioned, as every inner solve is, and both with
products by the operator alone.

Each step records its nonsmooth residual, which takes a product of T
with max{0,x}. On the step whose new mask equals its operator mask, that
vector differs from x~ at most in the sign of a zero, so the lift's s
serves the residual with the same max-norm. Every product of T goes
through numkit.spmv, and every product of a step operator through
numkit.reused_product, inside the solvers.

A trail (solve_parabolic_pls) carries each step's entry (mask, x_A), its
mask and inner solution, into the next time step. Step j on the same mask
starts the solver from x_A; when b_A - M x_A already meets the inner
tolerance, the solver's entry test returns x_A bit for bit with 0
iterations. A start only seeds the solver: the entry test uses the step's
own operator, and a wrong final iterate cannot pass the nonsmooth
residual gate. A step makes one product of T for its lift unless its
mask is empty, and one for its residual unless its mask repeats.

Results are immutable: KrylovStats, IterationReport, PlsSolution,
lcp_check's CheckReport and the report's matprops.Solvability are
frozen, a report's per-step sequences are tuples, and a solution's x
and y and a report's family_direction (a copy of the caller's w) are
read-only. So a caller may hand one result to many readers, as
obstacle.run_parabolic does for its settled time steps, with no copy.
The options SolverOptions and KrylovOptions are frozen too, so no
value changes after its check.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .numkit import active_operator, operands, spmv
from .krylov import (
    Breakdown,
    KrylovOptions,
    KrylovStats,
    NotConverged,
    bicgstab_solve,
    cg_solve,
)
from .matprops import FAMILY_ALONG_W, NO_SOLUTION, classify_solvability

CONVERGED = "Converged"
NO_SOLUTION_CERTIFIED = "NoSolutionCertified"
MAX_OUTER_EXCEEDED = "MaxOuterExceeded"

MIN_PLUS_TMAX = "MinPlusTMax"
MAX_PLUS_TMIN = "MaxPlusTMin"

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"

_LCP_TOL = 1e-8  # lcp_check's tolerance; its docstring gives the scaling


@dataclass(frozen=True)
class IterationReport:
    outer_iterations: int
    active_counts: tuple
    inner_stats: tuple
    residual_history: tuple
    solvability: object | None = None  # matprops.Solvability when classified
    family_direction: np.ndarray | None = None
    # per step, the components of the previous mask missing from the new
    # one; nonzero only if the iteration is not monotone
    left_counts: tuple = ()


@dataclass(frozen=True)
class PlsSolution:
    x: np.ndarray
    y: np.ndarray
    status: str
    report: IterationReport

    def __post_init__(self):
        self.x.flags.writeable = False
        self.y.flags.writeable = False


@dataclass(frozen=True)
class SolverOptions:
    krylov: KrylovOptions = field(default_factory=KrylovOptions)
    res_tol = 1e-8  # the residual gate, relative to ||b||_inf; not a field


def _lift(T, b, mask, x_active):
    """(x, s): the full iterate from the active part, x_I = b_I - s_I,
    and s = T x~, where x~ is x_active scattered into zeros."""
    x_tilde = np.zeros(T.n_rows)
    x_tilde[mask] = x_active
    s = spmv(T, x_tilde)
    x = b - s
    x[mask] = x_active
    return x, s


def _step(T, b, kind, mask, x, inner, kopts, start=None):
    """One outer step (I - P + T P) x = b or (I + T P) x = b, solved on the
    active set A with the step's operator M = T_AA (+ I), from x's active
    part or from start, given; returns (x, s, stats), s = T x~ the lift's
    product (see _lift). An empty mask gives x = b and s = 0 with no
    operator, no solve and no product, and the stats both solvers give a
    0 x 0 system.
    """
    if not mask.any():
        return b.copy(), np.zeros(T.n_rows), KrylovStats(0, 0.0, True, False)
    op = active_operator(T, mask, 1.0 if kind == PARABOLIC else 0.0)
    try:
        x_active, stats = inner(op, b[mask], x0=x[mask] if start is None else start,
                                opts=kopts)
    except (NotConverged, Breakdown) as exc:
        exc.x = _lift(T, b, mask, exc.x)[0]
        raise
    del op  # the operator and the solve's scratch are freed before the lift
    return (*_lift(T, b, mask, x_active), stats)


def _picard(T, b, kind, opts, trail=None):
    """Masked Picard loop; returns the PlsSolution.

    The operator mask starts empty and each step is rebuilt from the signs
    of the new iterate, x >= 0, and the report counts the components each
    step drops. Stops when the mask repeats or flips only at exact zeros,
    or with MaxOuterExceeded after n + 1 steps.
    Each linear solve is warm-started from the previous iterate, or, given
    a trail, from the trail's x_A for this step when its mask equals this
    step's: trail is a list of (mask, x_A) entries, entry j from step j of
    an earlier solve, and each step overwrites its entry, so on return the
    trail holds this solve's entries only. A carried start that already
    meets the inner tolerance is returned by the solver's entry test with
    0 iterations. The start changes only the rounding and the inner
    iteration count. The inner tolerance is measured against the full
    ||b|| and the default budget stays 10 n, so the reduced solve meets
    the same residual bound as a solve over all n unknowns. A stable mask
    whose nonsmooth residual misses the gate raises NotConverged. The step
    whose mask repeats takes its residual's product from the lift's s
    (see the module docstring). A b with max|b_i| above sqrt(DBL_MAX / n),
    where ||b||^2, and with it the inner tolerance and the solvers' dot
    products, may overflow, is refused with ValueError before any product.
    """
    n = T.n_rows
    scale = float(np.abs(b).max()) if b.size else 0.0
    if scale > np.sqrt(np.finfo(np.float64).max / max(n, 1)):
        raise ValueError(
            f"right-hand side too large: max|b_i| = {scale:.3g}, so ||b||^2 may "
            "overflow; scale the system down")
    inner = cg_solve if T.is_symmetric() else bicgstab_solve
    given = opts.krylov
    kopts = replace(
        given,
        rel_tol=0.0,
        abs_tol=given.rel_tol * float(np.linalg.norm(b)) + given.abs_tol,
        max_iters=given.max_iters if given.max_iters is not None else 10 * max(n, 1),
    )
    gate = opts.res_tol * (scale if scale > 0.0 else 1.0)  # relative to ||b||_inf
    x = np.zeros(n)
    opmask = np.zeros(n, dtype=bool)
    active_counts = [0]
    left_counts = []
    inner_stats = []
    residual_history = []
    stable = False
    outer = 0
    for _ in range(n + 1):  # n mask growths and one confirming solve
        carried = trail[outer] if trail is not None and outer < len(trail) else None
        start = (carried[1] if carried is not None
                 and np.array_equal(carried[0], opmask) else None)
        x, lifted, stats = _step(T, b, kind, opmask, x, inner, kopts, start)
        if trail is not None:
            # x's active part is the inner solution, bit for bit
            trail[outer:outer + 1] = [(opmask, x[opmask])]  # replace or append
        outer += 1
        inner_stats.append(stats)
        newmask = x >= 0.0  # the tie is active
        flips = newmask != opmask
        stable = not flips.any()
        active_counts.append(int(newmask.sum()))
        left_counts.append(int(np.count_nonzero(flips & opmask)))
        residual_history.append(
            _residual(T, b, x, kind, product=lifted if stable else None))
        if stable:
            break
        # the step operators differ only in columns where the mask flipped;
        # flips confined to components within a few ulps of zero leave the
        # product unchanged, so the iterate already solves the nonsmooth
        # system; the residual gate makes the early exit sound
        if (
            residual_history[-1] <= gate
            and np.abs(x[flips]).max()
            <= 4.0 * np.finfo(np.float64).eps * np.abs(x).max()
        ):
            stable = True
            break
        opmask = newmask
    if trail is not None:
        del trail[outer:]
    report = IterationReport(outer, tuple(active_counts), tuple(inner_stats),
                             tuple(residual_history), left_counts=tuple(left_counts))
    if not stable:
        return PlsSolution(x, np.maximum(x, 0.0), MAX_OUTER_EXCEEDED, report)
    if not residual_history[-1] <= gate:  # a NaN residual misses it
        raise NotConverged(
            "mask stabilized but the nonsmooth residual misses the gate; "
            "tighten the inner tolerance",
            x,
            inner_stats[-1],
        )
    return PlsSolution(x, np.maximum(x, 0.0), CONVERGED, report)


def solve_elliptic_pls(T, b, opts=None, t2_data=None):
    """Solve min{0,x} + T max{0,x} = b.

    With t2_data = (v, w) supplied, vectors of T's dimension, v^T b > 0
    certifies an empty solution set without iterating, and v^T b = 0
    flags the one-parameter family x + alpha w (alpha >= 0) in the report.
    """
    b, *t2 = operands(T, b, *(t2_data or ()))
    opts = opts or SolverOptions()
    solvability = None
    family = None
    if t2_data is not None:
        v, w = t2
        solvability = classify_solvability(v, b)
        if solvability.verdict == NO_SOLUTION:
            zero = np.zeros(T.n_rows)
            report = IterationReport(0, (0,), (), (), solvability=solvability)
            return PlsSolution(zero, zero.copy(), NO_SOLUTION_CERTIFIED, report)
        if solvability.verdict == FAMILY_ALONG_W:
            family = w.copy()  # the caller's w stays the caller's
            family.flags.writeable = False
    sol = _picard(T, b, ELLIPTIC, opts)
    return replace(sol, report=replace(sol.report, solvability=solvability,
                                       family_direction=family))


def solve_parabolic_pls(T, b, opts=None, trail=None):
    """Solve x + T max{0,x} = b; this form always has a unique solution.

    trail, a list, carries each outer step's (mask, x_A) entry, its inner
    solution, from one call to the next (see _picard): a time-stepping
    caller passes the same list to every step, and a step whose mask
    sequence repeats the last one's starts each inner solve from there. A
    wrong final iterate cannot pass the nonsmooth residual gate.
    """
    b, = operands(T, b)
    return _picard(T, b, PARABOLIC, opts or SolverOptions(), trail=trail)


def solve_shifted(T, b, xi, form, opts=None):
    """Solve the shifted forms with thresholds xi instead of zero.

    MinPlusTMax: min{xi,x} + T max{xi,x} = b. MaxPlusTMin swaps min and
    max. In z = x - xi both become an elliptic system with right-hand side
    b2 = b - (I+T) xi: MinPlusTMax is min{0,z} + T max{0,z} = b2, which
    the plain elliptic loop solves, and MaxPlusTMin is max{0,z} +
    T min{0,z} = b2, that is min{0,w} + T max{0,w} = -b2 in w = -z, which
    the same loop solves on -b2. Negation is exact, so the second form
    gives x = xi - w and y = max{0,-w}, with the tie rule of every other
    solve (w_i = 0 is active). The solution, and the iterate carried by
    NotConverged or Breakdown, are in the unshifted variable x.
    """
    if form not in (MIN_PLUS_TMAX, MAX_PLUS_TMIN):
        raise ValueError(f"unknown shift form {form!r}")
    b, xi = operands(T, b, xi)
    opts = opts or SolverOptions()
    b2 = b - xi - spmv(T, xi)
    sign = 1.0 if form == MIN_PLUS_TMAX else -1.0  # z, or w = -z
    try:
        sol = _picard(T, sign * b2, ELLIPTIC, opts)
    except (NotConverged, Breakdown) as exc:
        exc.x = xi + sign * exc.x
        raise
    z = sign * sol.x
    return replace(sol, x=xi + z, y=np.maximum(z, 0.0))


def residual_nonsmooth(T, b, x, kind=ELLIPTIC, xi=None, form=MIN_PLUS_TMAX):
    """Max-norm residual of the nonsmooth equation at x. The shift xi and
    the MaxPlusTMin form are elliptic only; the parabolic kind rejects
    them rather than return the residual of another equation. T, b, x and
    a given xi are checked as every solve's operands are. MaxPlusTMin is
    the MinPlusTMax residual at -b, -x and -xi, whose r is the negated r
    of the form: negation is exact, so max |r| keeps its bits."""
    b, x, *shift = operands(T, b, x, *(() if xi is None else (xi,)))
    base = shift[0] if shift else 0.0
    if kind not in (ELLIPTIC, PARABOLIC):
        raise ValueError(f"unknown kind {kind!r}")
    if form not in (MIN_PLUS_TMAX, MAX_PLUS_TMIN):
        raise ValueError(f"unknown shift form {form!r}")
    if kind == PARABOLIC and (xi is not None or form != MIN_PLUS_TMAX):
        raise ValueError("the parabolic residual takes no shift xi and no "
                         "MaxPlusTMin form")
    if form == MAX_PLUS_TMIN:
        b, x, base = -b, -x, -base
    return _residual(T, b, x, kind, base)


def _residual(T, b, x, kind, base=0.0, product=None):
    """max |r| for r = x + T max{0,x} - b (parabolic) or min{base,x} +
    T max{base,x} - b (elliptic). A given product stands for the product
    with T; one that differs from it at most in the sign of a zero leaves
    max |r| as is."""
    if kind == PARABOLIC:
        u, v = x, np.maximum(x, 0.0)
    else:
        u, v = np.minimum(x, base), np.maximum(x, base)
    r = u + (spmv(T, v) if product is None else product) - b
    return float(np.abs(r).max()) if r.size else 0.0


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    y_min: float
    slack_min: float
    complementarity: float


def lcp_check(T, b, y, kind=ELLIPTIC):
    """Verify the complementarity conditions satisfied by y = max{0,x}.

    Elliptic: y >= 0, T y >= b, y^T (T y - b) = 0; the parabolic slack is
    y + T y - b. Inequalities are tested against 1e-8 max(1, ||b||_inf),
    and the complementarity product against 1e-8 ||y|| ||b||.
    T, b and y are checked as every solve's operands are, and an unknown
    kind raises.
    """
    b, y = operands(T, b, y)
    if kind not in (ELLIPTIC, PARABOLIC):
        raise ValueError(f"unknown kind {kind!r}")
    slack = spmv(T, y) - b
    if kind == PARABOLIC:
        slack = y + slack
    scale = max(1.0, float(np.abs(b).max()) if b.size else 0.0)
    y_min = float(y.min()) if y.size else 0.0
    slack_min = float(slack.min()) if slack.size else 0.0
    comp = abs(float(y @ slack))
    passed = (
        y_min >= -_LCP_TOL * scale
        and slack_min >= -_LCP_TOL * scale
        and comp <= _LCP_TOL * float(np.linalg.norm(y)) * float(np.linalg.norm(b))
    )
    return CheckReport(passed, y_min, slack_min, comp)
