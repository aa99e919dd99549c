"""Seeded case lists for the four workloads, and the checks on every result.

Each case is one user-level operation: a stationary solve, a time-stepped
run, or the matrix-class flow of `plskit check`. A case counts as failed
when it raises, returns the wrong status, fails `lcp_check`, misses the
solver's residual gate, or gets a wrong certificate verdict.
"""

from dataclasses import dataclass

import numpy as np

from plskit import matprops, obstacle, pls

TORSION_C = (-20.0, -5.0)  # the paper's load constants (tables 2 and 4)
# v^T b = N^2 C + 4 N (N + 1) for torsion-neumann, positive for every N
# when C > -4, so these loads have no solution at any grid size
NO_SOLUTION_C = (-4.0, 0.0)
TENT_TAU, TORSION_TAU, NU = 1.0e4, 5.0, 20  # tables 3 and 4
SMOKE_N = 8

STATIONARY, PARABOLIC, CERTIFY = "stationary", "parabolic", "certify"

# failure kinds: an operation that raised or gave up, one that returned a
# wrong solution or status, and a wrong matrix-class verdict
REFUSED = "refused"
WRONG = "wrong"
CERTIFICATE = "certificate"


@dataclass(frozen=True)
class Case:
    mode: str  # STATIONARY, PARABOLIC or CERTIFY
    problem: str
    n: int
    c: float | None = None
    tau: float | None = None
    expect: str = pls.CONVERGED

    def label(self):
        text = f"{self.problem} N={self.n}"
        if self.c is not None:
            text += f" C={self.c:.4f}"
        if self.tau is not None:
            text += f" tau={self.tau:g} nu={NU}"
        return text


def _stratified(rng, k, lo, hi):
    """k draws from [lo, hi], one in each of k equal strata, in random order.

    Each draw is uniform on [lo, hi] on its own; the strata keep the total
    work of a pass close to its mean, because a torsion solve costs about
    1/|C| and a plain uniform sample of a few loads spreads that cost by
    a factor of three from seed to seed.
    """
    u = (rng.permutation(k) + rng.random(k)) / k
    return [float(lo + (hi - lo) * x) for x in u]


def make_cases(workload, seed, smoke=False):
    """The case list of one workload; the same seed gives the same list.

    With smoke=True every case keeps its kind and load at N=8.
    """
    rng = np.random.default_rng(seed)
    if workload == "stationary":
        cases = [Case(STATIONARY, obstacle.TENT, 75)]
        cases += [Case(STATIONARY, obstacle.TORSION, 50, c)
                  for c in _stratified(rng, 16, *TORSION_C)]
    elif workload == "flux":
        cases = [Case(STATIONARY, obstacle.TENT_NEUMANN, 50)]
        cases += [Case(STATIONARY, obstacle.TORSION_NEUMANN, 50, c)
                  for c in _stratified(rng, 16, *TORSION_C)]
        cases.append(Case(STATIONARY, obstacle.TORSION_NEUMANN, 50,
                          float(rng.uniform(*NO_SOLUTION_C)),
                          expect=pls.NO_SOLUTION_CERTIFIED))
    elif workload == "parabolic":
        cases = [Case(PARABOLIC, obstacle.TENT, 25, tau=TENT_TAU)]
        cases += [Case(PARABOLIC, obstacle.TORSION, 25, c, tau=TORSION_TAU)
                  for c in _stratified(rng, 12, *TORSION_C)]
    elif workload == "certify":
        loads = iter(_stratified(rng, 4, *TORSION_C))
        cases = [Case(CERTIFY, problem, n,
                      next(loads) if problem.startswith("torsion") else None)
                 for problem in obstacle.PROBLEM_NAMES for n in (25, 200)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if smoke:
        cases = [Case(c.mode, c.problem, SMOKE_N, c.c, c.tau, c.expect)
                 for c in cases]
    return [cases[i] for i in rng.permutation(len(cases))]


def _gate(b, opts):
    # the solver's own acceptance test: res_tol scaled by ||b||_inf
    scale = float(np.abs(b).max()) if b.size else 0.0
    return opts.res_tol * (scale if scale > 0.0 else 1.0)


class _GaveUp(Exception):
    """The solver reported that it stopped without converging."""


def _check_solution(T, b, result, kind, opts):
    """Problems with one converged solve; an empty list when it is right."""
    problems = []
    if result.status == pls.MAX_OUTER_EXCEEDED:
        raise _GaveUp(f"status {result.status}")
    if result.status != pls.CONVERGED:
        return [f"status {result.status}"]
    if not pls.lcp_check(T, b, result.y, kind=kind).passed:
        problems.append("lcp_check failed")
    residual = pls.residual_nonsmooth(T, b, result.x, kind=kind)
    if residual > _gate(b, opts):
        problems.append(f"residual {residual:.3g} above the gate")
    return problems


def _stationary(case, paused):
    opts = obstacle.default_solver_options()
    sol = obstacle.solve_obstacle(obstacle.problem_spec(case.problem, case.c),
                                  case.n, opts)
    with paused():
        result = sol.result
        if case.expect == pls.NO_SOLUTION_CERTIFIED:
            if result.status != case.expect:
                return [f"status {result.status}, expected {case.expect}"]
            if result.report.outer_iterations != 0:
                return ["iterated before certifying no solution"]
            return []
        return _check_solution(sol.disc.T, sol.disc.b, result, pls.ELLIPTIC, opts)


def _parabolic(case, paused):
    opts = obstacle.default_solver_options()
    run = obstacle.run_parabolic(obstacle.problem_spec(case.problem, case.c),
                                 case.n, case.tau, NU, opts)
    with paused():
        disc = run.disc
        T_step = disc.T.scaled(run.dt)
        problems = []
        for step, result in enumerate(run.step_results, start=1):
            b_step = (run.snapshots[step - 1] - disc.psi_vec) + run.dt * disc.b
            problems += [f"step {step}: {p}" for p in
                         _check_solution(T_step, b_step, result, pls.PARABOLIC, opts)]
        return problems


def _certify(case, paused):
    """The `plskit check` flow; Dirichlet matrices are t1 matrices and the
    Neumann ones are singular t2 matrices, so a certificate may be
    Inconclusive but never claim the other class."""
    disc = obstacle.assemble_elliptic(obstacle.problem_spec(case.problem, case.c),
                                      case.n)
    neumann = disc.t2_data is not None
    t1 = matprops.check_t1(disc.T)
    t2 = solvability = None
    if t1.t1_verdict != matprops.PROVEN:
        t2 = matprops.check_t2(disc.T)
        if t2.t2_verdict == matprops.PROVEN:
            solvability = matprops.classify_solvability(t2.left_null, disc.b)
    with paused():
        if not neumann:
            if t1.t1_verdict != matprops.PROVEN:
                return [f"t1 {t1.t1_verdict} on a nonsingular M-matrix"]
            return []
        problems = []
        if t1.t1_verdict == matprops.PROVEN:
            problems.append("t1 Proven on a singular matrix")
        if t2 is not None and t2.t2_verdict == matprops.DISPROVEN:
            problems.append("t2 Disproven on a t2 matrix")
        # both Neumann loads here have v^T b < 0: tent-neumann sums to -n,
        # torsion-neumann to N^2 C + 4 N (N + 1) with C <= -5
        if solvability is not None and solvability.verdict != matprops.UNIQUE:
            problems.append(f"solvability {solvability.verdict}, expected Unique")
        return problems


_RUNNERS = {STATIONARY: _stationary, PARABOLIC: _parabolic, CERTIFY: _certify}


def run_case(case, paused):
    """Run and check one case; returns (failure kind or None, problems).

    `paused` is a context manager under which the checks run, so a trace
    records only the program's own work.
    """
    try:
        problems = _RUNNERS[case.mode](case, paused)
    except Exception as exc:  # a raising operation is a failed operation
        return REFUSED, [f"{type(exc).__name__}: {exc}"]
    if not problems:
        return None, []
    return (CERTIFICATE if case.mode == CERTIFY else WRONG), problems
