import warnings
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from helpers import csr_from_dense, path_laplacian, random_symmetric_t1, random_t1

from plskit import (
    ELLIPTIC,
    PARABOLIC,
    Breakdown,
    DimensionError,
    KrylovOptions,
    NotConverged,
    PlsSolution,
    SolverOptions,
    check_t1,
    check_t2,
    enumerate_solutions,
    lcp_check,
    residual_nonsmooth,
    solve_elliptic_pls,
    solve_parabolic_pls,
    solve_shifted,
    spmv,
)
from plskit import pls
from plskit.matprops import FAMILY_ALONG_W, UNIQUE
from plskit.pls import (
    CONVERGED,
    MAX_OUTER_EXCEEDED,
    MAX_PLUS_TMIN,
    MIN_PLUS_TMAX,
    NO_SOLUTION_CERTIFIED,
)

T22 = np.array([[2.0, -1.0], [-1.0, 2.0]])


def test_an_exact_zero_joins_the_mask():
    # the empty first step gives x = b exactly; its zero is a tie, and the
    # tie is active (x_i >= 0), so the second step solves on mask {0}
    b = np.array([0.0, -1.0])
    sol = solve_elliptic_pls(csr_from_dense(T22), b)
    assert sol.status == CONVERGED
    assert sol.report.active_counts[:2] == (0, 1)
    assert np.array_equal(sol.x, b)
    assert residual_nonsmooth(csr_from_dense(T22), b, sol.x) == 0.0


_SOLVES = {  # u is the third vector: t2_data's w, or xi
    "elliptic": lambda t, b, u: solve_elliptic_pls(t, b, t2_data=(np.ones(2), u)),
    "parabolic": lambda t, b, u: solve_parabolic_pls(t, b),
    "shifted": lambda t, b, u: solve_shifted(t, b, u, MIN_PLUS_TMAX),
}
_FINITE = "entries must be finite"
_BAD_OPERANDS = {  # (T, b, u), and the error and message it raises
    "non-square-t": ((np.ones((2, 3)), [1.0, -1.0], [1.0, 1.0]), DimensionError, None),
    "short-b": ((T22, [1.0], [1.0, 1.0]), DimensionError, None),
    "2-d-b": ((T22, [[1.0, -1.0]], [1.0, 1.0]), DimensionError, None),
    "non-finite-t": (([[np.nan, -1.0], [-1.0, 2.0]], [1.0, -1.0], [1.0, 1.0]),
                     ValueError, "^matrix " + _FINITE),
    "non-finite-b": ((T22, [np.inf, -1.0], [1.0, 1.0]), ValueError, "^vector " + _FINITE),
    "long-u": ((T22, [1.0, -1.0], [1.0, 1.0, 1.0]), DimensionError, None),
    "non-finite-u": ((T22, [1.0, -1.0], [np.nan, 1.0]), ValueError, "^vector " + _FINITE),
}


@pytest.mark.parametrize("solver, case", [
    (solver, case) for solver in _SOLVES for case in _BAD_OPERANDS
    if solver != "parabolic" or not case.endswith("-u")])
def test_every_solver_checks_its_operands(solver, case):
    # one check for all three: T square and finite, and b, xi and
    # t2_data's vectors finite and of T's dimension
    (dense, b, u), error, match = _BAD_OPERANDS[case]
    with pytest.raises(error, match=match):
        _SOLVES[solver](csr_from_dense(dense), b, u)


_CHECKS = {  # u is the third vector: x, or y
    "residual": lambda t, b, u: residual_nonsmooth(t, b, u),
    "lcp": lambda t, b, u: lcp_check(t, b, u),
}


@pytest.mark.parametrize("check", _CHECKS)
@pytest.mark.parametrize("case", _BAD_OPERANDS)
def test_the_residual_and_lcp_checks_refuse_what_the_solvers_refuse(check, case):
    # unchecked, a NaN b gave a nan residual and an LCP report with
    # slack_min = nan, with no error
    (dense, b, u), error, match = _BAD_OPERANDS[case]
    with pytest.raises(error, match=match):
        _CHECKS[check](csr_from_dense(dense), b, u)


def test_t_is_scanned_for_non_finite_entries_once(monkeypatch):
    # a time-stepped run solves and checks every step on one matrix, so
    # T's finiteness is found once, not once per solve or check
    t = csr_from_dense(T22)
    isfinite, scans = np.isfinite, []

    def counting(a, *args, **kwargs):
        if a is t.values:
            scans.append(a)
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    b = np.array([1.0, -1.0])
    for _ in range(3):
        sol = solve_parabolic_pls(t, b)
        assert residual_nonsmooth(t, b, sol.x, kind=PARABOLIC) <= 1e-12
        assert lcp_check(t, b, sol.y, kind=PARABOLIC).passed
    assert len(scans) == 1


def test_t2_data_of_another_dimension_is_refused():
    # unchecked, a w of another length would come back as a 5-entry
    # family direction of a 2 x 2 system; a v of another length is
    # refused the same way
    t = csr_from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    for t2_data in ((np.ones(2), np.ones(5)), (np.ones(5), np.ones(2))):
        with pytest.raises(DimensionError):
            solve_elliptic_pls(t, [1.0, -1.0], t2_data=t2_data)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_outer=0)
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            SolverOptions(res_tol=tol)


def test_elliptic_all_negative_rhs_is_one_step():
    sol = solve_elliptic_pls(csr_from_dense(T22), [-1.0, -2.0])
    assert sol.status == CONVERGED
    assert np.allclose(sol.x, [-1.0, -2.0])
    assert np.allclose(sol.y, [0.0, 0.0])
    assert sol.report.outer_iterations == 1


def test_elliptic_mixed_sign_solution():
    sol = solve_elliptic_pls(csr_from_dense(T22), [1.0, -1.0])
    assert sol.status == CONVERGED
    assert np.allclose(sol.x, [0.5, -0.5])
    assert np.allclose(sol.y, [0.5, 0.0])


def test_elliptic_certifies_unsolvable_t2_system():
    t = csr_from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    sol = solve_elliptic_pls(t, [1.0, 1.0], t2_data=(np.ones(2), np.ones(2)))
    assert sol.status == NO_SOLUTION_CERTIFIED
    assert sol.report.outer_iterations == 0
    assert sol.report.solvability.verdict == "NoSolution"


def test_elliptic_flags_solution_family_on_singular_consistent_data():
    t = csr_from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    b = np.array([1.0, -1.0])
    sol = solve_elliptic_pls(t, b, t2_data=(np.ones(2), np.ones(2)))
    assert sol.status == CONVERGED
    assert sol.report.solvability.verdict == "FamilyAlongW"
    assert np.allclose(sol.report.family_direction, [1.0, 1.0])
    for alpha in (0.5, 1.0, 2.0):
        member = sol.x + alpha * sol.report.family_direction
        assert residual_nonsmooth(t, b, member) <= 1e-8


def test_parabolic_all_negative_rhs():
    sol = solve_parabolic_pls(csr_from_dense(T22), [-3.0, -4.0])
    assert np.allclose(sol.x, [-3.0, -4.0])
    assert sol.report.outer_iterations == 1


def test_parabolic_fully_nonnegative_branch():
    sol = solve_parabolic_pls(csr_from_dense(np.eye(2)), [2.0, 4.0])
    assert np.allclose(sol.x, [1.0, 2.0])


def test_parabolic_mixed_sign_solution():
    sol = solve_parabolic_pls(csr_from_dense(T22), [1.0, -1.0])
    assert np.allclose(sol.x, [1.0 / 3.0, -2.0 / 3.0])
    assert np.allclose(sol.y, [1.0 / 3.0, 0.0])


def test_shifted_zero_shift_matches_elliptic():
    t = csr_from_dense(T22)
    b = np.array([1.0, -1.0])
    plain = solve_elliptic_pls(t, b)
    shifted = solve_shifted(t, b, np.zeros(2), MIN_PLUS_TMAX)
    assert np.allclose(shifted.x, plain.x)
    assert np.allclose(shifted.y, plain.y)


def test_shifted_reduces_to_unshifted_iteration():
    # b - (I+T) xi = (-1, -2), so x - xi = (-1, -2).
    sol = solve_shifted(csr_from_dense(T22), [1.0, 0.0], [1.0, 1.0], MIN_PLUS_TMAX)
    assert np.allclose(sol.x, [0.0, -1.0])


def test_shifted_scalar_example():
    sol = solve_shifted(csr_from_dense(np.eye(1)), [12.0], [5.0], MIN_PLUS_TMAX)
    assert np.allclose(sol.x, [7.0])
    assert np.allclose(sol.y, [2.0])
    # check against the defining equation min{xi,x} + T max{xi,x} = b
    assert min(5.0, sol.x[0]) + max(5.0, sol.x[0]) == pytest.approx(12.0)


def test_shifted_complement_form():
    # max{0,x} + T min{0,x} = b with T=[[2]], b=(-3): x=-1.5, max part 0
    sol = solve_shifted(
        csr_from_dense(np.array([[2.0]])), [-3.0], [0.0], MAX_PLUS_TMIN
    )
    assert np.allclose(sol.x, [-1.5])
    assert residual_nonsmooth(
        csr_from_dense(np.array([[2.0]])), [-3.0], sol.x, form=MAX_PLUS_TMIN
    ) <= 1e-10


def test_shifted_errors_carry_the_unshifted_iterate():
    # one inner iteration cannot solve the first nonempty active set; the
    # failing step's iterate comes back as x = z + xi, like a solution
    rng = np.random.default_rng(8)
    t = random_t1(rng, 8)
    b = rng.normal(size=8)
    xi = rng.normal(size=8)
    opts = SolverOptions(krylov=KrylovOptions(max_iters=1))
    with pytest.raises((NotConverged, Breakdown)) as plain:
        solve_elliptic_pls(t, b - xi - spmv(t, xi), opts)
    with pytest.raises(type(plain.value)) as shifted:
        solve_shifted(t, b, xi, MIN_PLUS_TMAX, opts)
    assert np.array_equal(shifted.value.x, plain.value.x + xi)


def test_residual_history_is_residual_nonsmooth():
    # the stable step takes T max{0,x} from the lift's product T x~, which
    # differs from it at most in the sign of a zero; the last residual
    # equals a fresh one bit for bit, on the CG and Bi-CGSTAB paths and
    # with signed zeros in b
    rng = np.random.default_rng(9)
    t = random_t1(rng, 8)
    cases = [(t, rng.normal(size=8))]
    rng = np.random.default_rng(23)
    for make in (random_symmetric_t1, random_t1):
        t = make(rng, 30)
        b = rng.normal(size=30)
        b[:4], b[4:8] = 0.0, -0.0
        cases.append((t, b))
    for t, b in cases:
        for solve, kind in (
            (solve_elliptic_pls, ELLIPTIC),
            (solve_parabolic_pls, PARABOLIC),
        ):
            sol = solve(t, b)
            assert sol.status == CONVERGED
            assert sol.report.residual_history[-1] == residual_nonsmooth(
                t, b, sol.x, kind=kind
            )
        # a shifted solve records the residual in z = x - xi, against
        # b - (I+T) xi, and MaxPlusTMin records it at -z and -b2; the
        # residual of the form at x agrees up to the rounding of the
        # shift, while the other form's is far off
        xi = rng.normal(size=b.size)
        xi[::3] = 0.0
        scale = np.finfo(np.float64).eps * (np.abs(b).max() + 4.0 * np.abs(xi).max())
        for form, other in ((MIN_PLUS_TMAX, MAX_PLUS_TMIN),
                            (MAX_PLUS_TMIN, MIN_PLUS_TMAX)):
            sol = solve_shifted(t, b, xi, form)
            assert sol.status == CONVERGED
            recorded = sol.report.residual_history[-1]
            fresh = residual_nonsmooth(t, b, sol.x, xi=xi, form=form)
            assert abs(recorded - fresh) <= 64.0 * scale
            assert residual_nonsmooth(t, b, sol.x, xi=xi, form=other) > 1e-3


def test_max_plus_tmin_is_the_elliptic_loop_on_the_negated_load():
    # max{xi,x} + T min{xi,x} = b is min{0,w} + T max{0,w} = -b2 in
    # w = xi - x, b2 = b - (I+T) xi: the shifted solve returns
    # x = xi - w and y = max{0,-w} bit for bit, with w the elliptic
    # solution on -b2, exact zeros in b2 and xi included (the tie w_i = 0
    # is active, as in every other solve)
    rng = np.random.default_rng(41)
    zeros = 0
    for symmetric in (True, False):
        for _ in range(10):
            n = int(rng.integers(4, 20))
            t = _integer_m_matrix(rng, n, symmetric)
            assert t.is_symmetric() == symmetric
            # small integers keep b2 = b - xi - T xi exact, so its zeros
            # are the ones drawn
            xi = rng.integers(-2, 3, n) * (rng.random(n) < 0.5)
            b2 = rng.integers(-3, 4, n) * (rng.random(n) < 0.8)
            b = b2 + xi + t.to_dense() @ xi
            assert np.array_equal(b - xi - spmv(t, xi), b2)
            zeros += int(np.count_nonzero(b2 == 0))
            w = solve_elliptic_pls(t, -b2.astype(float))
            sol = solve_shifted(t, b, xi, MAX_PLUS_TMIN)
            assert sol.status == w.status == CONVERGED
            assert _same_bits(sol.x, xi - w.x)
            assert _same_bits(sol.y, np.maximum(-w.x, 0.0))
            assert sol.report.residual_history == w.report.residual_history
            assert sol.report.active_counts == w.report.active_counts
    assert zeros > 0


def _integer_m_matrix(rng, n, symmetric):
    """A diagonally dominant M-matrix with small integer entries."""
    a = -rng.integers(0, 3, (n, n)).astype(float)
    np.fill_diagonal(a, 0.0)
    if symmetric:
        a = np.triu(a) + np.triu(a).T
    np.fill_diagonal(a, -a.sum(axis=1) + 1.0)
    return csr_from_dense(a)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_active_counts_grow_monotonically():
    # nonsymmetric T takes the Bi-CGSTAB inner path, symmetric T the CG path
    rng = np.random.default_rng(21)
    for make_t in (random_t1, random_symmetric_t1):
        for _ in range(10):
            n = int(rng.integers(3, 11))
            t = make_t(rng, n)
            assert t.is_symmetric() == (make_t is random_symmetric_t1)
            b = rng.normal(size=n)
            for solve, kind in (
                (solve_elliptic_pls, ELLIPTIC),
                (solve_parabolic_pls, PARABOLIC),
            ):
                sol = solve(t, b)
                assert sol.report.active_counts[0] == 0
                # as sets: no step drops a component of the mask before it
                assert sol.report.left_counts == (0,) * sol.report.outer_iterations
                # the sharp bound: n mask growths plus one confirming solve,
                # and the run must stop on a stable mask, not on max_outer
                assert sol.report.outer_iterations <= n + 1
                assert sol.status != MAX_OUTER_EXCEEDED
                assert lcp_check(t, b, sol.y, kind=kind).passed


def test_left_counts_record_a_mask_that_shrinks():
    # T has a positive off-diagonal entry, so it is no M-matrix and the
    # monotone theorem does not hold: the full mask of step 1 loses
    # component 0 at step 2, and nothing joins it back in
    t = csr_from_dense([[2.0, 1.0], [-0.5, 1.5]])
    sol = solve_elliptic_pls(t, [0.5, 1.5])
    assert sol.status == CONVERGED
    assert sol.report.active_counts == (0, 2, 1, 1)
    assert sol.report.left_counts == (0, 1, 0)
    assert np.allclose(sol.x, [-0.5, 1.0])


def test_solve_count_reaches_the_sharp_bound_n_plus_one():
    # the empty start mask grows twice, then a third solve confirms it
    sol = solve_elliptic_pls(csr_from_dense(T22), [1.0, -0.1])
    assert sol.status == CONVERGED
    assert sol.report.active_counts == (0, 1, 2, 2)
    assert sol.report.outer_iterations == 3
    assert np.allclose(sol.x, [19.0 / 30.0, 8.0 / 30.0])


def test_report_records_inner_work():
    sol = solve_elliptic_pls(csr_from_dense(T22), [1.0, -1.0])
    assert len(sol.report.inner_stats) == sol.report.outer_iterations
    assert len(sol.report.residual_history) == sol.report.outer_iterations
    assert sol.report.residual_history[-1] <= 1e-8


def test_loose_inner_tolerance_trips_the_residual_gate():
    rng = np.random.default_rng(5)
    t = random_t1(rng, 8)
    b = rng.normal(size=8)
    opts = SolverOptions(krylov=KrylovOptions(rel_tol=1e-2, max_iters=4))
    with pytest.raises(NotConverged) as err:
        solve_elliptic_pls(t, b, opts)
    assert err.value.x.shape == (8,)


@pytest.mark.parametrize("entry", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("solve", [
    lambda t, b: solve_elliptic_pls(t, b),
    lambda t, b: solve_parabolic_pls(t, b),
    lambda t, b: solve_shifted(t, b, np.zeros(2), MIN_PLUS_TMAX),
    lambda t, b: solve_shifted(t, b, np.zeros(2), MAX_PLUS_TMIN),
    lambda t, b: check_t1(t),
    lambda t, b: check_t2(t),
    lambda t, b: enumerate_solutions(t, b),
], ids=["elliptic", "parabolic", "min-plus-tmax", "max-plus-tmin",
        "check-t1", "check-t2", "oracle"])
def test_a_non_finite_entry_of_t_never_converges(solve, entry):
    # refused at entry, as a non-finite b is, before any product could
    # spread a NaN into the iterate and end the solve with a misleading
    # NotConverged or Breakdown, a check with a certificate for it, or
    # the oracle with a failed SVD
    t = csr_from_dense(np.array([[entry, -1.0], [-1.0, 2.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            solve(t, np.ones(2))


@pytest.mark.parametrize("b, smaller", [([1e200, -1e200], [1e153, -1e153]),
                                        ([1e154, 1e154], [1e153, 1e153])])
@pytest.mark.parametrize("solve", [
    lambda t, b: solve_elliptic_pls(t, b),
    lambda t, b: solve_parabolic_pls(t, b),
    lambda t, b: solve_shifted(t, b, np.zeros(2), MIN_PLUS_TMAX),
    lambda t, b: solve_shifted(t, b, np.zeros(2), MAX_PLUS_TMIN),
], ids=["elliptic", "parabolic", "min-plus-tmax", "max-plus-tmin"])
def test_a_right_hand_side_whose_norm_overflows_is_refused(solve, b, smaller):
    # ||b||^2 overflows, and with it the inner tolerance and the solvers'
    # dot products; refused before any product, so no overflow warning,
    # while a b ten times below sqrt(DBL_MAX / 2) still converges
    t = csr_from_dense(T22)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^right-hand side too large"):
            solve(t, b)
        sol = solve(t, smaller)
    assert sol.status == CONVERGED


def test_max_outer_cap_reports_instead_of_looping():
    sol = solve_elliptic_pls(csr_from_dense(T22), [1.0, -1.0],
                             SolverOptions(max_outer=1))
    assert sol.status == MAX_OUTER_EXCEEDED
    assert sol.report.outer_iterations == 1


_SINGULAR = np.array([[1.0, -1.0], [-1.0, 1.0]])


@pytest.mark.parametrize("solve, status", [
    (lambda w: solve_elliptic_pls(csr_from_dense(T22), [1.0, -0.1]),
     CONVERGED),
    (lambda w: solve_elliptic_pls(csr_from_dense(_SINGULAR), [1.0, 1.0],
                                  t2_data=(np.ones(2), w)),
     NO_SOLUTION_CERTIFIED),
    (lambda w: solve_elliptic_pls(csr_from_dense(_SINGULAR), [1.0, -1.0],
                                  t2_data=(np.ones(2), w)),
     CONVERGED),
    (lambda w: solve_elliptic_pls(csr_from_dense(T22), [1.0, -1.0],
                                  SolverOptions(max_outer=1)),
     MAX_OUTER_EXCEEDED),
    (lambda w: solve_parabolic_pls(csr_from_dense(T22), [1.0, -1.0]),
     CONVERGED),
    (lambda w: solve_shifted(csr_from_dense(T22), [1.0, 0.0], [1.0, 1.0],
                             MIN_PLUS_TMAX), CONVERGED),
    (lambda w: solve_shifted(csr_from_dense(T22), [1.0, 0.0], [1.0, 1.0],
                             MAX_PLUS_TMIN), CONVERGED),
], ids=["elliptic", "no-solution", "family", "max-outer", "parabolic",
        "min-plus-tmax", "max-plus-tmin"])
def test_every_returned_result_is_immutable(solve, status):
    # a caller may hand one result to many readers (run_parabolic does so
    # for its settled steps), so no field of the solution, its report or
    # an inner stats record can be rebound, the per-step records are
    # tuples, and x and y refuse writes. A family's report also holds a
    # frozen solvability verdict and its own read-only copy of w
    w = np.ones(2)  # the w of t2_data, for the cases that pass one
    sol = solve(w)
    assert sol.status == status
    rep = sol.report
    for record in (sol, rep, *rep.inner_stats):
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
    for name in ("active_counts", "left_counts", "inner_stats", "residual_history"):
        assert type(getattr(rep, name)) is tuple
    for vector in (sol.x, sol.y):
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 1.0
    if rep.solvability is not None and rep.solvability.verdict == FAMILY_ALONG_W:
        with pytest.raises(FrozenInstanceError):
            rep.solvability.verdict = UNIQUE
        with pytest.raises(ValueError, match="read-only"):
            rep.family_direction[0] = 2.0
        w[0] = 2.0
        assert np.array_equal(rep.family_direction, np.ones(2))


def test_unclassified_infeasible_t2_system_fails_loudly():
    # without t2_data the solver iterates on an unsolvable system; the
    # reduced step system goes singular and the inner solver gives up
    with pytest.raises((Breakdown, NotConverged)):
        solve_elliptic_pls(path_laplacian(4), np.ones(4))


@pytest.mark.parametrize("symmetric", [True, False])
def test_a_carried_converged_start_returns_the_solvers_zero_iteration_result(
        symmetric, monkeypatch):
    # a second solve of the same system from its own trail: every nonempty
    # step's solver (CG for a symmetric T, Bi-CGSTAB otherwise) returns its
    # carried start with 0 iterations and the solve returns the same x.
    # The products of T are the lifts of the K - 1 nonempty steps and the
    # residuals of the K - 1 steps whose mask does not repeat
    rng = np.random.default_rng(17)
    T = (random_symmetric_t1 if symmetric else random_t1)(rng, 40)
    assert T.is_symmetric() == symmetric
    b = rng.normal(size=40)
    trail = []
    first = solve_parabolic_pls(T, b, trail=trail)
    assert first.report.outer_iterations >= 3
    products = []
    product = pls.spmv

    def counting(*args, **kwargs):
        products.append(1)
        return product(*args, **kwargs)

    monkeypatch.setattr(pls, "spmv", counting)
    again = solve_parabolic_pls(T, b, trail=trail)
    assert np.array_equal(again.x, first.x)
    assert again.report.active_counts == first.report.active_counts
    assert all(st.iterations == 0 and st.converged
               for st in again.report.inner_stats)
    assert len(products) == 2 * (again.report.outer_iterations - 1)


def test_residual_nonsmooth_forms():
    t = csr_from_dense(T22)
    b = np.array([1.0, -1.0])
    assert residual_nonsmooth(t, b, np.zeros(2)) == 1.0
    assert residual_nonsmooth(t, b, [0.5, -0.5]) <= 1e-12
    assert residual_nonsmooth(t, [-3.0, -4.0], [-3.0, -4.0], kind=PARABOLIC) == 0.0
    sol = solve_shifted(t, [1.0, 0.0], [1.0, 1.0], MIN_PLUS_TMAX)
    assert (
        residual_nonsmooth(t, [1.0, 0.0], sol.x, xi=np.ones(2)) <= 1e-10
    )


@pytest.mark.parametrize("kwargs", [
    {"kind": PARABOLIC, "xi": np.ones(2)},
    {"kind": PARABOLIC, "xi": np.zeros(2)},
    {"kind": PARABOLIC, "form": MAX_PLUS_TMIN},
    {"kind": "hyperbolic"},
    {"form": "MinPlusTMin"},
])
def test_residual_nonsmooth_rejects_what_it_cannot_form(kwargs):
    # the parabolic residual has no shifted form: it would be the
    # unshifted x + T max{0,x} - b, the residual of another equation
    with pytest.raises(ValueError):
        residual_nonsmooth(csr_from_dense(T22), [1.0, -1.0], [0.5, -0.5], **kwargs)


@pytest.mark.parametrize("xi, error", [
    ([5.0], DimensionError),  # would broadcast against x
    ([5.0, 5.0], DimensionError),  # would not broadcast
    ([np.nan, 0.0, 0.0], ValueError),  # not finite
])
def test_residual_nonsmooth_validates_xi(xi, error):
    t = csr_from_dense(2.0 * np.eye(3))
    with pytest.raises(error):
        residual_nonsmooth(t, np.ones(3), np.full(3, 0.5), xi=xi)


def test_lcp_check_pass_and_fail():
    t = csr_from_dense(T22)
    good = lcp_check(t, [1.0, -1.0], np.array([0.5, 0.0]))
    assert good.passed
    assert good.complementarity <= 1e-12
    trivial = lcp_check(t, [-1.0, -2.0], np.zeros(2))
    assert trivial.passed
    bad = lcp_check(csr_from_dense(np.eye(2)), [0.0, 0.0], np.ones(2))
    assert not bad.passed
    assert bad.complementarity == pytest.approx(2.0)


def test_lcp_check_rejects_a_right_hand_side_of_another_length():
    # b = [1.0] broadcast against T y = y, and this y passed
    t = csr_from_dense(2.0 * np.eye(3))
    with pytest.raises(DimensionError):
        lcp_check(t, [1.0], np.full(3, 0.5))


def test_lcp_check_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        lcp_check(csr_from_dense(T22), [1.0, -1.0], np.array([0.5, 0.0]),
                  kind="hyperbolic")


def test_lcp_check_parabolic_form():
    t, b = csr_from_dense(T22), [1.0, -1.0]
    sol = solve_parabolic_pls(t, b)
    assert lcp_check(t, b, sol.y, kind=PARABOLIC).passed


def test_solution_exposes_plain_arrays():
    sol = solve_elliptic_pls(csr_from_dense(T22), [1.0, -1.0])
    assert isinstance(sol, PlsSolution)
    assert sol.x.dtype == np.float64
    assert np.all(sol.y >= 0.0)
