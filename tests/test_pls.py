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
    PlsProblem,
    PlsSolution,
    SolverOptions,
    lcp_check,
    residual_nonsmooth,
    solve_elliptic_pls,
    solve_parabolic_pls,
    solve_shifted,
    spmv,
)
from plskit import pls
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
    sol = solve_elliptic_pls(PlsProblem(csr_from_dense(T22), b))
    assert sol.status == CONVERGED
    assert sol.report.active_counts[:2] == [0, 1]
    assert np.array_equal(sol.x, b)
    assert residual_nonsmooth(csr_from_dense(T22), b, sol.x) == 0.0


def test_problem_validation():
    t = csr_from_dense(T22)
    with pytest.raises(ValueError):
        PlsProblem(t, np.zeros(2), kind="weird")
    with pytest.raises(DimensionError):
        PlsProblem(t, np.zeros(3))
    with pytest.raises(DimensionError):
        PlsProblem(csr_from_dense(np.ones((2, 3))), np.zeros(2))


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_outer=0)


def test_elliptic_all_negative_rhs_is_one_step():
    sol = solve_elliptic_pls(PlsProblem(csr_from_dense(T22), [-1.0, -2.0]))
    assert sol.status == CONVERGED
    assert np.allclose(sol.x, [-1.0, -2.0])
    assert np.allclose(sol.y, [0.0, 0.0])
    assert sol.report.outer_iterations == 1


def test_elliptic_mixed_sign_solution():
    sol = solve_elliptic_pls(PlsProblem(csr_from_dense(T22), [1.0, -1.0]))
    assert sol.status == CONVERGED
    assert np.allclose(sol.x, [0.5, -0.5])
    assert np.allclose(sol.y, [0.5, 0.0])


def test_elliptic_certifies_unsolvable_t2_system():
    t = csr_from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    problem = PlsProblem(t, [1.0, 1.0], t2_data=(np.ones(2), np.ones(2)))
    sol = solve_elliptic_pls(problem)
    assert sol.status == NO_SOLUTION_CERTIFIED
    assert sol.report.outer_iterations == 0
    assert sol.report.solvability.verdict == "NoSolution"


def test_elliptic_flags_solution_family_on_singular_consistent_data():
    t = csr_from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    problem = PlsProblem(t, [1.0, -1.0], t2_data=(np.ones(2), np.ones(2)))
    sol = solve_elliptic_pls(problem)
    assert sol.status == CONVERGED
    assert sol.report.solvability.verdict == "FamilyAlongW"
    assert np.allclose(sol.report.family_direction, [1.0, 1.0])
    for alpha in (0.5, 1.0, 2.0):
        member = sol.x + alpha * sol.report.family_direction
        assert residual_nonsmooth(t, problem.b, member) <= 1e-8


def test_elliptic_rejects_parabolic_problem():
    p = PlsProblem(csr_from_dense(T22), [1.0, -1.0], kind=PARABOLIC)
    with pytest.raises(ValueError):
        solve_elliptic_pls(p)
    with pytest.raises(ValueError):
        solve_parabolic_pls(PlsProblem(csr_from_dense(T22), [1.0, -1.0]))


def test_parabolic_all_negative_rhs():
    p = PlsProblem(csr_from_dense(T22), [-3.0, -4.0], kind=PARABOLIC)
    sol = solve_parabolic_pls(p)
    assert np.allclose(sol.x, [-3.0, -4.0])
    assert sol.report.outer_iterations == 1


def test_parabolic_fully_nonnegative_branch():
    p = PlsProblem(csr_from_dense(np.eye(2)), [2.0, 4.0], kind=PARABOLIC)
    sol = solve_parabolic_pls(p)
    assert np.allclose(sol.x, [1.0, 2.0])


def test_parabolic_mixed_sign_solution():
    p = PlsProblem(csr_from_dense(T22), [1.0, -1.0], kind=PARABOLIC)
    sol = solve_parabolic_pls(p)
    assert np.allclose(sol.x, [1.0 / 3.0, -2.0 / 3.0])
    assert np.allclose(sol.y, [1.0 / 3.0, 0.0])


def test_shifted_zero_shift_matches_elliptic():
    t = csr_from_dense(T22)
    b = np.array([1.0, -1.0])
    plain = solve_elliptic_pls(PlsProblem(t, b))
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
        solve_elliptic_pls(PlsProblem(t, b - xi - spmv(t, xi)), opts)
    with pytest.raises(type(plain.value)) as shifted:
        solve_shifted(t, b, xi, MIN_PLUS_TMAX, opts)
    assert np.array_equal(shifted.value.x, plain.value.x + xi)


def test_residual_history_is_residual_nonsmooth():
    rng = np.random.default_rng(9)
    t = random_t1(rng, 8)
    b = rng.normal(size=8)
    for solve, kind in (
        (solve_elliptic_pls, ELLIPTIC),
        (solve_parabolic_pls, PARABOLIC),
    ):
        sol = solve(PlsProblem(t, b, kind=kind))
        assert sol.report.residual_history[-1] == residual_nonsmooth(
            t, b, sol.x, kind=kind
        )
    # a zero shift keeps x = z exactly, so the comparison stays bitwise
    sol = solve_shifted(t, b, np.zeros(8), MAX_PLUS_TMIN)
    assert sol.status == CONVERGED
    assert sol.report.residual_history[-1] == residual_nonsmooth(
        t, b, sol.x, form=MAX_PLUS_TMIN
    )


def test_active_counts_grow_monotonically():
    # nonsymmetric T takes the QMR inner path, symmetric T the CG path
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
                sol = solve(PlsProblem(t, b, kind=kind))
                assert sol.report.active_counts[0] == 0
                # as sets: no step drops a component of the mask before it
                assert sol.report.left_counts == [0] * sol.report.outer_iterations
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
    sol = solve_elliptic_pls(PlsProblem(t, [0.5, 1.5]))
    assert sol.status == CONVERGED
    assert sol.report.active_counts == [0, 2, 1, 1]
    assert sol.report.left_counts == [0, 1, 0]
    assert np.allclose(sol.x, [-0.5, 1.0])


def test_solve_count_reaches_the_sharp_bound_n_plus_one():
    # the empty start mask grows twice, then a third solve confirms it
    sol = solve_elliptic_pls(PlsProblem(csr_from_dense(T22), [1.0, -0.1]))
    assert sol.status == CONVERGED
    assert sol.report.active_counts == [0, 1, 2, 2]
    assert sol.report.outer_iterations == 3
    assert np.allclose(sol.x, [19.0 / 30.0, 8.0 / 30.0])


def test_report_records_inner_work():
    sol = solve_elliptic_pls(PlsProblem(csr_from_dense(T22), [1.0, -1.0]))
    assert len(sol.report.inner_stats) == sol.report.outer_iterations
    assert len(sol.report.residual_history) == sol.report.outer_iterations
    assert sol.report.residual_history[-1] <= 1e-8


def test_loose_inner_tolerance_trips_the_residual_gate():
    rng = np.random.default_rng(5)
    t = random_t1(rng, 8)
    b = rng.normal(size=8)
    opts = SolverOptions(krylov=KrylovOptions(rel_tol=1e-2, max_iters=4))
    with pytest.raises(NotConverged) as err:
        solve_elliptic_pls(PlsProblem(t, b), opts)
    assert err.value.x.shape == (8,)


def test_max_outer_cap_reports_instead_of_looping():
    sol = solve_elliptic_pls(
        PlsProblem(csr_from_dense(T22), [1.0, -1.0]), SolverOptions(max_outer=1)
    )
    assert sol.status == MAX_OUTER_EXCEEDED
    assert sol.report.outer_iterations == 1


def test_unclassified_infeasible_t2_system_fails_loudly():
    # without t2_data the solver iterates on an unsolvable system; the
    # reduced step system goes singular and the inner solver gives up
    problem = PlsProblem(path_laplacian(4), np.ones(4))
    with pytest.raises((Breakdown, NotConverged)):
        solve_elliptic_pls(problem)


@pytest.mark.parametrize("symmetric", [True, False])
def test_a_carried_converged_start_returns_the_solvers_zero_iteration_result(
        symmetric, monkeypatch):
    # a second solve of the same system from its own trail: with the
    # products every nonempty step takes its start without a solver (CG
    # for a symmetric T, QMR otherwise), and gives exactly what that
    # solver returns, 0 iterations, when the products are dropped
    rng = np.random.default_rng(17)
    T = (random_symmetric_t1 if symmetric else random_t1)(rng, 40)
    assert T.is_symmetric() == symmetric
    problem = PlsProblem(T, rng.normal(size=40), kind=PARABOLIC)
    trail = []
    first = solve_parabolic_pls(problem, trail=trail)
    assert first.report.outer_iterations >= 3
    bare = [(mask, x_active.copy(), None) for mask, x_active, _ in trail]
    calls = []
    name = "cg_solve" if symmetric else "qmr_solve"
    solver = getattr(pls, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return solver(*args, **kwargs)

    monkeypatch.setattr(pls, name, counting)
    shortcut = solve_parabolic_pls(problem, trail=trail)
    assert calls == []
    solved = solve_parabolic_pls(problem, trail=bare)
    assert len(calls) == first.report.outer_iterations - 1
    assert np.array_equal(shortcut.x, solved.x)
    assert np.array_equal(shortcut.x, first.x)
    assert shortcut.report.inner_stats == solved.report.inner_stats
    assert all(st.iterations == 0 and st.converged
               for st in shortcut.report.inner_stats)
    for (_, a, p), (_, a_bare, p_bare) in zip(trail[1:], bare[1:]):
        assert np.array_equal(a, a_bare) and np.array_equal(p, p_bare)


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


def test_lcp_check_parabolic_form():
    p = PlsProblem(csr_from_dense(T22), [1.0, -1.0], kind=PARABOLIC)
    sol = solve_parabolic_pls(p)
    assert lcp_check(p.T, p.b, sol.y, kind=PARABOLIC).passed


def test_solution_exposes_plain_arrays():
    sol = solve_elliptic_pls(PlsProblem(csr_from_dense(T22), [1.0, -1.0]))
    assert isinstance(sol, PlsSolution)
    assert sol.x.dtype == np.float64
    assert np.all(sol.y >= 0.0)
