import numpy as np
import pytest
from helpers import csr_from_dense, path_laplacian, random_t2

from plskit import (
    ELLIPTIC,
    PARABOLIC,
    Breakdown,
    KrylovOptions,
    KrylovStats,
    NotConverged,
    bicgstab_solve,
    cg_solve,
)
from plskit import obstacle
from plskit.numkit import (
    DimensionError,
    EllOperator,
    active_operator,
    principal_submatrix,
)
from plskit.pls import _step

# runs a test on both solvers; the restart loop they share (its entry
# test, budget, stall exit and NaN rule) must hold for either recurrence
SOLVERS = pytest.mark.parametrize("solve", [cg_solve, bicgstab_solve],
                                  ids=["cg", "bicgstab"])


def test_identity_converges_within_one_iteration():
    op = csr_from_dense(np.eye(5))
    b = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    x, stats = bicgstab_solve(op, b)
    assert np.allclose(x, b)
    assert stats.converged
    assert stats.iterations <= 1


def test_diagonal_inversion():
    op = csr_from_dense(np.diag([2.0, 4.0]))
    x, stats = bicgstab_solve(op, np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0])
    assert stats.converged


def test_upper_triangular_two_by_two():
    op = csr_from_dense(np.array([[2.0, 1.0], [0.0, 1.0]]))
    x, _ = bicgstab_solve(op, np.array([3.0, 1.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_options_validation():
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            KrylovOptions(rel_tol=tol)
        with pytest.raises(ValueError):
            KrylovOptions(abs_tol=tol)
    with pytest.raises(ValueError):
        KrylovOptions(max_iters=0)


def test_random_nonsymmetric_system_meets_residual_contract():
    rng = np.random.default_rng(7)
    n = 40
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)
    opts = KrylovOptions()
    x, stats = bicgstab_solve(csr_from_dense(a), b, opts=opts)
    assert stats.converged
    gate = opts.rel_tol * np.linalg.norm(b) + opts.abs_tol
    assert stats.final_residual_norm <= gate
    assert np.linalg.norm(b - a @ x) <= gate
    assert np.allclose(x, np.linalg.solve(a, b))


class _CountingOperator:
    """Wraps a matrix and counts its products."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.matvecs = 0

    def matvec(self, x):
        self.matvecs += 1
        return self.matrix.matvec(x)

    def diagonal(self):
        return self.matrix.diagonal()


def test_bicgstab_counts_its_products():
    # the entry test's residual starts the first run: one product for it,
    # two per full iteration (7), one for the 8th, which meets the
    # tolerance at its half step, and one for the true residual, 17 in all
    rng = np.random.default_rng(7)
    n = 40
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)
    op = _CountingOperator(csr_from_dense(a))
    x, stats = bicgstab_solve(op, b)
    assert stats.converged and not stats.breakdown
    assert stats.iterations == 8
    assert op.matvecs == 17
    assert np.linalg.norm(b - a @ x) == pytest.approx(stats.final_residual_norm,
                                                       rel=1e-12)


def test_jacobi_handles_badly_scaled_columns():
    rng = np.random.default_rng(8)
    n = 30
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    a[:, : n // 2] *= 1.0e6  # column scale spread like that of (I - P + T P)
    b = rng.normal(size=n)
    opts = KrylovOptions()
    x, stats = bicgstab_solve(csr_from_dense(a), b, opts=opts)
    assert stats.converged
    assert np.linalg.norm(b - a @ x) <= opts.rel_tol * np.linalg.norm(b)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "nonsymmetric"])
@pytest.mark.parametrize("kind", [ELLIPTIC, PARABOLIC])
def test_reduced_step_matches_dense_solve(kind, symmetric):
    # one outer step solved on the active set equals the dense solve of
    # (I - P + T P) x = b or (I + T P) x = b over all n unknowns
    rng = np.random.default_rng(10)
    n = 20
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.3)
    if symmetric:
        a = a + a.T
    a += 2.0 * n * np.eye(n)
    t = csr_from_dense(a)
    assert t.is_symmetric() == symmetric
    inner = cg_solve if symmetric else bicgstab_solve
    opts = KrylovOptions(abs_tol=1e-12 * np.sqrt(n))
    masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
    masks += [rng.random(n) < q for q in (0.2, 0.5, 0.8)]
    for mask in masks:
        p = np.diag(mask.astype(float))
        dense = np.eye(n) + a @ p
        if kind == ELLIPTIC:
            dense -= p
        b = rng.normal(size=n)
        x, _, stats = _step(t, b, kind, mask, rng.normal(size=n), inner, opts)
        assert stats.converged
        assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        if not mask.any():
            assert np.array_equal(x, b)


@SOLVERS
def test_solves_on_the_gathered_operator_keep_the_csr_bits(solve):
    # the gathered ELL operator runs every product of CG and Bi-CGSTAB on
    # reused buffers; every iterate, count and residual must match the
    # same solver on the plain CSR slice plus its shift
    rng = np.random.default_rng(12)
    T = obstacle.assemble_elliptic(obstacle.problem_spec(obstacle.TORSION, -10.0), 20).T
    for shift in (0.0, 1.0):
        for p in (1.0, 0.6, 0.2):
            mask = rng.random(T.n_rows) < p
            b = rng.normal(size=int(mask.sum()))
            op = active_operator(T, mask, shift)
            assert isinstance(op, EllOperator)
            x, stats = solve(op, b)
            sub = principal_submatrix(T, mask)
            x_csr, stats_csr = solve(sub.add_diagonal(shift) if shift else sub, b)
            assert stats.iterations == stats_csr.iterations > 0
            assert stats.final_residual_norm == stats_csr.final_residual_norm
            assert stats.breakdown == stats_csr.breakdown
            assert np.array_equal(x.view(np.int64), x_csr.view(np.int64))


def test_cg_matches_dense_solve_on_spd_laplacian():
    n = 50
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = np.random.default_rng(11).normal(size=n)
    opts = KrylovOptions()
    x, stats = cg_solve(csr_from_dense(a), b, opts=opts)
    assert stats.converged and not stats.breakdown
    assert stats.final_residual_norm <= opts.rel_tol * np.linalg.norm(b)
    assert np.linalg.norm(b - a @ x) <= opts.rel_tol * np.linalg.norm(b)
    assert np.allclose(x, np.linalg.solve(a, b))


def test_cg_confirms_convergence_on_the_true_residual():
    # at this tolerance the recurrence residual drops below tol before the
    # true residual does; the solver must restart rather than stop there
    n = 100
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = np.random.default_rng(0).normal(size=n)
    opts = KrylovOptions(rel_tol=1e-13)
    x, stats = cg_solve(csr_from_dense(a), b, opts=opts)
    true_res = np.linalg.norm(b - csr_from_dense(a).matvec(x))
    assert stats.converged
    assert stats.final_residual_norm == true_res
    assert true_res <= opts.rel_tol * np.linalg.norm(b)


@SOLVERS
def test_warm_start_at_the_solution_costs_nothing(solve):
    op = csr_from_dense(np.array([[4.0, -1.0], [-1.0, 2.0]]))
    x0 = np.array([1.0, 1.0])
    x, stats = solve(op, np.array([3.0, 1.0]), x0=x0)
    assert stats == KrylovStats(0, 0.0, True, False)
    assert np.array_equal(x, x0) and x is not x0


@SOLVERS
def test_spent_budget_carries_best_iterate(solve):
    n = 40
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = np.ones(n)
    with pytest.raises(NotConverged, match="within 3 iterations$") as err:
        solve(csr_from_dense(a), b, opts=KrylovOptions(max_iters=3))
    stats = err.value.stats
    assert err.value.x.shape == (n,)
    assert stats.iterations == 3
    assert not stats.converged
    # the carried iterate is the best one checked, and its residual is true
    assert np.linalg.norm(b - a @ err.value.x) == pytest.approx(
        stats.final_residual_norm
    )
    assert stats.final_residual_norm <= np.linalg.norm(b)


@SOLVERS
@pytest.mark.parametrize("b, x0", [
    ([1.0, 1.0, 2.0], [1.0]),
    ([1.0, 1.0, 2.0], [1.0, 1.0, 2.0, 0.0]),
    ([1.0, 1.0], None),
    ([[1.0, 1.0, 2.0]], None),
], ids=["x0-short", "x0-long", "b-short", "b-2d"])
def test_wrong_length_operands_are_refused_before_any_product(solve, b, x0):
    # a one-entry x0 would broadcast over the product's vector and pass
    # the entry test; every wrong shape is refused before a product
    op = _CountingOperator(path_laplacian(3).add_diagonal(1.0))
    with pytest.raises(DimensionError, match="operator is 3 x 3"):
        solve(op, b, x0=x0)
    assert op.matvecs == 0


@pytest.mark.parametrize("scaling", [None, "jacobi"])
def test_cg_indefinite_operator_raises_breakdown(scaling):
    # None: a unit diagonal makes the Jacobi step the identity, so CG runs
    # unscaled and meets the negative curvature p^T A p = -2; "jacobi":
    # diag(1, -1) flips the sign of z, and r^T z = 0 on the first step
    if scaling is None:
        a, b = np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, -1.0])
    else:
        a, b = np.diag([1.0, -1.0]), np.array([1.0, 1.0])
    op = csr_from_dense(a)
    with pytest.raises(Breakdown) as err:
        cg_solve(op, b)
    assert err.value.stats.breakdown
    assert err.value.x.shape == (2,)


def test_singular_consistent_system_converges():
    # Path-graph Laplacian with b orthogonal to the all-ones null vector.
    n = 9
    lap = path_laplacian(n)
    b = np.zeros(n)
    b[0], b[-1] = 1.0, -1.0
    x, stats = bicgstab_solve(lap, b, opts=KrylovOptions(rel_tol=1e-10))
    assert stats.converged
    assert np.linalg.norm(b - lap.to_dense() @ x) <= 1e-10 * np.linalg.norm(b)


def test_spd_laplacian_converges_with_defaults():
    # 1-d Dirichlet Laplacian, stiffer than anything in the unit suite.
    n = 100
    diag = 2.0 * np.eye(n)
    off = np.eye(n, k=1) + np.eye(n, k=-1)
    a = diag - off
    b = np.ones(n)
    x, stats = bicgstab_solve(csr_from_dense(a), b)
    assert stats.converged
    assert np.allclose(x, np.linalg.solve(a, b))


@SOLVERS
def test_stops_when_restarts_stall(solve):
    # below the attainable accuracy every restart from the true residual
    # ends after an iteration or so without a new best residual; two such
    # restarts in a row end the solve instead of the 10 n budget
    n = 100
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = np.random.default_rng(0).standard_normal(n)
    with pytest.raises(NotConverged, match="stalled") as err:
        solve(csr_from_dense(a), b, opts=KrylovOptions(rel_tol=1e-14))
    stats = err.value.stats
    assert stats.iterations <= 2 * n
    assert not stats.converged
    x = err.value.x
    assert np.linalg.norm(b - a @ x) == pytest.approx(stats.final_residual_norm, rel=1e-12)
    assert stats.final_residual_norm <= 1e-12 * np.linalg.norm(b)


def test_bicgstab_restarts_past_zero_pivots_on_node_deletion_systems():
    # Jacobi-Bi-CGSTAB from zero on matprops' node-deletion systems
    # T_{-0,-0} w = -T_{-0,0} of random t2 matrices: some runs end at an
    # exact zero pivot, the restart from the true residual carries on, and
    # every solve converges to the null vector
    rng = np.random.default_rng(2)
    opts = KrylovOptions(rel_tol=1e-6)
    broke = 0
    for _ in range(300):
        t, w = random_t2(rng, int(rng.integers(2, 40)))
        mask = np.arange(t.n_rows) > 0
        rhs = -t.to_dense()[1:, 0]
        x, stats = bicgstab_solve(active_operator(t, mask), rhs, opts=opts)
        broke += stats.breakdown
        assert np.allclose(x, w[1:] / w[0], rtol=1e-4)
    assert broke >= 1


@SOLVERS
def test_a_nan_start_is_never_converged(solve):
    # a NaN residual fails `res <= tol`, so the solve runs and gives up; it
    # must not report the NaN start as converged
    op = csr_from_dense(np.array([[4.0, -1.0], [-1.0, 2.0]]))
    with pytest.raises((NotConverged, Breakdown)) as err:
        solve(op, np.array([3.0, 1.0]), x0=np.array([np.nan, 0.0]))
    assert not err.value.stats.converged
    assert np.isnan(err.value.stats.final_residual_norm)
