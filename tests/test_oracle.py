import numpy as np
import pytest
from helpers import (
    csr_from_dense,
    irreducible_m_matrices,
    irreducible_m_matrix,
    path_laplacian,
    random_symmetric_t1,
    random_t1,
    random_t2,
)
from hypothesis import event, given, settings
from hypothesis import strategies as st

from plskit import (
    CONVERGED,
    PARABOLIC,
    csr_from_triplets,
    enumerate_solutions,
    residual_nonsmooth,
    solve_elliptic_pls,
    solve_parabolic_pls,
    solve_shifted,
    spmv,
)
from plskit.numkit import DimensionError
from plskit.oracle import _CHUNK, Family, TooLarge, _on_family
from plskit.pls import MAX_PLUS_TMIN, MIN_PLUS_TMAX, NO_SOLUTION_CERTIFIED

T22 = np.array([[2.0, -1.0], [-1.0, 2.0]])
SING = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_unique_solution_is_found_by_enumeration():
    res = enumerate_solutions(csr_from_dense(T22), np.array([1.0, -1.0]))
    assert res.patterns_tested == 4
    assert len(res.point_solutions) == 1
    assert len(res.families) == 0
    assert np.allclose(res.point_solutions[0], [0.5, -0.5])


def test_singular_consistent_pattern_yields_family():
    res = enumerate_solutions(csr_from_dense(SING), np.array([1.0, -1.0]))
    assert len(res.point_solutions) == 0
    assert len(res.families) == 1
    fam = res.families[0]
    assert np.allclose(fam.base, [1.0, 0.0])
    assert np.allclose(fam.direction, [1.0, 1.0])
    assert fam.alpha_min == 0.0
    assert fam.alpha_max == np.inf
    for alpha in (0.0, 0.5, 2.0):
        member = fam.base + alpha * fam.direction
        assert residual_nonsmooth(csr_from_dense(SING), [1.0, -1.0], member) <= 1e-10


def test_inconsistent_system_has_empty_result():
    res = enumerate_solutions(csr_from_dense(SING), np.array([1.0, 1.0]))
    assert res.point_solutions == []
    assert res.families == []
    assert res.patterns_tested == 4


def test_parabolic_enumeration():
    res = enumerate_solutions(
        csr_from_dense(T22), np.array([1.0, -1.0]), kind=PARABOLIC
    )
    assert len(res.point_solutions) == 1
    assert np.allclose(res.point_solutions[0], [1.0 / 3.0, -2.0 / 3.0])


def test_enumeration_guards():
    big = csr_from_dense(np.eye(21))
    with pytest.raises(TooLarge):
        enumerate_solutions(big, np.ones(21))
    with pytest.raises(DimensionError):
        enumerate_solutions(csr_from_dense(T22), np.ones(3))
    with pytest.raises(ValueError):
        enumerate_solutions(csr_from_dense(T22), np.ones(2), kind="weird")


def test_every_pattern_solution_is_kept_in_code_order():
    # T = -I with b = -1 has one solution per mask: x = +1 on the mask and
    # -1 off it; at n = 13 the 8192 of them fill two chunks
    for n in (2, 13):
        res = enumerate_solutions(csr_from_dense(-np.eye(n)), -np.ones(n))
        assert len(res.point_solutions) == 1 << n
        codes = np.arange(1 << n)[:, None] >> np.arange(n) & 1
        assert np.array_equal(np.array(res.point_solutions), 2.0 * codes - 1.0)


def test_ill_conditioned_regular_pattern_is_solved():
    # T = L + eps I is a T1 matrix with T 1 = eps 1, so x = 1 / eps solves
    # the full mask, whose condition number is about 4 / eps
    eps = 1e-8
    t = csr_from_dense(path_laplacian(4).to_dense() + eps * np.eye(4))
    res = enumerate_solutions(t, np.ones(4))
    assert len(res.point_solutions) == 1 and not res.families
    assert np.allclose(res.point_solutions[0], np.full(4, 1.0 / eps), rtol=1e-6)


def test_empty_system_has_the_empty_point_solution():
    empty = csr_from_triplets([], 0, 0)
    res = enumerate_solutions(empty, np.zeros(0))
    assert res.patterns_tested == 1
    assert len(res.point_solutions) == 1 and res.point_solutions[0].shape == (0,)
    assert res.families == []
    sol = solve_elliptic_pls(empty, np.zeros(0))
    assert sol.status == CONVERGED and sol.x.shape == (0,)


def _assert_oracle_agrees_with_solvers(t, b):
    res = enumerate_solutions(t, b)
    assert len(res.point_solutions) == 1
    assert len(res.families) == 0
    x_ref = res.point_solutions[0]
    sol = solve_elliptic_pls(t, b)
    err = np.abs(sol.x - x_ref).max()
    assert err <= 1e-9 * max(np.abs(x_ref).max(), 1.0)

    res_p = enumerate_solutions(t, b, kind=PARABOLIC)
    assert len(res_p.point_solutions) == 1
    sol_p = solve_parabolic_pls(t, b)
    ref_p = res_p.point_solutions[0]
    assert np.abs(sol_p.x - ref_p).max() <= 1e-9 * max(np.abs(ref_p).max(), 1.0)


def test_random_instances_agree_with_iterative_solver():
    rng = np.random.default_rng(32)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        _assert_oracle_agrees_with_solvers(random_t1(rng, n), rng.normal(size=n))
    # 2^13 masks span two chunks of the enumeration
    assert 1 << 13 > _CHUNK
    _assert_oracle_agrees_with_solvers(random_t1(rng, 13), rng.normal(size=13))


def test_path_laplacian_family_matches_direction_of_ones():
    # the only singular pattern is the full mask, the last code; at n = 13
    # it sits in the second chunk of the enumeration
    for n in (3, 13):
        lap = path_laplacian(n)
        b = np.linspace(1.0, -1.0, n)  # orthogonal to the all-ones left null
        res = enumerate_solutions(lap, b)
        assert len(res.families) >= 1
        fam = res.families[0]
        assert np.allclose(fam.direction / fam.direction.max(), np.ones(n))
        for alpha in (0.0, 1.0, 3.0):
            member = fam.base + alpha * fam.direction
            assert residual_nonsmooth(lap, b, member) <= 1e-9


def test_shifted_solves_agree_with_the_oracle():
    # with z = x - xi and b2 = b - xi - T xi, MinPlusTMax is the elliptic
    # system in z with right-hand side b2, and MaxPlusTMin is the elliptic
    # system in -z with right-hand side -b2; the nonsymmetric T1 matrices
    # take the Bi-CGSTAB inner path and the symmetric ones the CG path
    rng = np.random.default_rng(33)
    for build in (random_t1, random_symmetric_t1):
        for _ in range(20):
            n = int(rng.integers(2, 14))
            t = build(rng, n)
            b = rng.normal(size=n)
            xi = rng.normal(size=n)
            b2 = b - xi - spmv(t, xi)
            for form, sign in ((MIN_PLUS_TMAX, 1.0), (MAX_PLUS_TMIN, -1.0)):
                ref = enumerate_solutions(t, sign * b2)
                assert len(ref.point_solutions) == 1 and not ref.families
                x_ref = xi + sign * ref.point_solutions[0]
                sol = solve_shifted(t, b, xi, form)
                assert sol.status == CONVERGED
                err = np.abs(sol.x - x_ref).max()
                assert err <= 1e-9 * max(np.abs(x_ref).max(), 1.0)


@settings(max_examples=60, deadline=None)
@given(irreducible_m_matrices(), st.integers(0, 2**32 - 1))
def test_iteration_on_irreducible_m_matrices_matches_the_oracle(t, seed):
    # the convergence theorem on M-matrices that need not be diagonally
    # dominant: every mask contains the one before, K <= n + 1, and x is
    # the unique solution the oracle finds, for both forms and both
    # shifted forms (which reduce to the elliptic form as above)
    n = t.n_rows
    symmetric = t.is_symmetric()
    event("dominant" if np.all(spmv(t, np.ones(n)) >= 0.0) else "not dominant")
    rng = np.random.default_rng(seed)
    b = rng.normal(size=n)
    xi = rng.normal(size=n)
    b2 = b - xi - spmv(t, xi)
    runs = [
        (lambda: solve_elliptic_pls(t, b), enumerate_solutions(t, b), 0.0, 1.0),
        (lambda: solve_parabolic_pls(t, b),
         enumerate_solutions(t, b, kind=PARABOLIC), 0.0, 1.0),
        (lambda: solve_shifted(t, b, xi, MIN_PLUS_TMAX), enumerate_solutions(t, b2), xi, 1.0),
        (lambda: solve_shifted(t, b, xi, MAX_PLUS_TMIN), enumerate_solutions(t, -b2), xi, -1.0),
    ]
    for solve, ref, shift, sign in runs:
        assert len(ref.point_solutions) == 1 and not ref.families
        x_ref = shift + sign * ref.point_solutions[0]
        sol = solve()
        assert sol.status == CONVERGED
        assert sol.report.outer_iterations <= n + 1
        assert not any(sol.report.left_counts)
        err = np.abs(sol.x - x_ref).max()
        assert err <= 1e-9 * max(np.abs(x_ref).max(), 1.0)
        event("symmetric" if symmetric else "nonsymmetric")


@pytest.mark.parametrize("n, f, density, seed, b_seed", [
    # the third Picard step's inner solve, on a 3 x 3 T_AA, is one where a
    # two-sided Lanczos method (QMR) breaks down without progress
    (9, 1.0114876842883445, 0.2, 2406356080, 3449267642),
    # inner systems on which QMR crept toward the tolerance and spent its
    # 10 n budget, so the solve raised NotConverged
    (6, 1.0408760553893726, 0.2, 4177678384, 4044585678),
    (8, 1.0171147865758305, 0.2, 1359804328, 2049848206),
    (3, 1.1417397068762085, 0.2, 794520061, 3652108591),
], ids=["lanczos-breakdown", "creep-6", "creep-8", "creep-3"])
def test_nonsymmetric_inner_solves_reach_the_oracle(n, f, density, seed, b_seed):
    # draws of the suite above, found by scanning irreducible_m_matrices
    # through its four solves; the elliptic solve must converge to the
    # oracle's solution
    t = irreducible_m_matrix(n, False, f, density, seed)
    b = np.random.default_rng(b_seed).normal(size=n)
    sol = solve_elliptic_pls(t, b)
    assert sol.status == CONVERGED
    x_ref = enumerate_solutions(t, b).point_solutions[0]
    assert np.abs(sol.x - x_ref).max() <= 1e-9 * max(np.abs(x_ref).max(), 1.0)


def _left_null(t):
    """The positive left null vector of a singular irreducible M-matrix."""
    u = np.linalg.svd(t.to_dense())[0][:, -1]
    return u / u.sum()


@pytest.mark.parametrize("symmetric", [False, True],
                         ids=["nonsymmetric-bicgstab", "symmetric-cg"])
def test_trichotomy_on_random_t2_systems_matches_the_oracle(symmetric):
    # with v > 0 the left null vector of T, v^T b > 0 leaves no solution,
    # v^T b < 0 one, and v^T b = 0 the family x + alpha w. Every member of
    # that family is >= 0 (v^T min{0,x} = v^T b = 0), and the iteration
    # stops at its least member, whose smallest entry is 0 in exact
    # arithmetic. Where that entry rounds to +-0 or above, the last Picard
    # step solves the consistent singular system on the full mask: by CG
    # when T is symmetric, by Bi-CGSTAB otherwise
    rng = np.random.default_rng(77 + symmetric)
    full = 0
    for i in range(45):
        n = 2 + i % 9
        t, w = random_t2(rng, n, symmetric=symmetric)
        assert t.is_symmetric() == symmetric
        v = _left_null(t)
        r = rng.normal(size=n)
        sign = (-1.0, 0.0, 1.0)[i % 3]
        b = r - (v @ r - sign * np.linalg.norm(v) * np.linalg.norm(r)) / (v @ v) * v
        sol = solve_elliptic_pls(t, b, t2_data=(v, w))
        ref = enumerate_solutions(t, b)
        if sign > 0.0:
            assert sol.status == NO_SOLUTION_CERTIFIED, i
            assert sol.report.outer_iterations == 0
            assert not ref.point_solutions and not ref.families, i
            continue
        assert sol.status == CONVERGED, i
        if sign < 0.0:
            assert len(ref.point_solutions) == 1 and not ref.families, i
            x_ref = ref.point_solutions[0]
            assert np.abs(sol.x - x_ref).max() <= 1e-9 * max(np.abs(x_ref).max(), 1.0)
            continue
        assert np.array_equal(sol.report.family_direction, w)
        assert not ref.point_solutions and ref.families, i
        assert any(_on_family(sol.x, fam) for fam in ref.families), i
        full += sol.report.active_counts[-1] == n
    assert full >= 5  # of the 15 family systems


def test_path_laplacian_solution_counts_are_exact():
    # the trichotomy on the singular path Laplacian: v^T b < 0 gives one
    # point, v^T b = 0 one family and no point, v^T b > 0 nothing. Among
    # the family systems of this seed some regular pattern next to the
    # base point solves to it with an entry rounded to -1e-16, which
    # reproduces its mask; that point must not be reported a second time.
    rng = np.random.default_rng(0)
    for i in range(300):
        n = 2 + i % 9
        r = rng.normal(size=n)
        vtb = (-1.0, 0.0, 1.0)[i % 3]
        res = enumerate_solutions(path_laplacian(n), r - (r.sum() - vtb) / n)
        expected = {-1.0: (1, 0), 0.0: (0, 1), 1.0: (0, 0)}[vtb]
        assert (len(res.point_solutions), len(res.families)) == expected, i


def test_family_membership_tolerance():
    # the enumeration's own test is tight (1e-9); plskit oracle passes a
    # solver iterate at 1e-6 (1 + max |x|). An alpha past the range is
    # clamped to it, so a point beyond the base is off the family either way
    fam = Family(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 0.0, np.inf)
    assert _on_family(np.array([3.0, 2.0]), fam)
    near = np.array([3.0, 2.0 + 1e-7])
    assert not _on_family(near, fam)
    assert _on_family(near, fam, 1e-6)
    assert not _on_family(np.array([0.5, -0.5]), fam, 1e-6)
