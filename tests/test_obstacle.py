import csv
import pathlib
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from helpers import loop_assembly

from plskit import (
    PARABOLIC,
    PlsProblem,
    check_t1,
    check_t2,
    lcp_check,
    solve_parabolic_pls,
    spmv,
)
from plskit import obstacle as obs
from plskit import pls
from plskit.krylov import KrylovStats
from plskit.pls import (
    CONVERGED,
    NO_SOLUTION_CERTIFIED,
    IterationReport,
    PlsSolution,
    SolverOptions,
)


def test_problem_specs_cover_the_four_benchmarks():
    tent = obs.problem_spec("tent")
    assert tent.domain == (-1.0, 1.0, -2.0, 2.0)
    assert tent.bc_kind == obs.DIRICHLET and tent.bc_value == 0.5
    assert tent.f(0.3, 0.7) == 0.0
    assert tent.psi(0.0, 0.0) == 1.0
    assert tent.psi(0.5, 1.8) == pytest.approx(0.2)

    tn = obs.problem_spec("tent-neumann")
    assert tn.bc_kind == obs.NEUMANN
    assert tn.f(0.1, 0.2) == -1.0
    assert tn.flux(1.0, 0.5) == 0.0

    tor = obs.problem_spec("torsion")
    assert tor.domain == (0.0, 1.0, 0.0, 1.0)
    assert tor.c == -20.0  # default load
    assert tor.f(0.5, 0.5) == -20.0
    assert tor.psi(0.25, 0.5) == -0.25  # distance to the boundary, negated

    torn = obs.problem_spec("torsion-neumann", c=-5.0)
    assert torn.flux(0.0, 0.5) == 1.0
    assert torn.f(0.9, 0.9) == -5.0


def test_problem_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        obs.problem_spec("torsion", c=1.0)
    with pytest.raises(ValueError):
        obs.problem_spec("torsion", c=0.0)
    for c in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="finite and negative"):
            obs.problem_spec("torsion-neumann", c=c)
    with pytest.raises(ValueError):
        obs.problem_spec("drum")


def test_grid_geometry():
    d = obs.assemble_elliptic(obs.problem_spec("tent"), 25)
    assert d.grid.n == 625
    assert d.grid.dx == pytest.approx(2.0 / 26.0)
    assert d.grid.dy == pytest.approx(4.0 / 26.0)
    assert 2.0 * d.grid.dx == pytest.approx(d.grid.dy)
    x, y = d.grid.node_xy(0)
    assert (x, y) == pytest.approx((-1.0 + d.grid.dx, -2.0 + d.grid.dy))

    t = obs.assemble_elliptic(obs.problem_spec("torsion"), 9)
    assert t.grid.dx == t.grid.dy == pytest.approx(0.1)


def test_assembly_guards():
    with pytest.raises(obs.GridError):
        obs.assemble_elliptic(obs.problem_spec("tent"), 1)
    with pytest.raises(obs.GridError):
        obs.run_parabolic(obs.problem_spec("tent"), 5, tau=1.0, nu=0)
    with pytest.raises(obs.GridError):
        obs.run_parabolic(obs.problem_spec("tent"), 5, tau=-1.0, nu=2)
    for tau in (np.inf, np.nan):
        with pytest.raises(obs.GridError, match="positive and finite"):
            obs.run_parabolic(obs.problem_spec("tent"), 5, tau=tau, nu=2)
    # an infinite load would pass the exact-zero rule as 0, since its
    # rounding scale is infinite too; every datum is checked before b
    for change in ({"f": lambda x, y: -np.inf},
                   {"f": lambda x, y: np.where(x > 0.5, np.nan, -20.0)},
                   {"psi": lambda x, y: np.where(y > 0.5, np.inf, 0.0)},
                   {"bc_kind": obs.NEUMANN, "flux": lambda x, y: np.inf},
                   {"bc_kind": obs.NEUMANN, "flux": lambda x, y: 1e308},
                   {"f": lambda x, y: np.inf, "bc_value": -np.inf},
                   {"bc_value": np.nan}):
        spec = replace(obs.problem_spec("torsion", -20.0), **change)
        with pytest.raises(ValueError, match="must be finite at every node"):
            obs.assemble_elliptic(spec, 5)


def test_dirichlet_stencil_and_boundary_fold():
    # tent, N=3: dx=0.5, dy=1 -> cx=4, cy=1, diagonal 10
    d = obs.assemble_elliptic(obs.problem_spec("tent"), 3)
    dense = d.T.to_dense()
    assert dense[4, 4] == pytest.approx(10.0)
    assert dense[4, 3] == dense[4, 5] == pytest.approx(-4.0)
    assert dense[4, 1] == dense[4, 7] == pytest.approx(-1.0)
    # corner node misses one x and one y neighbor; both fold 0.5 into f
    assert d.f_vec[0] == pytest.approx(4.0 * 0.5 + 1.0 * 0.5)
    assert d.f_vec[4] == 0.0
    assert np.allclose(d.b, d.f_vec - dense @ d.psi_vec)
    assert d.t2_data is None


def _exact_tent_b(n):
    """b = f - T psi of the tent's 5-point assembly in rational arithmetic,
    with the Dirichlet value folded into f as assemble_elliptic does."""
    spec = obs.problem_spec("tent")
    x0, x1, y0, y1 = (Fraction(v) for v in spec.domain)
    dx, dy = (x1 - x0) / (n + 1), (y1 - y0) / (n + 1)
    cx, cy = 1 / dx**2, 1 / dy**2
    bc = Fraction(spec.bc_value)

    def psi(i, j):  # i, j count from the boundary ring
        return min(1 - abs(x0 + i * dx), 2 - abs(y0 + j * dy))

    b = []
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            f = Fraction(0)
            t_psi = (2 * cx + 2 * cy) * psi(i, j)
            for ii, jj, c in ((i - 1, j, cx), (i + 1, j, cx),
                              (i, j - 1, cy), (i, j + 1, cy)):
                if 1 <= ii <= n and 1 <= jj <= n:
                    t_psi -= c * psi(ii, jj)
                else:
                    f += c * bc
            b.append(f - t_psi)
    return b


def test_tent_rhs_zeros_match_exact_arithmetic():
    d = obs.assemble_elliptic(obs.problem_spec("tent"), 25)
    exact = _exact_tent_b(25)
    exact_zero = np.array([v == 0 for v in exact])
    assert exact_zero.sum() == 458
    assert np.array_equal(d.b == 0.0, exact_zero)
    exact_sign = np.array([(v > 0) - (v < 0) for v in exact])
    assert np.array_equal(np.sign(d.b), exact_sign)


@pytest.mark.parametrize("name,c", [("tent-neumann", None), ("torsion", -5.0),
                                    ("torsion", -20.0), ("torsion-neumann", -5.0),
                                    ("torsion-neumann", -20.0)])
def test_rhs_zeroing_keeps_true_nonzero_entries(name, c):
    d = obs.assemble_elliptic(obs.problem_spec(name, c), 25)
    assert np.array_equal(d.b, d.f_vec - spmv(d.T, d.psi_vec))


def test_assembled_matrix_is_symmetric():
    for name in ("tent", "tent-neumann", "torsion", "torsion-neumann"):
        d = obs.assemble_elliptic(obs.problem_spec(name), 6)
        dense = d.T.to_dense()
        assert np.array_equal(dense, dense.T)


def test_neumann_matrix_has_flat_null_vectors():
    d = obs.assemble_elliptic(obs.problem_spec("tent-neumann"), 6)
    ones = np.ones(d.grid.n)
    tnorm = d.T.norm_inf()
    assert np.abs(d.T.matvec(ones)).max() <= 1e-10 * tnorm
    assert np.abs(spmv(d.T.transpose(), ones)).max() <= 1e-10 * tnorm
    assert d.t2_data is not None
    v, w = d.t2_data
    assert np.array_equal(v, ones) and np.array_equal(w, ones)


def test_dirichlet_matrices_satisfy_t1():
    for name, nn in (("tent", 5), ("torsion", 10)):
        d = obs.assemble_elliptic(obs.problem_spec(name), nn)
        assert check_t1(d.T).t1_verdict == "Proven"


def test_neumann_matrix_satisfies_t2_and_shifted_t1():
    d = obs.assemble_elliptic(obs.problem_spec("tent-neumann"), 5)
    rep = check_t2(d.T)
    assert rep.t2_verdict == "Proven"
    for vec in (rep.left_null, rep.right_null):
        assert np.allclose(vec / vec[0], np.ones(d.grid.n), atol=1e-7)
    # every table size, on both sides of the dense-solve limit
    for name in ("tent-neumann", "torsion-neumann"):
        for n in (25, 50, 75, 100, 200):
            rep = check_t2(obs.assemble_elliptic(obs.problem_spec(name), n).T)
            assert rep.t2_verdict == "Proven", (name, n, rep.notes)
            assert rep.left_null.min() > 0.0 and rep.right_null.min() > 0.0
    # the backward Euler matrix I + dt T is an M-matrix again
    stepped = d.T.scaled(1.0e4 / 20.0).add_diagonal(1.0)
    assert check_t1(stepped).t1_verdict == "Proven"


def test_neumann_load_is_compatible():
    d = obs.assemble_elliptic(obs.problem_spec("tent-neumann"), 5)
    assert d.b.sum() == pytest.approx(-25.0)  # v^T b < 0: unique solution


def test_tent_membrane_solution():
    sol = obs.solve_obstacle(obs.problem_spec("tent"), 25)
    assert sol.result.status == CONVERGED
    d = sol.disc
    assert np.all(sol.u >= d.psi_vec - 1e-8)
    assert sol.u.max() <= 1.0 + 1e-8
    assert lcp_check(d.T, d.b, sol.result.y).passed
    assert sol.coincidence.sum() > 0  # the membrane touches the tent pole
    assert np.array_equal(sol.coincidence, obs.coincidence_set(sol.u, d.psi_vec))


def test_tent_neumann_solution_is_unique_regime():
    sol = obs.solve_obstacle(obs.problem_spec("tent-neumann"), 25)
    assert sol.result.status == CONVERGED
    assert sol.result.report.solvability.verdict == "Unique"
    assert abs(sol.result.report.outer_iterations - 12) <= 2


def test_incompatible_neumann_load_is_certified():
    # c = -1 breaks the compatibility integral: no solution exists
    sol = obs.solve_obstacle(obs.problem_spec("torsion-neumann", c=-1.0), 5)
    assert sol.result.status == NO_SOLUTION_CERTIFIED


def test_torsion_iteration_count_is_stable():
    sol = obs.solve_obstacle(obs.problem_spec("torsion", c=-20.0), 25)
    assert sol.result.status == CONVERGED
    assert sol.result.report.outer_iterations == 4


def test_torsion_load_that_broke_full_space_qmr_converges():
    # QMR over all n unknowns of the masked operator hit a Lanczos
    # breakdown on this load; the reduced symmetric step does not
    sol = obs.solve_obstacle(obs.problem_spec("torsion", c=-17.251034037566676), 50)
    assert sol.result.status == CONVERGED
    assert lcp_check(sol.disc.T, sol.disc.b, sol.result.y).passed


def test_parabolic_run_shape_and_stationary_limit():
    spec = obs.problem_spec("tent")
    run = obs.run_parabolic(spec, 5, tau=1.0e4, nu=10)
    assert run.dt == pytest.approx(1.0e3)
    assert len(run.snapshots) == 11
    assert len(run.step_results) == 10
    assert np.array_equal(run.snapshots[0], run.disc.psi_vec)
    still = obs.solve_obstacle(spec, 5)
    assert np.abs(run.snapshots[-1] - still.u).max() <= 1e-10


@pytest.mark.parametrize("name, c, tau", [
    ("tent", None, 1.0e4), ("torsion", -5.0, 5.0), ("torsion", -20.0, 5.0),
])
def test_parabolic_trail_keeps_every_step_and_cuts_the_inner_work(name, c, tau):
    # run_parabolic starts each inner solve from the last time step's
    # solution on the same mask; every step must match a solve of its own
    # system without a trail in status, K and active counts, agree in x
    # to a relative 1e-9, and pass lcp_check, at half the inner work or less
    run = obs.run_parabolic(obs.problem_spec(name, c), 25, tau, 20)
    T_step = run.disc.T.scaled(run.dt)
    warm = cold = 0
    for step, result in enumerate(run.step_results, start=1):
        b_step = (run.snapshots[step - 1] - run.disc.psi_vec) + run.dt * run.disc.b
        alone = solve_parabolic_pls(PlsProblem(T_step, b_step, kind=PARABOLIC),
                                    SolverOptions())
        assert result.status == alone.status == CONVERGED
        assert result.report.outer_iterations == alone.report.outer_iterations
        assert result.report.active_counts == alone.report.active_counts
        scale = max(np.abs(alone.x).max(), 1.0)
        assert np.abs(result.x - alone.x).max() <= 1e-9 * scale
        assert lcp_check(T_step, b_step, result.y, kind=PARABOLIC).passed
        warm += sum(st.iterations for st in result.report.inner_stats)
        cold += sum(st.iterations for st in alone.report.inner_stats)
    assert 2 * warm <= cold


def test_parabolic_trail_ignores_a_pair_on_another_mask():
    # a trail pair whose mask differs from the step's is not used: the
    # solve keeps the bits of a solve without a trail, and ends with its
    # own pairs in the trail
    disc = obs.assemble_elliptic(obs.problem_spec("torsion", -10.0), 15)
    problem = PlsProblem(disc.T.scaled(0.25), 0.25 * disc.b, kind=PARABOLIC)
    opts = SolverOptions()
    alone = solve_parabolic_pls(problem, opts)
    trail = []
    first = solve_parabolic_pls(problem, opts, trail=trail)
    assert [int(m.sum()) for m, _ in trail] == alone.report.active_counts[:-1]
    assert np.array_equal(first.x, alone.x)
    rng = np.random.default_rng(3)
    stale = [(~mask, rng.normal(size=int((~mask).sum()))) for mask, _ in trail]
    full = np.ones(disc.T.n_rows, dtype=bool)
    stale += [(full, rng.normal(size=disc.T.n_rows))]
    again = solve_parabolic_pls(problem, opts, trail=stale)
    assert np.array_equal(again.x, alone.x)
    assert again.report.inner_stats == alone.report.inner_stats
    assert len(stale) == alone.report.outer_iterations


@pytest.mark.parametrize("c, n", [(-10.0, 15), (-5.0, 25), (-20.0, 25)])
def test_parabolic_trail_from_another_matrix_only_seeds_the_solve(c, n):
    # a trail made on T seeds a solve on 2 T, whose first two masks agree
    # with it (both solves start from the empty mask and then take the
    # signs of b): the solve's own operators judge the starts, so it
    # matches a solve without a trail in status, K and active counts,
    # agrees in x to a relative 1e-9, passes lcp_check, and ends with
    # this solve's entries in the trail
    disc = obs.assemble_elliptic(obs.problem_spec("torsion", c), n)
    T = disc.T.scaled(0.25)
    b = 0.25 * disc.b
    trail = []
    solve_parabolic_pls(PlsProblem(T, b, kind=PARABOLIC), trail=trail)
    other = PlsProblem(T.scaled(2.0), b, kind=PARABOLIC)
    alone = solve_parabolic_pls(other)
    assert np.array_equal(trail[1][0], b >= 0.0)
    again = solve_parabolic_pls(other, trail=trail)
    assert again.status == alone.status == CONVERGED
    assert again.report.outer_iterations == alone.report.outer_iterations
    assert again.report.active_counts == alone.report.active_counts
    assert np.abs(again.x - alone.x).max() <= 1e-9 * max(np.abs(alone.x).max(), 1.0)
    assert lcp_check(other.T, b, again.y, kind=PARABOLIC).passed
    assert [int(m.sum()) for m, _ in trail] == alone.report.active_counts[:-1]


def _count_operators(monkeypatch):
    built = []
    gather = pls.active_operator

    def counting(*args, **kwargs):
        built.append(args[1])
        return gather(*args, **kwargs)

    monkeypatch.setattr(pls, "active_operator", counting)
    return built


def _count_products(monkeypatch):
    products = []
    product = pls.spmv

    def counting(*args, **kwargs):
        products.append(1)
        return product(*args, **kwargs)

    monkeypatch.setattr(pls, "spmv", counting)
    return products


def test_parabolic_run_makes_one_product_per_step_beyond_the_solves(
        monkeypatch):
    # pls's products of T over the time steps a run solves: every
    # nonempty step builds its operator, runs a solver and lifts with a
    # product, and an empty step makes none. Every step's residual takes
    # one product, except the stable step's, which the lift's product
    # serves. The copied steps after the settled one make no product,
    # build no operator and call no solver
    products = _count_products(monkeypatch)
    built = _count_operators(monkeypatch)
    after_solves = []
    solve = obs.solve_parabolic_pls

    def solving(*args, **kwargs):
        result = solve(*args, **kwargs)
        after_solves.append((len(products), len(built)))
        return result

    monkeypatch.setattr(obs, "solve_parabolic_pls", solving)
    nu = 20
    run = obs.run_parabolic(obs.problem_spec("torsion", -5.0), 25, 5.0, nu)
    solved = len(after_solves)
    assert (solved, run.replayed_steps) == (13, 7)
    assert solved + run.replayed_steps == len(run.step_results) == nu
    reports = [r.report for r in run.step_results[:solved]]
    steps = sum(r.outer_iterations for r in reports)
    nonempty = sum(count > 0 for r in reports for count in r.active_counts[:-1])
    assert all(r.status == CONVERGED for r in run.step_results)
    assert len(built) == nonempty
    assert len(products) == nonempty + steps - solved == 208
    assert after_solves[-1] == (len(products), len(built))


@pytest.mark.parametrize("name, c, products", [
    ("tent", None, 8), ("torsion", -20.0, 6), ("tent-neumann", None, 24),
])
def test_an_elliptic_solve_makes_two_products_per_step_after_the_first(
        name, c, products, monkeypatch):
    # the first step's mask is empty, so it lifts with no product; each
    # later step lifts with one, and every step but the stable one takes
    # one for its residual
    counted = _count_products(monkeypatch)
    sol = obs.solve_obstacle(obs.problem_spec(name, c), 25)
    assert sol.result.status == CONVERGED
    assert len(counted) == 2 * (sol.result.report.outer_iterations - 1) == products


def _solved_every_step(spec, n, tau, nu):
    # run_parabolic's time loop without the copy of settled steps: nu
    # solves sharing one trail
    disc = obs.assemble_elliptic(spec, n)
    dt = tau / nu
    T_step = disc.T.scaled(dt)
    u = disc.psi_vec.copy()
    snapshots = [u]
    step_results = []
    trail = []
    for _ in range(nu):
        b_step = (u - disc.psi_vec) + dt * disc.b
        result = solve_parabolic_pls(PlsProblem(T_step, b_step, kind=PARABOLIC),
                                     SolverOptions(), trail=trail)
        u = result.y + disc.psi_vec
        snapshots.append(u)
        step_results.append(result)
    return snapshots, step_results


def _step_record(result):
    rep = result.report
    return (result.x.tobytes(), result.y.tobytes(), result.status,
            rep.outer_iterations, rep.active_counts, rep.left_counts,
            [(st.iterations, st.final_residual_norm.hex(), st.converged,
              st.breakdown) for st in rep.inner_stats],
            [r.hex() for r in rep.residual_history])


@pytest.mark.parametrize("name, c, tau, nu, settles", [
    ("tent", None, 1.0e4, 20, True), ("torsion", -5.0, 5.0, 20, True),
    ("torsion", -20.0, 5.0, 20, True), ("torsion", -5.0, 0.3, 3, False),
])
def test_parabolic_copies_of_settled_steps_keep_every_bit(
        name, c, tau, nu, settles):
    # the copied steps must hold what solving every step gives, bit for
    # bit, and share no array, list or stats object with another step
    spec = obs.problem_spec(name, c)
    run = obs.run_parabolic(spec, 25, tau, nu)
    snapshots, step_results = _solved_every_step(spec, 25, tau, nu)
    assert (run.replayed_steps > 0) == settles
    assert [s.tobytes() for s in run.snapshots] == [s.tobytes() for s in snapshots]
    assert ([_step_record(r) for r in run.step_results]
            == [_step_record(r) for r in step_results])
    held = list(run.snapshots)
    for r in run.step_results:
        held += [r.x, r.y]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(held) for b in held[i + 1:])
    reports = [r.report for r in run.step_results]
    for field in ("active_counts", "left_counts", "residual_history",
                  "inner_stats"):
        assert len({id(getattr(rep, field)) for rep in reports}) == nu
    stats = [st for rep in reports for st in rep.inner_stats]
    assert len({id(st) for st in stats}) == len(stats)


def _mutable_parts(value):
    """Every array, list and dataclass object reachable from value."""
    if isinstance(value, list):
        return [value] + [part for item in value for part in _mutable_parts(item)]
    if is_dataclass(value):
        return [value] + [part for f in fields(value)
                          for part in _mutable_parts(getattr(value, f.name))]
    return [value] if isinstance(value, np.ndarray) else []


def _contents(value):
    """value as nested tuples of field names, types and bits, so that two
    copies compare equal only when they hold the same bits."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, list):
        return ("list", *map(_contents, value))
    if is_dataclass(value):
        return (type(value).__name__, *((f.name, _contents(getattr(value, f.name)))
                                        for f in fields(value)))
    return (type(value).__name__, value.hex() if isinstance(value, float) else value)


def test_settled_step_copier_copies_every_field():
    # every field of PlsSolution and of its IterationReport holds a
    # mutable object here, whatever its usual type: the copy must hold
    # the same bits in each and share no array, list or dataclass with
    # the original, so a field added later cannot be aliased silently
    def filled(i):
        return [np.array([float(i), -0.0]), [i, 0.5 * i],
                KrylovStats(i, -0.0, True, False)]

    report = IterationReport(**{f.name: filled(i)
                                for i, f in enumerate(fields(IterationReport))})
    solution = PlsSolution(**{f.name: filled(i) for i, f in enumerate(fields(PlsSolution))})
    solution.report = report
    copied = obs._fresh_copy(solution)
    assert type(copied) is PlsSolution and type(copied.report) is IterationReport
    for original, copy in ((solution, copied), (report, copied.report)):
        for f in fields(original):
            assert _contents(getattr(copy, f.name)) == _contents(getattr(original, f.name))
    originals = _mutable_parts(solution)
    copies = _mutable_parts(copied)
    assert len(copies) == len(originals)
    assert not {id(part) for part in originals} & {id(part) for part in copies}
    arrays = [a for a in originals + copies if isinstance(a, np.ndarray)]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])
    # a kind it has no rule for is refused, not shared
    for value in ({"k": [1]}, (np.zeros(1),), object()):
        with pytest.raises(TypeError):
            obs._fresh_copy(replace(solution, status=value))


def test_settled_state_test_tells_signed_zeros_apart():
    # np.array_equal calls 0.0 and -0.0 equal; a step that turns one into
    # the other has not returned its input state
    u = np.array([1.0, 0.0, -2.5])
    flipped = np.array([1.0, -0.0, -2.5])
    assert np.array_equal(u, flipped)
    assert not obs._same_bits(u, flipped)
    assert obs._same_bits(u, u.copy())


def test_refinement_shrinks_the_error_on_nested_grids():
    # interior node (i,j) of the n-grid coincides with (2i+1, 2j+1) of the
    # (2n+1)-grid; compare three torsion solves on shared nodes
    spec = obs.problem_spec("torsion", c=-10.0)
    levels = {n: obs.solve_obstacle(spec, n).u for n in (24, 49, 99)}

    def on_coarse(u_fine, n_fine, n_coarse):
        idx = 2 * np.arange(n_coarse) + 1
        return u_fine.reshape(n_fine, n_fine)[np.ix_(idx, idx)].ravel()

    e_coarse = np.abs(levels[24] - on_coarse(levels[49], 49, 24)).max()
    e_fine = np.abs(levels[49] - on_coarse(levels[99], 99, 49)).max()
    assert e_fine < e_coarse / 3.0


def test_coincidence_set_tolerance():
    u = np.array([0.0, 1e-9, 1e-3])
    psi = np.zeros(3)
    assert obs.coincidence_set(u, psi).tolist() == [True, True, False]


def test_full_grid_reconstruction_dirichlet():
    sol = obs.solve_obstacle(obs.problem_spec("tent"), 5)
    for corner in (obs.CORNER_AVERAGE, obs.CORNER_XEDGE, obs.CORNER_YEDGE):
        full = obs.full_grid_solution(sol.disc, sol.u, corner)
        assert full.shape == (7, 7)
        assert np.allclose(full[1:-1, 1:-1], sol.u.reshape(5, 5))
        # the whole ring carries the boundary datum regardless of rule
        ring = np.concatenate([full[0], full[-1], full[:, 0], full[:, -1]])
        assert np.allclose(ring, 0.5)
    with pytest.raises(ValueError):
        obs.full_grid_solution(sol.disc, sol.u, corner="nearest")


def test_full_grid_reconstruction_neumann():
    sol = obs.solve_obstacle(obs.problem_spec("torsion-neumann", c=-20.0), 5)
    d = sol.disc
    inner = sol.u.reshape(5, 5)
    fx = obs.full_grid_solution(d, sol.u, obs.CORNER_XEDGE)
    # ghost formula u_B = u_adj + h g with g = 1
    assert fx[0, 1] == pytest.approx(inner[0, 0] + d.grid.dy)
    assert fx[3, 0] == pytest.approx(inner[2, 0] + d.grid.dx)


def _varying_flux_spec():
    return obs.ObstacleSpec(
        "synthetic", (-1.0, 1.0, -2.0, 2.0), lambda x, y: 0.0,
        lambda x, y: 0.0, obs.NEUMANN, flux=lambda x, y: x,
    )


@pytest.mark.parametrize("n", [2, 3, 7, 25])
def test_assembly_matches_the_node_loop_bit_for_bit(n):
    specs = [obs.problem_spec(name) for name in obs.PROBLEM_NAMES]
    specs += [obs.problem_spec("torsion", c=-17.251034037566676),
              _varying_flux_spec()]
    # nonzero loads and fluxes on a non-square cell, so the order in which
    # the boundary terms are added to f shows in the last bits
    for kind in (obs.DIRICHLET, obs.NEUMANN):
        specs.append(obs.ObstacleSpec(
            "rough", (-0.3, 1.1, -2.0, 0.7), lambda x, y: np.sin(3.0 * x) * y,
            lambda x, y: 0.1 + x * y, kind, bc_value=0.3,
            flux=lambda x, y: np.cos(x + 2.0 * y),
        ))
    for spec in specs:
        d = obs.assemble_elliptic(spec, n)
        T, f_vec, psi_vec, b = loop_assembly(spec, n)
        for got, want in ((d.T.row_offsets, T.row_offsets),
                          (d.T.col_indices, T.col_indices),
                          (d.T.values, T.values), (d.f_vec, f_vec),
                          (d.psi_vec, psi_vec), (d.b, b)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), spec.name
            assert np.array_equal(np.signbit(got), np.signbit(want)), spec.name


def test_corner_rules_differ_for_varying_flux():
    # a flux that varies along the boundary makes the two corner paths
    # pick up different ghost lifts; reconstruction needs no solve
    d = obs.assemble_elliptic(_varying_flux_spec(), 4)
    u = np.arange(16.0)
    fx = obs.full_grid_solution(d, u, obs.CORNER_XEDGE)
    fy = obs.full_grid_solution(d, u, obs.CORNER_YEDGE)
    fa = obs.full_grid_solution(d, u, obs.CORNER_AVERAGE)
    assert fx[0, 0] != fy[0, 0]
    assert fa[0, 0] == pytest.approx(0.5 * (fx[0, 0] + fy[0, 0]))


def test_solution_csv_layout(tmp_path):
    sol = obs.solve_obstacle(obs.problem_spec("tent"), 5)
    path = tmp_path / "tent.csv"
    obs.write_solution_csv(path, sol.disc, sol.u, sol.coincidence)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["x", "y", "u", "psi", "active"]
    assert len(rows) == 1 + 7 * 7
    # boundary nodes are never marked active
    for row in rows[1:]:
        x, y = float(row[0]), float(row[1])
        if abs(x) == 1.0 or abs(y) == 2.0:
            assert row[4] == "0"
    # rewriting produces identical bytes
    again = tmp_path / "tent2.csv"
    obs.write_solution_csv(again, sol.disc, sol.u, sol.coincidence)
    assert path.read_bytes() == again.read_bytes()


DATA = pathlib.Path(__file__).parent / "data"


def _golden_fields():
    """(file name, disc, u, coincidence, corner rule) of each golden field
    CSV in tests/data, which the per-node writer of an earlier version
    wrote: torsion-neumann solved at N = 5 under all three corner rules,
    and a varying flux, whose corners differ between the edge rules."""
    sol = obs.solve_obstacle(obs.problem_spec("torsion-neumann", c=-20.0), 5)
    for corner in (obs.CORNER_AVERAGE, obs.CORNER_XEDGE, obs.CORNER_YEDGE):
        yield (f"field_torsion_neumann_{corner}.csv", sol.disc, sol.u,
               sol.coincidence, corner)
    d = obs.assemble_elliptic(_varying_flux_spec(), 4)
    u = np.sin(np.arange(16.0)) / 3.0
    for corner in (obs.CORNER_XEDGE, obs.CORNER_YEDGE):
        yield (f"field_varying_flux_{corner}.csv", d, u,
               obs.coincidence_set(u, d.psi_vec), corner)


def test_solution_csv_matches_the_golden_files(tmp_path):
    for name, disc, u, coincidence, corner in _golden_fields():
        path = tmp_path / name
        obs.write_solution_csv(path, disc, u, coincidence, corner)
        assert path.read_bytes() == (DATA / name).read_bytes(), name
