"""Acceptance gate.

Each test covers one release criterion and records exactly one PASS/FAIL
line; conftest prints the collected scoreboard after the run, so it is
visible under every capture mode. The reference iteration counts are the
shipped benchmark tables; tolerances are stated inline. Criteria whose
reference counts the build misses are expected to fail honestly rather
than be widened; see the tent entries in the benchmark tables, whose
counts come from a right-hand side with its exact zeros kept exact (see
obstacle.assemble_elliptic). The finiteness criterion asserts the sharp
bound K <= n+1 on the solve count (at most n mask growths plus the
confirming solve) and that no run stops at the n + 1 cap without a
stable mask. One more test, which records no line, compares the CSV of all four
sweeps byte for byte with tests/data/bench_tables.csv, so every K is
pinned exactly, not only within the tolerances.
"""

import io
import pathlib
import sys
import time

import numpy as np
import pytest

import conftest
from helpers import path_laplacian, random_t1

from plskit import (
    enumerate_solutions,
    lcp_check,
    residual_nonsmooth,
    solve_elliptic_pls,
)
from plskit import obstacle as obs
from plskit.cli import (
    C_VALUES,
    N_VALUES,
    TABLE1_K,
    TABLE1_KV,
    TABLE2_K,
    TABLE3_LATER,
    TABLE3_STEP1,
    _bench_csv,
    run_table,
)
from plskit.pls import CONVERGED, MAX_OUTER_EXCEEDED, NO_SOLUTION_CERTIFIED

# every solver run any criterion touches, for the cross-cutting
# monotonicity and complementarity criteria: (T, b, kind, result)
ALL_RUNS = []


def _verdict(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}: {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


@pytest.fixture(scope="session")
def sweeps():
    data = {}
    start = time.perf_counter()
    data["table1"], _ = run_table(1)
    data["table1_seconds"] = time.perf_counter() - start
    data["table2"], _ = run_table(2)
    data["table3"], _ = run_table(3)
    data["table4"], _ = run_table(4)
    neumann = []
    for c in C_VALUES:
        for n in N_VALUES:
            sol = obs.solve_obstacle(obs.problem_spec(obs.TORSION_NEUMANN, c), n)
            neumann.append((c, n, sol))
    data["neumann"] = neumann
    for table_key in ("table1", "table2", "table3", "table4"):
        for r in data[table_key].rows:
            ALL_RUNS.append((r.T, r.b, r.kind, r.result))
    for _, _, sol in neumann:
        ALL_RUNS.append((sol.disc.T, sol.disc.b, "elliptic", sol.result))
    return data


def _counts(rows, problem, c=None):
    out = {}
    for r in rows:
        if r.problem == problem and (c is None or r.c == c):
            out[r.n] = r.k
    return tuple(out[n] for n in N_VALUES)


def test_tent_dirichlet_iteration_counts(sweeps):
    got = _counts(sweeps["table1"].rows, obs.TENT)
    ref = tuple(TABLE1_K[n] for n in N_VALUES)
    in_band = all(abs(g - r) <= 1 for g, r in zip(got, ref))
    in_time = sweeps["table1_seconds"] <= 300.0
    _verdict(
        "tent Dirichlet counts",
        in_band and in_time,
        f"K={got} ref={ref} tol ±1, sweep {sweeps['table1_seconds']:.0f}s "
        "(limit 300s)",
    )


def test_tent_neumann_iteration_counts(sweeps):
    rows = [r for r in sweeps["table1"].rows if r.problem == obs.TENT_NEUMANN]
    got = _counts(sweeps["table1"].rows, obs.TENT_NEUMANN)
    ref = tuple(TABLE1_KV[n] for n in N_VALUES)
    in_band = all(abs(g - r) <= 2 for g, r in zip(got, ref))
    # as sets: no step drops a component of the mask before it
    monotone = all(not any(r.result.report.left_counts) for r in rows)
    _verdict(
        "tent Neumann counts",
        in_band and monotone,
        f"K_V={got} ref={ref} tol ±2, active sets monotone={monotone}",
    )


def test_torsion_dirichlet_table(sweeps):
    rows = sweeps["table2"].rows
    offs = {}
    for r in rows:
        offs[(r.c, r.n)] = abs(r.k - TABLE2_K[(r.c, r.n)])
    in_band = all(d <= 1 for d in offs.values())
    trend = all(
        _counts(rows, obs.TORSION, c=c2) <= _counts(rows, obs.TORSION, c=c1)
        for c1, c2 in zip(C_VALUES, C_VALUES[1:])
    )
    worst = max(offs.values())
    _verdict(
        "torsion Dirichlet table",
        in_band and trend,
        f"16 cells within ±{worst} of reference (tol ±1), "
        f"K nonincreasing in |C| at fixed N: {trend}",
    )


def test_torsion_neumann_matches_dirichlet(sweeps):
    dirichlet = {(r.c, r.n): r.k for r in sweeps["table2"].rows}
    diffs = {}
    for c, n, sol in sweeps["neumann"]:
        diffs[(c, n)] = abs(
            sol.result.report.outer_iterations - dirichlet[(c, n)]
        )
    ok = all(d <= 1 for d in diffs.values())
    _verdict(
        "torsion Neumann vs Dirichlet",
        ok,
        f"16 cells, max |K_neumann - K_dirichlet| = {max(diffs.values())} "
        "(tol ±1)",
    )


def test_parabolic_tent_per_step_counts(sweeps):
    rows = sweeps["table3"].rows
    step1 = {r.n: r.k for r in rows if r.step == 1}
    got1 = tuple(step1[n] for n in N_VALUES)
    ref1 = tuple(TABLE3_STEP1[n] for n in N_VALUES)
    later_ok = all(
        abs(r.k - TABLE3_LATER[r.n]) <= 1 for r in rows if r.step > 1
    )
    step1_ok = all(abs(g - r) <= 1 for g, r in zip(got1, ref1))
    _verdict(
        "parabolic tent counts",
        step1_ok and later_ok,
        f"step 1 K={got1} ref={ref1} tol ±1; steps 2-20 within ±1: {later_ok}",
    )


def test_parabolic_torsion_tracks_stationary_counts(sweeps):
    rows = sweeps["table4"].rows
    offs = [abs(r.k - TABLE2_K[(r.c, r.n)]) for r in rows]
    ok = all(d <= 1 for d in offs)
    _verdict(
        "parabolic torsion counts",
        ok,
        f"{len(rows)} step counts within ±{max(offs)} of the stationary "
        "table (tol ±1)",
    )


def test_bench_tables_match_the_golden_csv(sweeps):
    out = io.StringIO()
    for key in ("table1", "table2", "table3", "table4"):
        _bench_csv(sweeps[key], out)
    golden = pathlib.Path(__file__).parent / "data" / "bench_tables.csv"
    assert out.getvalue() == golden.read_text()


def test_oracle_equivalence_on_random_instances():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        t = random_t1(rng, n)
        b = rng.normal(size=n)
        if np.all(b >= 0.0):
            b[0] = -abs(b[0]) - 0.1
        elif np.all(b < 0.0):
            b[0] = abs(b[0]) + 0.1
        ref = enumerate_solutions(t, b)
        assert len(ref.point_solutions) == 1 and not ref.families
        x_ref = ref.point_solutions[0]
        sol = solve_elliptic_pls(t, b)
        ALL_RUNS.append((t, b, "elliptic", sol))
        rel = np.abs(sol.x - x_ref).max() / max(np.abs(x_ref).max(), 1.0)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _verdict(
        "oracle equivalence",
        ok,
        f"200 random instances, worst relative error {worst:.2e} "
        f"(tol 1e-9), suite {elapsed:.1f}s (limit 30s)",
    )


def test_trichotomy_on_singular_systems():
    rng = np.random.default_rng(4096)
    wrong = []
    for i in range(60):
        n = 2 + (i % 9)
        want = ("Unique", "FamilyAlongW", "NoSolution")[i % 3]
        lap = path_laplacian(n)
        r = rng.normal(size=n)
        if want == "Unique":
            b = r - (r.sum() + 1.0) / n
        elif want == "FamilyAlongW":
            b = r - r.mean()
        else:
            b = r - (r.sum() - 1.0) / n
        sol = solve_elliptic_pls(lap, b, t2_data=(np.ones(n), np.ones(n)))
        ALL_RUNS.append((lap, b, "elliptic", sol))
        if sol.report.solvability.verdict != want:
            wrong.append((i, want, sol.report.solvability.verdict))
            continue
        if want == "NoSolution":
            if sol.status != NO_SOLUTION_CERTIFIED:
                wrong.append((i, want, sol.status))
            continue
        if sol.status != CONVERGED:
            wrong.append((i, want, sol.status))
            continue
        if want == "FamilyAlongW":
            w = sol.report.family_direction
            for alpha in (0.5, 1.0, 2.0):
                if residual_nonsmooth(lap, b, sol.x + alpha * w) > 1e-8:
                    wrong.append((i, want, f"family alpha={alpha}"))
    _verdict(
        "solvability trichotomy",
        not wrong,
        f"{60 - len(wrong)}/60 singular systems classified and solved "
        f"correctly, family members at alpha in (0.5,1,2) within 1e-8"
        + (f"; first failures {wrong[:3]}" if wrong else ""),
    )


def test_monotone_active_sets_and_finite_termination(sweeps):
    checked = 0
    bad = []
    at_bound = 0
    for t, b, kind, result in ALL_RUNS:
        if result is None:
            continue
        # the paper's theorem, as sets: each mask contains the one before
        if any(result.report.left_counts):
            bad.append("a mask dropped a component of the one before")
        k = result.report.outer_iterations
        if k > t.n_rows + 1:
            bad.append(f"K={k} > n+1={t.n_rows + 1}")
        if result.status == MAX_OUTER_EXCEEDED:
            bad.append(f"stopped at the n + 1 cap, K={k}, without a stable mask")
        if k == t.n_rows + 1:
            at_bound += 1
        checked += 1
    _verdict(
        "monotonicity and finiteness",
        not bad,
        f"{checked} runs: each mask contains the one before, K <= n+1 and every "
        f"run stops on a stable mask ({at_bound} runs reach K = n+1)"
        + (f"; {len(bad)} violations, first {bad[:3]}" if bad else ""),
    )


def test_complementarity_on_converged_runs(sweeps):
    checked = 0
    bad = 0
    for t, b, kind, result in ALL_RUNS:
        if result is None or result.status != CONVERGED:
            continue
        if not lcp_check(t, b, result.y, kind=kind).passed:
            bad += 1
        checked += 1
    _verdict(
        "complementarity",
        bad == 0,
        f"lcp_check at tol 1e-8 passed on {checked - bad}/{checked} "
        "converged runs",
    )


def test_solution_shape_sanity(sweeps):
    problems = []
    tent_rows = [
        r for r in sweeps["table1"].rows if r.problem == obs.TENT
    ]
    for r in tent_rows:
        u = r.result.y + r.disc.psi_vec
        if not np.all(u >= r.disc.psi_vec - 1e-12):
            problems.append(f"u < psi at N={r.n}")
        if not np.all(u >= 0.5 - 1e-12):
            problems.append(f"u < 1/2 at N={r.n}")
        # the ridge passes through grid nodes only on the odd grids
        if r.n in (25, 75):
            h = r.disc.grid.dy
            if abs(u.max() - 1.0) > 2.0 * h * h:
                problems.append(f"|max u - 1| > 2h^2 at N={r.n}")
    areas = []
    for c in C_VALUES:
        row = next(
            r for r in sweeps["table2"].rows if r.c == c and r.n == 50
        )
        u = row.result.y + row.disc.psi_vec
        areas.append(int(obs.coincidence_set(u, row.disc.psi_vec).sum()))
    if not all(a < b for a, b in zip(areas, areas[1:])):
        problems.append(f"coincidence areas not increasing: {areas}")
    _verdict(
        "solution shape sanity",
        not problems,
        "tent: u >= psi, u >= 1/2, ridge max within 2h^2 at N=25,75; "
        f"torsion N=50 coincidence areas {areas} strictly increasing in |C|"
        + (f"; problems {problems}" if problems else ""),
    )
