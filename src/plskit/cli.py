"""Command-line front end: solve benchmark problems, check matrix
classes, sweep the reference iteration-count tables, and enumerate small
systems exhaustively.

Exit codes: 0 success, 2 certified-unsolvable system, 1 runtime errors,
64 bad usage.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import obstacle as obs
from .krylov import Breakdown, KrylovOptions, NotConverged
from .matprops import DISPROVEN, PROVEN, check_t1, check_t2, classify_solvability
from .numkit import ELLIPTIC, csr_from_triplets, load_matrix_market
from .oracle import TooLarge, enumerate_solutions
from .pls import (
    CONVERGED,
    NO_SOLUTION_CERTIFIED,
    PlsProblem,
    SolverOptions,
    solve_elliptic_pls,
)

N_VALUES = (25, 50, 75, 100)
C_VALUES = (-5.0, -10.0, -15.0, -20.0)
TENT_TAU, TORSION_TAU, BENCH_NU = 1.0e4, 5.0, 20

# reference iteration counts reproduced by the bench sweeps
TABLE1_K = {25: 6, 50: 10, 75: 10, 100: 12}
TABLE1_KV = {25: 12, 50: 25, 75: 37, 100: 49}
TABLE2_K = {
    (-5.0, 25): 9, (-5.0, 50): 17, (-5.0, 75): 25, (-5.0, 100): 32,
    (-10.0, 25): 5, (-10.0, 50): 10, (-10.0, 75): 13, (-10.0, 100): 16,
    (-15.0, 25): 4, (-15.0, 50): 7, (-15.0, 75): 9, (-15.0, 100): 11,
    (-20.0, 25): 4, (-20.0, 50): 5, (-20.0, 75): 7, (-20.0, 100): 9,
}
TABLE3_STEP1 = {25: 5, 50: 6, 75: 8, 100: 8}
TABLE3_LATER = {25: 5, 50: 6, 75: 6, 100: 6}
TABLE4_K = TABLE2_K  # per step, every step

_SAMPLES = {
    "sample-t1": ([[2.0, -1.0], [-1.0, 2.0]], [1.0, -1.0], None),
    "sample-t2-family": ([[1.0, -1.0], [-1.0, 1.0]], [1.0, -1.0],
                         (np.ones(2), np.ones(2))),
    "sample-t2-infeasible": ([[1.0, -1.0], [-1.0, 1.0]], [1.0, 1.0],
                             (np.ones(2), np.ones(2))),
}


class _UsageError(Exception):
    """Bad flag combinations detected after parsing; exits like argparse."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _build_parser():
    parser = _Parser(prog="plskit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, problems):
        p.add_argument("--problem", choices=problems)
        p.add_argument("--n", type=int, required=False,
                       help="interior grid nodes per side")
        p.add_argument("--c", type=float, default=None,
                       help="torsion load constant (negative)")

    solve = sub.add_parser("solve", help="solve one obstacle problem")
    add_common(solve, obs.PROBLEM_NAMES)
    solve.add_argument("--tau", type=float, default=None,
                       help="time horizon; with --nu selects the parabolic solver")
    solve.add_argument("--nu", type=int, default=None, help="number of time steps")
    solve.add_argument("--corner", choices=(obs.CORNER_AVERAGE, obs.CORNER_XEDGE,
                                            obs.CORNER_YEDGE),
                       default=obs.CORNER_AVERAGE)
    solve.add_argument("--krylov-tol", type=float, default=None)
    solve.add_argument("--out", default=None, help="write the field CSV here")

    bench = sub.add_parser("bench", help="sweep one reference table")
    bench.add_argument("--table", type=int, choices=(1, 2, 3, 4), required=True)
    bench.add_argument("--n", type=int, default=None,
                       help="restrict the sweep to one grid size")
    bench.add_argument("--krylov-tol", type=float, default=None)
    bench.add_argument("--out", default=None, help="write the CSV here instead of stdout")

    check = sub.add_parser("check", help="classify a matrix")
    add_common(check, obs.PROBLEM_NAMES)
    check.add_argument("--mm", default=None, help="Matrix Market file to classify")

    oracle = sub.add_parser("oracle", help="enumerate a small system exhaustively")
    add_common(oracle, obs.PROBLEM_NAMES + tuple(_SAMPLES))
    oracle.add_argument("--mm", default=None,
                        help="Matrix Market file (right-hand side of ones)")
    return parser


def _solver_options(args):
    opts = SolverOptions()
    if args.krylov_tol is not None:
        opts.krylov = KrylovOptions(rel_tol=args.krylov_tol)
    return opts


def _g(value):
    return format(float(value), ".17g")


def _joined(values, fmt=str):
    return ",".join(fmt(v) for v in values)


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError(f"--{name} is required here")


def cmd_solve(args):
    _require(args, "problem", "n")
    if (args.tau is None) != (args.nu is None):
        raise _UsageError("--tau and --nu must be given together")
    spec = obs.problem_spec(args.problem, args.c)
    opts = _solver_options(args)
    lines = [("problem", args.problem), ("n", args.n)]
    if args.tau is None:
        sol = obs.solve_obstacle(spec, args.n, opts)
        result, disc, u = sol.result, sol.disc, sol.u
        rep = result.report
        lines += [
            ("kind", "elliptic"),
            ("status", result.status),
            ("K", rep.outer_iterations),
            ("inner_iterations", _joined(s.iterations for s in rep.inner_stats)),
            ("residuals", _joined(rep.residual_history, _g)),
            ("active_counts", _joined(rep.active_counts)),
        ]
        if rep.solvability is not None:
            lines.append(("solvability", rep.solvability.verdict))
        coincidence = sol.coincidence
    else:
        run = obs.run_parabolic(spec, args.n, args.tau, args.nu, opts)
        disc, u = run.disc, run.snapshots[-1]
        reps = [r.report for r in run.step_results]
        result = run.step_results[-1]
        lines += [
            ("kind", "parabolic"),
            ("status", result.status),
            ("tau", _g(run.tau)), ("nu", run.nu), ("dt", _g(run.dt)),
            ("K", _joined(r.outer_iterations for r in reps)),
            ("inner_iterations",
             _joined(sum(s.iterations for s in r.inner_stats) for r in reps)),
            ("residuals", _joined((r.residual_history[-1] for r in reps), _g)),
        ]
        coincidence = obs.coincidence_set(u, disc.psi_vec)
    lines += [
        ("u_min", _g(u.min())), ("u_max", _g(u.max())),
        ("coincidence_nodes", int(coincidence.sum())),
    ]
    if args.out:
        obs.write_solution_csv(args.out, disc, u, coincidence, args.corner)
        lines.append(("out", args.out))
    for key, value in lines:
        print(f"{key}={value}")
    return 2 if result.status == NO_SOLUTION_CERTIFIED else 0


@dataclass
class BenchRecord:
    problem: str
    n: int
    c: float | None
    tau: float | None
    nu: int | None
    step: int | None
    k: int | None
    k_ref: int
    match: str
    result: object = None
    disc: object = None
    T: object = None
    b: np.ndarray | None = None
    kind: str = ELLIPTIC


@dataclass
class BenchTable:
    table_id: int
    rows: list
    wall_times_ms: list


def _elliptic_cell(problem, n, c, k_ref, opts):
    spec = obs.problem_spec(problem, c)
    sol = obs.solve_obstacle(spec, n, opts)
    k = sol.result.report.outer_iterations
    return [BenchRecord(problem, n, c, None, None, None, k, k_ref,
                        "yes" if k == k_ref else "no", sol.result, sol.disc,
                        sol.disc.T, sol.disc.b)]


def _parabolic_cell(problem, n, c, tau, ref_by_step, opts):
    spec = obs.problem_spec(problem, c)
    run = obs.run_parabolic(spec, n, tau, BENCH_NU, opts)
    records = []
    u = run.disc.psi_vec.copy()
    dt = run.dt
    T_step = run.disc.T.scaled(dt)
    for step, result in enumerate(run.step_results, start=1):
        b_step = (u - run.disc.psi_vec) + dt * run.disc.b
        u = run.snapshots[step]
        k = result.report.outer_iterations
        k_ref = ref_by_step(step)
        records.append(BenchRecord(problem, n, c, tau, BENCH_NU, step, k, k_ref,
                                   "yes" if k == k_ref else "no", result,
                                   run.disc, T_step, b_step, kind="parabolic"))
    return records


def run_table(table_id, n_filter=None, opts=None):
    """Sweep one reference table; returns records plus per-cell wall times."""
    opts = opts or SolverOptions()
    n_values = [n for n in N_VALUES if n_filter is None or n == n_filter]
    if not n_values:
        raise ValueError(f"--n must be one of {N_VALUES} for bench")
    cells = []
    if table_id == 1:
        cells += [(obs.TENT, n, None, lambda n=n: _elliptic_cell(
            obs.TENT, n, None, TABLE1_K[n], opts)) for n in n_values]
        cells += [(obs.TENT_NEUMANN, n, None, lambda n=n: _elliptic_cell(
            obs.TENT_NEUMANN, n, None, TABLE1_KV[n], opts)) for n in n_values]
    elif table_id == 2:
        cells += [(obs.TORSION, n, c, lambda n=n, c=c: _elliptic_cell(
            obs.TORSION, n, c, TABLE2_K[(c, n)], opts))
            for c in C_VALUES for n in n_values]
    elif table_id == 3:
        cells += [(obs.TENT, n, None, lambda n=n: _parabolic_cell(
            obs.TENT, n, None, TENT_TAU,
            lambda s, n=n: TABLE3_STEP1[n] if s == 1 else TABLE3_LATER[n], opts))
            for n in n_values]
    elif table_id == 4:
        cells += [(obs.TORSION, n, c, lambda n=n, c=c: _parabolic_cell(
            obs.TORSION, n, c, TORSION_TAU,
            lambda s, c=c, n=n: TABLE4_K[(c, n)], opts))
            for c in C_VALUES for n in n_values]
    else:
        raise ValueError(f"unknown table {table_id}")
    rows = []
    wall_times_ms = []
    failed = False
    for problem, n, c, runner in cells:
        start = time.perf_counter()
        try:
            rows.extend(runner())
        except (NotConverged, Breakdown, RuntimeError) as exc:
            failed = True
            rows.append(BenchRecord(problem, n, c, None, None, None, None, 0,
                                    f"error: {exc}"))
        wall_times_ms.append(1000.0 * (time.perf_counter() - start))
    return BenchTable(table_id, rows, wall_times_ms), failed


def _bench_csv(table, stream):
    stream.write("table,problem,n,c,tau,nu,step,k,k_ref,match\n")
    for r in table.rows:
        stream.write(",".join([
            str(table.table_id), r.problem, str(r.n),
            "" if r.c is None else _g(r.c),
            "" if r.tau is None else _g(r.tau),
            "" if r.nu is None else str(r.nu),
            "" if r.step is None else str(r.step),
            "" if r.k is None else str(r.k),
            str(r.k_ref), r.match,
        ]) + "\n")


def _bench_text(table, stream):
    rows = table.rows
    n_values = sorted({r.n for r in rows})
    header = "".join(f"{'N=' + str(n):>8}" for n in n_values)

    def cell(match, subset):
        picked = [r for r in subset if match(r)]
        if not picked:
            return "-"
        if any(r.k is None for r in picked):
            return "err"
        ks = sorted({r.k for r in picked})
        return str(ks[0]) if len(ks) == 1 else f"{ks[0]}-{ks[-1]}"

    print(f"table {table.table_id}", file=stream)
    if table.table_id == 1:
        print(f"{'':>12}{header}", file=stream)
        for problem, label in ((obs.TENT, "K"), (obs.TENT_NEUMANN, "K_V")):
            sub = [r for r in rows if r.problem == problem]
            line = "".join(f"{cell(lambda r, n=n: r.n == n, sub):>8}" for n in n_values)
            print(f"{label:>12}{line}", file=stream)
    elif table.table_id == 2:
        print(f"{'':>12}{header}", file=stream)
        for c in C_VALUES:
            sub = [r for r in rows if r.c == c]
            if not sub:
                continue
            line = "".join(f"{cell(lambda r, n=n: r.n == n, sub):>8}" for n in n_values)
            print(f"{'C=' + _g(c):>12}{line}", file=stream)
    else:
        print(f"{'':>12}{header}", file=stream)
        groups = [("step 1", lambda r: r.step == 1),
                  ("steps 2+", lambda r: r.step is not None and r.step > 1)]
        cs = sorted({r.c for r in rows}, reverse=True) if table.table_id == 4 else [None]
        for c in cs:
            for label, pick in groups:
                sub = [r for r in rows if pick(r) and (c is None or r.c == c)]
                if not sub:
                    continue
                line = "".join(
                    f"{cell(lambda r, n=n: r.n == n, sub):>8}" for n in n_values)
                tag = label if c is None else f"C={_g(c)} {label}"
                print(f"{tag:>20}{line}", file=stream)
    mismatches = sum(1 for r in rows if r.match != "yes")
    print(f"mismatched cells: {mismatches}/{len(rows)}", file=stream)
    print(f"wall time: {sum(table.wall_times_ms) / 1000.0:.1f} s", file=stream)


def cmd_bench(args):
    if args.n is not None and args.n not in N_VALUES:
        raise _UsageError(f"--n must be one of {_joined(N_VALUES)} for bench")
    table, failed = run_table(args.table, args.n, _solver_options(args))
    if args.out:
        with open(args.out, "w") as fh:
            _bench_csv(table, fh)
    else:
        _bench_csv(table, sys.stdout)
    _bench_text(table, sys.stderr)
    return 1 if failed else 0


def _print_class_report(report):
    for key in ("is_z_matrix", "is_irreducible", "t1_verdict", "t2_verdict"):
        value = getattr(report, key)
        if value is not None:
            print(f"{key}={value}")
    for name in ("left_null", "right_null"):
        vec = getattr(report, name)
        if vec is not None:
            print(f"{name}_min={_g(vec.min())}")
            print(f"{name}_max={_g(vec.max())}")
    if report.notes:
        print("notes=" + "; ".join(report.notes))


def cmd_check(args):
    if (args.mm is None) == (args.problem is None):
        raise _UsageError("give exactly one of --problem or --mm")
    b = None
    if args.mm is not None:
        matrix = load_matrix_market(args.mm)
    else:
        _require(args, "n")
        disc = obs.assemble_elliptic(obs.problem_spec(args.problem, args.c), args.n)
        matrix, b = disc.T, disc.b
    report = check_t1(matrix)
    if report.t1_verdict != PROVEN:
        t2 = check_t2(matrix)
        report.t2_verdict = t2.t2_verdict
        report.left_null = t2.left_null
        report.right_null = t2.right_null
        report.notes = report.notes + t2.notes
    _print_class_report(report)
    if report.t2_verdict == PROVEN and b is not None:
        cls = classify_solvability(report.left_null, b)
        print(f"solvability={cls.verdict}")
        print(f"vtb={_g(cls.vtb)}")
    return 0


def _family_holds(fam, x):
    d = fam.direction
    alpha = float(d @ (x - fam.base)) / float(d @ d)
    if not (fam.alpha_min - 1e-8 <= alpha <= fam.alpha_max + 1e-8):
        return False
    return bool(np.allclose(fam.base + alpha * d, x, rtol=0, atol=1e-6 * (1 + np.abs(x).max())))


def cmd_oracle(args):
    if (args.mm is None) == (args.problem is None):
        raise _UsageError("give exactly one of --problem or --mm")
    t2_data = None
    if args.mm is not None:
        matrix = load_matrix_market(args.mm)
        b = np.ones(matrix.n_rows)
    elif args.problem in _SAMPLES:
        dense, rhs, t2_data = _SAMPLES[args.problem]
        dense = np.asarray(dense)
        trips = [(i, j, dense[i, j]) for i in range(2) for j in range(2)]
        matrix = csr_from_triplets(trips, 2, 2)
        b = np.asarray(rhs, dtype=np.float64)
    else:
        _require(args, "n")
        disc = obs.assemble_elliptic(obs.problem_spec(args.problem, args.c), args.n)
        matrix, b = disc.T, disc.b
        t2_data = disc.t2_data
    result = enumerate_solutions(matrix, b)
    print(f"n={matrix.n_rows}")
    print(f"patterns_tested={result.patterns_tested}")
    print(f"point_solutions={len(result.point_solutions)}")
    for i, x in enumerate(result.point_solutions, start=1):
        print(f"x_{i}={_joined(x, _g)}")
    print(f"families={len(result.families)}")
    for i, fam in enumerate(result.families, start=1):
        hi = "inf" if np.isinf(fam.alpha_max) else _g(fam.alpha_max)
        print(f"family_{i}_base={_joined(fam.base, _g)}")
        print(f"family_{i}_direction={_joined(fam.direction, _g)}")
        print(f"family_{i}_alpha=[{_g(fam.alpha_min)},{hi}]")
    empty = not result.point_solutions and not result.families
    try:
        sol = solve_elliptic_pls(PlsProblem(matrix, b, t2_data=t2_data))
        status = sol.status
    except (NotConverged, Breakdown) as exc:
        sol, status = None, type(exc).__name__
    print(f"solver_status={status}")
    if status == NO_SOLUTION_CERTIFIED or sol is None:
        agree = empty
    elif status == CONVERGED:
        agree = any(
            np.allclose(x, sol.x, rtol=0, atol=1e-6 * (1 + np.abs(x).max()))
            for x in result.point_solutions
        ) or any(_family_holds(fam, sol.x) for fam in result.families)
    else:
        agree = empty
    print(f"agree={'yes' if agree else 'no'}")
    return 0 if agree else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"solve": cmd_solve, "bench": cmd_bench,
               "check": cmd_check, "oracle": cmd_oracle}[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 64
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so the flush at
        # interpreter exit does not raise again, and leave quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TooLarge, NotConverged, Breakdown, ValueError, OSError) as exc:
        print(f"plskit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
