"""One sha256 of every solver output over perfbench's case lists and a
family of small Krylov systems.

    python3 tools/solver_bits.py --seeds 1 2 3
    python3 tools/solver_bits.py --workloads parabolic krylov --seeds 1

Runs each case of perfbench/workloads.py's lists once, in list order,
and hashes what the program returns, not whether a check passed:

- stationary and flux: x, y, status, K, active and left counts, each
  inner solve's stats (residual as hex), the residual history, and the
  solvability verdict and v^T b;
- parabolic: every snapshot, each time step's record as above, and
  replayed_steps;
- certify: the check_t1 and check_t2 reports (verdicts, notes and null
  vector bits) and the solvability verdict and v^T b;
- krylov: KRYLOV_SYSTEMS seeded systems, each solved by cg_solve and by
  bicgstab_solve (see _krylov_system). Every perfbench matrix is
  symmetric, so no other family reaches Bi-CGSTAB; this one also
  reaches n = 1, exact zeros and -0.0 in b and x0, extreme scales, a
  zero tolerance, a spent budget and a singular or zero operator. It
  hashes x and the stats, or the error raised with its carried iterate
  and stats.

Prints one line per workload and seed and a last line over all of them.
Run it on two checkouts to show that a change keeps every bit. The hash
depends on the numpy build and on the BLAS thread count, so run both
with the same interpreter; like perfbench, the tool sets one BLAS
thread. perfbench/workloads.py is imported as it is and nothing there
changes, and the krylov family takes its matrices from
tests/helpers.py.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

# one BLAS/OpenMP thread, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from helpers import irreducible_m_matrix  # noqa: E402
from plskit import matprops, obstacle  # noqa: E402
from plskit.krylov import (  # noqa: E402
    Breakdown,
    KrylovOptions,
    NotConverged,
    bicgstab_solve,
    cg_solve,
)
from plskit.numkit import active_operator  # noqa: E402
from plskit.pls import SolverOptions  # noqa: E402

WORKLOADS = ("stationary", "flux", "parabolic", "certify", "krylov")
KRYLOV_SYSTEMS = 1000  # per seed, each solved by both solvers


def _feed(h, value):
    """Add value to the hash with its type, so that 0.0 and -0.0, an
    array and a list, or None and "None" never collide."""
    if isinstance(value, np.ndarray):
        h.update(f"a{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(b"f" + value.hex().encode())
    elif isinstance(value, (list, tuple)):
        h.update(f"l{len(value)}".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(f"{type(value).__name__}:{value!r};".encode())


def _solution(sol):
    rep = sol.report
    solv = rep.solvability
    return [sol.x, sol.y, sol.status, rep.outer_iterations, rep.active_counts,
            rep.left_counts,
            [(st.iterations, st.final_residual_norm, st.converged, st.breakdown)
             for st in rep.inner_stats],
            rep.residual_history,
            None if solv is None else (solv.verdict, solv.vtb),
            rep.family_direction]


def _case_record(case):
    spec = obstacle.problem_spec(case.problem, case.c)
    if case.mode == workloads.STATIONARY:
        return _solution(obstacle.solve_obstacle(spec, case.n, SolverOptions()).result)
    if case.mode == workloads.PARABOLIC:
        run = obstacle.run_parabolic(spec, case.n, case.tau, workloads.NU,
                                     SolverOptions())
        return [run.snapshots, [_solution(r) for r in run.step_results],
                run.replayed_steps]
    disc = obstacle.assemble_elliptic(spec, case.n)
    record = []
    for check in (matprops.check_t1, matprops.check_t2):
        rep = check(disc.T)
        record.append([rep.is_z_matrix, rep.is_irreducible, rep.t1_verdict,
                       rep.t2_verdict, rep.left_null, rep.right_null, rep.notes])
        if rep.t2_verdict == matprops.PROVEN:
            solv = matprops.classify_solvability(rep.left_null, disc.b)
            record.append((solv.verdict, solv.vtb))
    return record


def _krylov_system(rng):
    """(label, operator, b, x0, opts) of one krylov case.

    The operator is active_operator's full slice of irreducible_m_matrix,
    of order 1, 2, 3, 5, 9 or 17, symmetric or not with even odds, f = 1
    (singular) to 2, with shift 0 or 1; order 1 gives the zero matrix.
    b and x0 hold exact zeros and -0.0, and x0 may be absent or all zero.
    """
    n = int(rng.choice([1, 2, 3, 5, 9, 17]))
    symmetric = bool(rng.random() < 0.5)
    f = float(rng.choice([1.0, 1.001, 1.1, 2.0]))
    density = float(rng.choice([0.2, 0.5, 0.9]))
    shift = float(rng.choice([0.0, 1.0]))
    matrix = irreducible_m_matrix(n, symmetric, f, density,
                                  int(rng.integers(2**32)))
    op = active_operator(matrix, np.ones(n, dtype=bool), shift)
    scale = float(rng.choice([1.0, 1e-160, 1e-300, 1e150]))

    def vector():
        v = rng.standard_normal(n) * scale
        v[rng.random(n) < 0.3] = 0.0
        v[rng.random(n) < 0.3] = -0.0
        return v

    b = vector()
    x0 = [None, np.zeros(n), -np.zeros(n), vector(), vector()][rng.integers(5)]
    opts = KrylovOptions(rel_tol=float(rng.choice([1e-12, 1e-6, 0.0])),
                         max_iters=[None, 1, 3][rng.integers(3)])
    label = (n, symmetric, f, density, shift, scale, type(op).__name__,
             opts.rel_tol, opts.max_iters)
    return label, op, b, x0, opts


def _krylov_record(solve, op, b, x0, opts):
    try:
        x, st = solve(op, b, x0, opts)
    except (NotConverged, Breakdown) as exc:
        x, st = exc.x, exc.stats
        outcome = ["raised", type(exc).__name__, str(exc)]
    else:
        outcome = ["returned"]
    return outcome + [x, (st.iterations, st.final_residual_norm, st.converged,
                          st.breakdown)]


def workload_hash(workload, seed):
    """(sha256 hex digest, number of cases) of one workload's list."""
    h = hashlib.sha256()
    if workload == "krylov":
        rng = np.random.default_rng(seed)
        with np.errstate(all="ignore"):  # the 1e150 scale overflows
            for _ in range(KRYLOV_SYSTEMS):
                label, op, b, x0, opts = _krylov_system(rng)
                _feed(h, list(label))
                for solve in (cg_solve, bicgstab_solve):
                    _feed(h, _krylov_record(solve, op, b, x0, opts))
        return h.hexdigest(), 2 * KRYLOV_SYSTEMS
    cases = workloads.make_cases(workload, seed)
    for case in cases:
        h.update(case.label().encode())
        try:
            _feed(h, _case_record(case))
        except Exception as exc:  # a raising case hashes its error
            _feed(h, ["raised", type(exc).__name__, str(exc)])
    return h.hexdigest(), len(cases)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for workload in args.workloads:
        for seed in args.seeds:
            digest, count = workload_hash(workload, seed)
            total.update(digest.encode())
            print(f"{workload:10s} seed {seed:<3d} {count:4d} cases  {digest}")
    print(f"{'all':10s} {'':21s} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
