"""Sparse solver for piecewise linear systems min{0,x} + T max{0,x} = b
and x + T max{0,x} = b, with finite-difference obstacle-problem
benchmarks built on top.
"""

from .krylov import (
    Breakdown,
    KrylovOptions,
    KrylovStats,
    NotConverged,
    bicgstab_solve,
    cg_solve,
)
from .matprops import (
    MatrixClassReport,
    Solvability,
    check_t1,
    check_t2,
    classify_solvability,
)
from .numkit import (
    BACKEND,
    DimensionError,
    SparseMatrix,
    csr_from_triplets,
    load_matrix_market,
    principal_submatrix,
    spmv,
)
from .obstacle import (
    GridError,
    ObstacleSpec,
    assemble_elliptic,
    coincidence_set,
    problem_spec,
    run_parabolic,
    solve_obstacle,
    write_solution_csv,
)
from .oracle import Family, OracleResult, TooLarge, enumerate_solutions
from .pls import (
    CONVERGED,
    ELLIPTIC,
    MAX_OUTER_EXCEEDED,
    NO_SOLUTION_CERTIFIED,
    PARABOLIC,
    CheckReport,
    IterationReport,
    PlsSolution,
    SolverOptions,
    lcp_check,
    residual_nonsmooth,
    solve_elliptic_pls,
    solve_parabolic_pls,
    solve_shifted,
)

__version__ = "0.1.0"
