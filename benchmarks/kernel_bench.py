"""Benchmark the compiled matvec kernel against the numpy fallback.

The package compiles its CSR matvec kernel with numba when it is
importable (PLSKIT_NUMPY=1 forces the numpy backend instead). Both
implementations stay importable side by side, so this script times them
on the same data: the five-point stencil matrix of the obstacle solver,
in full and as the principal submatrix of a half-active mask, the
operator of one reduced outer step.

Run: python benchmarks/kernel_bench.py [--n 100] [--repeats 200]
"""

import argparse
import time

import numpy as np

from plskit import _kernels, numkit, obstacle


def time_calls(func, args, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        func(*args)
        t1 = time.perf_counter()
        best = min(best, t1 - t0)
    return best * 1e3


def bench_pair(label, compiled, fallback, args, repeats):
    out_c = compiled(*args)
    out_py = fallback(*args)
    diff = float(np.abs(out_c - out_py).max())
    ms_c = time_calls(compiled, args, repeats)
    ms_py = time_calls(fallback, args, repeats)
    speedup = ms_py / ms_c if ms_c > 0 else float("inf")
    print(
        f"{label:28s} numba {ms_c:8.4f} ms   numpy {ms_py:8.4f} ms   "
        f"x{speedup:5.1f}   max diff {diff:.1e}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100, help="interior grid size")
    parser.add_argument("--repeats", type=int, default=200)
    args = parser.parse_args()

    if _kernels.BACKEND != "numba":
        print(
            "backend is numpy (numba missing or PLSKIT_NUMPY set); "
            "both columns below run the same fallback code"
        )

    spec = obstacle.problem_spec("tent")
    disc = obstacle.assemble_elliptic(spec, args.n)
    t = disc.T
    n = t.n_rows
    rng = np.random.default_rng(0)
    z = rng.normal(size=n)
    mask = np.zeros(n, dtype=bool)
    mask[: n // 2] = True
    rng.shuffle(mask)
    csr = (t.values, t.col_indices, t.row_offsets)
    sub = numkit.principal_submatrix(t, mask)
    csr_sub = (sub.values, sub.col_indices, sub.row_offsets)

    print(f"matrix: {n} x {n}, {t.nnz} nonzeros, backend {_kernels.BACKEND}")
    # first calls compile the numba kernels; keep them out of the timings
    bench_pair(
        "csr_matvec (warmup)",
        _kernels.csr_matvec,
        _kernels.csr_matvec_py,
        (*csr, z),
        1,
    )
    print()

    bench_pair(
        "csr_matvec",
        _kernels.csr_matvec,
        _kernels.csr_matvec_py,
        (*csr, z),
        args.repeats,
    )
    bench_pair(
        "csr_matvec (half active)",
        _kernels.csr_matvec,
        _kernels.csr_matvec_py,
        (*csr_sub, z[mask]),
        args.repeats,
    )
    ms = time_calls(numkit.principal_submatrix, (t, mask), args.repeats)
    print(f"{'principal_submatrix':28s} {ms:8.4f} ms")

    t0 = time.perf_counter()
    sol = obstacle.solve_obstacle(spec, args.n)
    t1 = time.perf_counter()
    print(
        f"\nend-to-end solve ({spec.name}, n={args.n}): "
        f"{t1 - t0:.2f} s, {sol.result.report.outer_iterations} outer "
        f"iterations ({_kernels.BACKEND} backend; set PLSKIT_NUMPY=1 and "
        "rerun to time the fallback end to end)"
    )


if __name__ == "__main__":
    main()
