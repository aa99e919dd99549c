import hashlib
import importlib.util
import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

_TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
_PATH = _TOOLS / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # counted: the import, both def lines, f's return with its trailing
    # comment, the class line, the two lines of the string assignment
    # (not a docstring) and g's return
    source = '''"""Module docstring,
over two lines."""

import os

# a comment line


def f(x):
    """One-line docstring."""
    return x  # trailing comment


class C:
    """Class
    docstring."""

    text = """not a
docstring"""

    def g(self):
        return os.sep
'''
    assert code_lines.code_lines(source) == 8


def test_solver_bits_prints_a_workload_line_and_its_roll_up():
    # one workload line per workload and seed, in the order given, then an
    # "all" line: the sha256 of the workload digests in that order. The
    # parabolic workload runs run_parabolic, and with it every time step's
    # solve_parabolic_pls; the krylov family runs cg_solve and
    # bicgstab_solve on each of its systems
    run = subprocess.run(
        [sys.executable, str(_TOOLS / "solver_bits.py"), "--workloads", "certify",
         "parabolic", "krylov", "--seeds", "1"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert not run.stderr  # the krylov family's overflows stay quiet
    lines = run.stdout.splitlines()
    assert len(lines) == 4
    digests = []
    for workload, line in zip(("certify", "parabolic", "krylov"), lines):
        match = re.fullmatch(rf"{workload} +seed 1 +(\d+) cases +([0-9a-f]{{64}})",
                             line)
        assert match, line
        digests.append(match[2])
    assert int(match[1]) == 2000  # 1000 systems, each solved by both solvers
    roll_up = re.fullmatch(r"all +([0-9a-f]{64})", lines[3])
    assert roll_up
    assert roll_up[1] == hashlib.sha256("".join(digests).encode()).hexdigest()


# what each krylov system of seed 1 reaches, run in a fresh interpreter, as
# the tool sets the BLAS threads and sys.path of the process it runs in
_KRYLOV_REACH = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import solver_bits as sb
rng = np.random.default_rng(1)
seen = set()
for _ in range(sb.KRYLOV_SYSTEMS):
    label, op, b, x0, opts = sb._krylov_system(rng)
    seen.add(f"n={label[0]}")
    seen.add(label[6])
    if np.signbit(b[b == 0.0]).any():
        seen.add("-0.0 in b")
    for solve in (sb.cg_solve, sb.bicgstab_solve):
        with np.errstate(all="ignore"):
            record = sb._krylov_record(solve, op, b, x0, opts)
        end = record[1] if record[0] == "raised" else (
            "broke" if record[-1][3] else "returned")
        seen.add(f"{solve.__name__} {end}")
print(json.dumps(sorted(seen)))
"""


def test_krylov_family_reaches_both_solvers_and_their_exits():
    # Bi-CGSTAB, n = 1, -0.0 in b, the ELL operator and the CSR fallback,
    # and each way a solve of either solver ends
    run = subprocess.run([sys.executable, "-c", _KRYLOV_REACH, str(_TOOLS)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    seen = set(json.loads(run.stdout))
    assert seen >= {"n=1", "n=17", "EllOperator", "SparseMatrix", "-0.0 in b",
                    "cg_solve returned", "cg_solve NotConverged",
                    "cg_solve Breakdown", "bicgstab_solve returned",
                    "bicgstab_solve broke", "bicgstab_solve NotConverged"}


def test_bench_pairs_writes_a_pair_of_one_checkout(tmp_path):
    # the directory form on one checkout twice: one certify pair, each
    # side's traced peak, every metric's no-regression verdict, and the
    # claim's verdict, well within 10 s
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, str(_TOOLS / "bench_pairs.py"), "--label", "smoke",
         "--dirs", str(_TOOLS.parent), str(_TOOLS.parent), "--workloads",
         "certify", "--pairs", "1", "--seconds", "0", "--out-dir", str(tmp_path),
         "--claim", "certify", "wall_s"],
        capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10.0
    assert run.returncode == 0, run.stderr
    out = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert out["stamp"]["blas_threads"] == 1
    entry = out["workloads"]["certify"]
    assert entry["pairs"] == 1 and entry["seeds"] == [1, 1]
    for metric in ("wall_s", "slowest_case_s", "setup_s", "peak_rss_mb",
                   "passed_share"):
        parent, change = entry[f"{metric}_pairs"][0]
        assert entry[metric]["parent"] == pytest.approx([parent] * 3, rel=1e-3)
        assert entry[metric]["change"] == pytest.approx([change] * 3, rel=1e-3)
        lower, higher = (entry[metric]["change_lower"],
                         entry[metric]["change_higher"])
        assert lower + higher <= 1
        if parent != change:  # pairs keep 6 digits, the counts all of them
            assert (lower, higher) == (change < parent, change > parent)
        # one pair has no spread, so no metric is unresolved; each that
        # does not hold is printed
        verdict = entry[metric]["verdict"]
        assert verdict in ("holds", "worse")
        assert (f"certify {metric}: worse" in run.stdout) == (verdict == "worse")
    assert entry["passed_share"]["verdict"] == "holds"
    assert entry["passed_share"]["parent"][0] == 1.0
    assert entry["correct"] == {"parent": True, "change": True}
    peaks = entry["tracemalloc_peak_mib"]
    assert peaks["change"] == pytest.approx(peaks["parent"], rel=0.05)  # one code
    assert isinstance(out["claim_holds"], bool)
    assert out["claim"].startswith("certify wall_s lower: ")
