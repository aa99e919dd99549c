import os
import subprocess
import sys

import pytest

import plskit
from plskit import obstacle as obs
from plskit.cli import main
from plskit.krylov import NotConverged


def kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def test_solve_reports_key_value_lines(capsys):
    rc = main(["solve", "--problem", "tent", "--n", "5"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["problem"] == "tent"
    assert report["n"] == "5"
    assert report["kind"] == "elliptic"
    assert report["status"] == "Converged"
    k = int(report["K"])
    assert len(report["inner_iterations"].split(",")) == k
    assert len(report["active_counts"].split(",")) == k + 1
    assert float(report["u_max"]) == pytest.approx(1.0)
    assert int(report["coincidence_nodes"]) > 0


def test_solve_rejects_tiny_grid(capsys):
    rc = main(["solve", "--problem", "tent", "--n", "1"])
    assert rc == 1
    assert "plskit: error:" in capsys.readouterr().err


def test_solve_parabolic_per_step_report(capsys):
    rc = main(["solve", "--problem", "tent", "--n", "4", "--tau", "100",
               "--nu", "3"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["kind"] == "parabolic"
    assert float(report["dt"]) == pytest.approx(100.0 / 3.0)
    assert len(report["K"].split(",")) == 3
    assert len(report["residuals"].split(",")) == 3
    assert 0 <= int(report["replayed_steps"]) <= 2


def test_solve_writes_field_csv(tmp_path, capsys):
    out = tmp_path / "field.csv"
    rc = main(["solve", "--problem", "torsion", "--c", "-20", "--n", "5",
               "--out", str(out)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["out"] == str(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,u,psi,active"
    assert len(lines) == 1 + 7 * 7


def test_solve_certifies_unsolvable_load(capsys):
    rc = main(["solve", "--problem", "torsion-neumann", "--c", "-1", "--n", "5"])
    assert rc == 2
    report = kv(capsys.readouterr().out)
    assert report["status"] == "NoSolutionCertified"
    assert report["solvability"] == "NoSolution"
    assert report["K"] == "0"


def test_solve_accepts_solver_flags(capsys):
    rc = main(["solve", "--problem", "tent", "--n", "5",
               "--krylov-tol", "1e-10", "--corner", "xedge"])
    assert rc == 0
    assert kv(capsys.readouterr().out)["status"] == "Converged"


def test_a_nan_krylov_tolerance_is_refused(capsys):
    rc = main(["solve", "--problem", "torsion", "--c", "-10", "--n", "25",
               "--krylov-tol", "nan"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "plskit: error: tolerances must be finite and nonnegative\n")


@pytest.mark.parametrize("flags, message", [
    (["--c=-inf"], "the torsion load constant must be finite and negative"),
    (["--c", "nan"], "the torsion load constant must be finite and negative"),
    (["--tau", "inf", "--nu", "3"], "the horizon must be positive and finite"),
    (["--tau", "nan", "--nu", "3"], "the horizon must be positive and finite"),
])
def test_non_finite_problem_data_is_refused(flags, message, capsys):
    rc = main(["solve", "--problem", "torsion", "--n", "5", *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"plskit: error: {message}\n"


def test_usage_errors_exit_64(capsys):
    assert main(["solve", "--n", "5"]) == 64
    assert main(["solve", "--problem", "tent"]) == 64
    assert main(["solve", "--problem", "tent", "--n", "4", "--tau", "1"]) == 64
    assert main(["check"]) == 64
    assert main(["check", "--problem", "tent", "--n", "5", "--mm", "x.mtx"]) == 64
    assert main(["oracle"]) == 64
    assert main(["bench", "--table", "2", "--n", "30"]) == 64
    with pytest.raises(SystemExit) as exit_:  # the flag is gone
        main(["solve", "--problem", "tent", "--n", "5", "--sign-tol", "0"])
    assert exit_.value.code == 64
    err = capsys.readouterr().err
    assert "usage:" in err


def test_argparse_failures_exit_64():
    for argv in ([], ["frobnicate"], ["solve", "--problem", "drum", "--n", "5"],
                 ["bench", "--table", "9"], ["bench"],
                 ["solve", "--problem", "tent", "--n", "5", "--corner", "mid"],
                 ["solve", "--problem", "tent", "--n", "5", "--mm", "x.mtx"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64


def test_bench_csv_is_byte_stable(capsys):
    args = ["bench", "--table", "2", "--n", "25"]
    assert main(args) == 0
    first = capsys.readouterr()
    assert main(args) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert first.out.splitlines()[0] == "table,problem,n,c,tau,nu,step,k,k_ref,match"
    assert "2,torsion,25,-5,,,,9,9,yes" in first.out
    assert "wall time" in first.err  # human summary goes to stderr


BENCH_SUMMARIES_N25 = {
    1: """table 1
                N=25
           K       5
         K_V      13
mismatched cells: 2/2
""",
    2: """table 2
                N=25
        C=-5       9
       C=-10       5
       C=-15       4
       C=-20       4
mismatched cells: 0/4
""",
    3: """table 3
                N=25
              step 1       5
            steps 2+       5
mismatched cells: 0/20
""",
    4: """table 4
                N=25
         C=-5 step 1       9
       C=-5 steps 2+       9
        C=-10 step 1       5
      C=-10 steps 2+       5
        C=-15 step 1       4
      C=-15 steps 2+       4
        C=-20 step 1       4
      C=-20 steps 2+       4
mismatched cells: 0/80
""",
}


@pytest.mark.parametrize("table", [1, 2, 3, 4])
def test_bench_summary_is_pinned(table, capsys):
    # table 1's tent counts differ from the paper's (see ROADMAP), so two
    # of its cells mismatch
    main(["bench", "--table", str(table), "--n", "25"])
    lines = capsys.readouterr().err.splitlines(keepends=True)
    assert lines[-1].startswith("wall time: ")
    assert "".join(lines[:-1]) == BENCH_SUMMARIES_N25[table]


@pytest.mark.parametrize("table, failing, csv_row, summary", [
    (1, ("tent-neumann", None), "1,tent-neumann,25,,,,,,0,error: injected",
     ["         K_V     err"]),
    (3, ("tent", None), "3,tent,25,,10000,20,,,0,error: injected",
     ["              step 1     err", "            steps 2+     err"]),
    (4, ("torsion", -10.0), "4,torsion,25,-10,5,20,,,0,error: injected",
     ["        C=-10 step 1     err", "      C=-10 steps 2+     err"]),
])
def test_a_failed_bench_cell_keeps_its_fields_and_reads_err(
        table, failing, csv_row, summary, monkeypatch, capsys):
    def fail_one_cell(real):
        def run(spec, *args):
            if (spec.name, spec.c) == failing:
                raise NotConverged("injected", None, None)
            return real(spec, *args)
        return run

    monkeypatch.setattr(obs, "solve_obstacle", fail_one_cell(obs.solve_obstacle))
    monkeypatch.setattr(obs, "run_parabolic", fail_one_cell(obs.run_parabolic))
    assert main(["bench", "--table", str(table), "--n", "25"]) == 1
    out, err = capsys.readouterr()
    assert [r for r in out.splitlines() if "error" in r] == [csv_row]
    assert [r for r in err.splitlines() if "err" in r.split()] == summary


def test_bench_writes_csv_file(tmp_path, capsys):
    out = tmp_path / "t2.csv"
    rc = main(["bench", "--table", "2", "--n", "25", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    body = out.read_text()
    assert body.startswith("table,problem,n,c,tau,nu,step,k,k_ref,match\n")
    assert body.count("\n") == 5


def test_check_dirichlet_matrix(capsys):
    rc = main(["check", "--problem", "tent", "--n", "5"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["t1_verdict"] == "Proven"
    assert report["is_z_matrix"] == "True"
    assert report["notes"] == "irreducibly diagonally dominant"
    assert "alpha" not in report and "spectral_radius_estimate" not in report


def test_check_neumann_matrix_reports_solvability(capsys):
    rc = main(["check", "--problem", "tent-neumann", "--n", "5"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["t2_verdict"] == "Proven"
    assert float(report["left_null_min"]) > 0.0
    assert report["solvability"] == "Unique"
    assert float(report["vtb"]) < 0.0


def test_check_tent_neumann_is_not_certified_t1(capsys):
    # its row sums are rounding noise (about 1.4e-14), not dominance;
    # n = 50 puts the t2 certificate above the dense-solve limit
    for n in ("25", "50"):
        rc = main(["check", "--problem", "tent-neumann", "--n", n])
        assert rc == 0
        report = kv(capsys.readouterr().out)
        assert report["t1_verdict"] != "Proven"
        assert report["t2_verdict"] == "Proven"
        assert "threshold 1e-10" in report["notes"]
        assert report["solvability"] == "Unique"
    assert main(["check", "--problem", "tent", "--n", "25"]) == 0
    assert kv(capsys.readouterr().out)["t1_verdict"] == "Proven"


_DIRICHLET_CHECK = {"is_z_matrix": "True", "is_irreducible": "True",
                    "t1_verdict": "Proven"}


def _neumann_check(null_min, residual, vtb):
    return {
        "is_z_matrix": "True", "is_irreducible": "True",
        "t1_verdict": "Disproven", "t2_verdict": "Proven",
        "left_null_min": null_min, "left_null_max": 1.0,
        "right_null_min": null_min, "right_null_max": 1.0,
        "notes": ("singular: positive vector found in the null space; "
                  f"positive null vectors, residual {residual} ||T||_inf "
                  "<= threshold 1e-10"),
        "solvability": "Unique", "vtb": vtb,
    }


# plskit check on every problem at N = 25 and 200, torsion at C = -7.5:
# text lines exactly, numbers to 1e-12 relative. The Neumann null vectors
# are exactly 1 at both sizes, taken from the row sums with no solve
_CHECK_OUTPUT = {
    ("tent", 25): {**_DIRICHLET_CHECK, "notes": "irreducibly diagonally dominant"},
    ("tent", 200): {**_DIRICHLET_CHECK, "notes": "irreducibly diagonally dominant"},
    # torsion rows sum to noise of either sign at N = 25
    ("torsion", 25): {**_DIRICHLET_CHECK,
                      "notes": "T x > 0 for the positive solution x of T x = 1"},
    ("torsion", 200): {**_DIRICHLET_CHECK,
                       "notes": "irreducibly diagonally dominant"},
    ("tent-neumann", 25): _neumann_check(1.0, "1.7e-17", -625.00000000000693),
    ("tent-neumann", 200): _neumann_check(1.0, "0.0e+00", -40000.000000002794),
    ("torsion-neumann", 25): _neumann_check(1.0, "4.2e-17", -2087.5000000000127),
    ("torsion-neumann", 200): _neumann_check(1.0, "0.0e+00", -139199.99999999785),
}


@pytest.mark.parametrize("problem, n", list(_CHECK_OUTPUT))
def test_check_output_is_pinned(problem, n, capsys):
    argv = ["check", "--problem", problem, "--n", str(n)]
    if problem.startswith("torsion"):
        argv += ["--c", "-7.5"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report = kv("\n".join(lines))
    expected = _CHECK_OUTPUT[problem, n]
    assert [line.partition("=")[0] for line in lines] == list(expected)
    for key, value in expected.items():
        if isinstance(value, float):
            assert float(report[key]) == pytest.approx(value, rel=1e-12, abs=0)
        else:
            assert report[key] == value


def _src_env():
    """Environment for a fresh interpreter that imports this plskit."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(plskit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "plskit.cli", "solve", "--problem", "tent",
         "--n", "10", "--tau", "1e3", "--nu", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    proc.stdout.close()  # the reader is gone before the first line
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1


def test_cli_import_loads_no_third_party_module_but_numpy():
    # a cold scipy.sparse import alone costs more than a whole CLI start,
    # so the solve path may pull in nothing beyond numpy
    code = (
        "import sys; before = set(sys.modules); import plskit.cli; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(' '.join(sorted(new - set(sys.stdlib_module_names))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_src_env(), timeout=120, check=True,
    ).stdout
    assert out.split() == ["numpy", "plskit"]


def test_check_matrix_market_file(tmp_path, capsys):
    path = tmp_path / "notz.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n1 1 2.0\n1 2 1.0\n2 2 2.0\n"
    )
    rc = main(["check", "--mm", str(path)])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["t1_verdict"] == "Disproven"


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_empty_matrix_market_file_fails(tmp_path, capsys, command):
    path = tmp_path / "empty.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
    rc = main([command, "--mm", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "plskit: error: matrix is 0 x 0, with a zero dimension\n"


def test_check_missing_file_fails(capsys):
    rc = main(["check", "--mm", "no-such-file.mtx"])
    assert rc == 1
    assert "plskit: error:" in capsys.readouterr().err


def test_check_truncated_matrix_market_file_fails(tmp_path, capsys):
    path = tmp_path / "short.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 2.0\n"
    )
    rc = main(["check", "--mm", str(path)])
    assert rc == 1
    assert "plskit: error:" in capsys.readouterr().err


def test_oracle_t1_sample_agrees(capsys):
    rc = main(["oracle", "--problem", "sample-t1"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["patterns_tested"] == "4"
    assert report["point_solutions"] == "1"
    assert report["agree"] == "yes"


def test_oracle_family_sample(capsys):
    rc = main(["oracle", "--problem", "sample-t2-family"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["families"] == "1"
    assert report["family_1_alpha"] == "[0,inf]"
    assert report["solver_status"] == "Converged"
    assert report["agree"] == "yes"


def test_oracle_infeasible_sample(capsys):
    rc = main(["oracle", "--problem", "sample-t2-infeasible"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["point_solutions"] == "0"
    assert report["families"] == "0"
    assert report["solver_status"] == "NoSolutionCertified"
    assert report["agree"] == "yes"


def test_oracle_refuses_large_grids(capsys):
    rc = main(["oracle", "--problem", "tent", "--n", "5"])
    assert rc == 1
    assert "plskit: error:" in capsys.readouterr().err


def test_oracle_checks_a_small_assembled_problem(capsys):
    rc = main(["oracle", "--problem", "torsion", "--c", "-20", "--n", "3"])
    assert rc == 0
    report = kv(capsys.readouterr().out)
    assert report["patterns_tested"] == "512"
    assert report["agree"] == "yes"
