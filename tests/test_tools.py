import hashlib
import importlib.util
import pathlib
import re
import subprocess
import sys

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
    # solve_parabolic_pls
    run = subprocess.run(
        [sys.executable, str(_TOOLS / "solver_bits.py"), "--workloads", "certify",
         "parabolic", "--seeds", "1"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 3
    digests = []
    for workload, line in zip(("certify", "parabolic"), lines):
        match = re.fullmatch(rf"{workload} +seed 1 +\d+ cases +([0-9a-f]{{64}})", line)
        assert match, line
        digests.append(match[1])
    roll_up = re.fullmatch(r"all +([0-9a-f]{64})", lines[2])
    assert roll_up
    assert roll_up[1] == hashlib.sha256("".join(digests).encode()).hexdigest()
