import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
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
