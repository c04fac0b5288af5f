"""scripts/code_lines.py, run by path, on a snippet whose code lines are
counted by hand."""

import runpy
from pathlib import Path

CODE_LINES = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"))["code_lines"]

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


class K:
    """A class docstring."""

    x = [
        1,  # trailing

        2,
    ]

    def f(self):
        """A function docstring."""
        s = """a string that is
no docstring"""
        "a bare string after the first statement"
        return s
'''


def test_counts_the_lines_that_hold_code():
    """import, class, the four lines of x's list (not the blank one
    inside it), def, the two lines of s, the bare string and return."""
    assert CODE_LINES(SNIPPET) == 11


def test_an_empty_file_and_a_docstring_alone_hold_no_code():
    assert CODE_LINES("") == 0
    assert CODE_LINES('"""Only a docstring."""\n\n# and a comment\n') == 0
