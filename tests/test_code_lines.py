import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts as code


# a comment-only line
def f(x):
    """Function docstring."""
    y = (x +
         1)
    return """a string
that spans
three lines"""


class C:
    """Class docstring."""

    z = 1
'''


def test_code_lines_skips_docstrings_comments_and_blanks():
    # counted: import, def, y = (x +, 1), the three lines of the returned
    # string, class, z = 1
    assert code_lines.code_lines(SOURCE) == 9


def test_code_lines_counts_a_multiline_token_on_each_line():
    assert code_lines.code_lines("s = '''a\nb\nc'''\n") == 3
    assert code_lines.code_lines("s = 'abc'\n") == 1


def test_code_lines_main_totals_the_package(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n# c\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.split("\n")
    assert [line.split() for line in out if line] == [["1", "a.py"], ["2", "b.py"], ["3", "total"]]
