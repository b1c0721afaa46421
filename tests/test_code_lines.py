"""The code-line counter in tools/code_lines.py."""

import importlib.util
import os

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# the 6 code lines are marked: docstrings, comments and blank lines do not
# count, a string literal that is no docstring does
_FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
x = 1  # code with a comment (1)


def f():  # (2)
    """Function docstring."""
    return "a string literal"  # (3)


class C:  # (4)
    """Class docstring,

    with a blank line and # no comment."""

    s = """a string that is no docstring (5)
# is code (6)"""
'''


def test_code_lines_skips_docstrings_comments_and_blanks_only():
    assert code_lines.code_lines(_FIXTURE) == 6


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(_FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("y = 2\n\n# end\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["6", str(tmp_path / "pkg" / "a.py")], ["1", str(tmp_path / "pkg" / "b.py")],
        ["7", "total"]]
