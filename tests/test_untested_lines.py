"""The untested-statement lister in tools/untested_lines.py."""

import importlib.util
import os
import sys

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "untested_lines.py")
_spec = importlib.util.spec_from_file_location("untested_lines", _TOOL)
untested_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested_lines)

# statements by first line: 4 def f, 6 if, 7 return 1, 8 raise (over two
# lines), 13 def g (decorated on 12), 14 return 2; docstrings are none
_FIXTURE = '''"""Module docstring."""


def f(x):
    """Function docstring."""
    if x > 0:
        return 1
    raise ValueError(
        "negative")


@staticmethod
def g():
    return 2
'''


def test_untested_statements_lists_each_statement_none_of_whose_lines_ran():
    assert untested_lines.untested_statements(_FIXTURE, set()) == [4, 6, 7, 8, 13, 14]
    # a def runs on its decorator's line, a raise on its second line; a
    # compound statement counts as run when a line of its body ran
    assert untested_lines.untested_statements(_FIXTURE, {4, 6, 9, 12}) == [7, 14]
    assert untested_lines.untested_statements(_FIXTURE, {7, 14}) == [8]
    # a declaration runs no line of its own
    assert untested_lines.untested_statements("def f():\n    global x\n    x = 1\n",
                                              {1, 3}) == []


def test_tracer_records_the_lines_run_under_its_root_and_restores_the_trace(tmp_path,
                                                                          capsys):
    """The fixture module runs, and f(1) with it, under a tracer rooted at its
    directory: only the raise and g's body are left; a file outside the root
    is not recorded, and the trace function before is back afterwards."""
    mine = tmp_path / "pkg" / "mod.py"
    mine.parent.mkdir()
    mine.write_text(_FIXTURE)
    other = tmp_path / "other.py"
    other.write_text("def h():\n    return 3\n\n\nh()\n")
    before = sys.gettrace()
    with untested_lines.Tracer(str(mine.parent)) as tracer:
        space = {}
        exec(compile(_FIXTURE, str(mine), "exec"), space)
        space["f"](1)
        exec(compile(other.read_text(), str(other), "exec"), {})
    assert sys.gettrace() is before
    assert list(tracer.lines) == [os.path.realpath(mine)]
    assert untested_lines.report(tracer.texts, tracer.lines) == 2
    rel = os.path.relpath(mine)
    assert capsys.readouterr().out.splitlines() == [
        f"{rel}:8: raise ValueError(", f"{rel}:14: return 2", "2 untested statements"]


def test_report_maps_the_lines_with_the_text_read_when_tracing_started(tmp_path, capsys):
    """A traced file edited during the run: two comment lines put at its top
    after its code ran move no statement, since the lines are mapped with
    the text read when tracing started. (Mapped with the edited text, as
    the report did when it read the files at its end, five statements were
    listed: the if, both returns, the raise and def g.)"""
    mine = tmp_path / "pkg" / "mod.py"
    mine.parent.mkdir()
    mine.write_text(_FIXTURE)
    with untested_lines.Tracer(str(mine.parent)) as tracer:
        space = {}
        exec(compile(_FIXTURE, str(mine), "exec"), space)
        mine.write_text("# edited\n# during the run\n" + _FIXTURE)
        space["f"](1)
    assert tracer.texts == {str(mine): _FIXTURE}
    assert untested_lines.report(tracer.texts, tracer.lines) == 2
    rel = os.path.relpath(mine)
    assert capsys.readouterr().out.splitlines() == [
        f"{rel}:8: raise ValueError(", f"{rel}:14: return 2", "2 untested statements"]
