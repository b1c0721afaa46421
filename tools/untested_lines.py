"""List the statements of src/bathdyn that no test runs.

Runs pytest in this process under a sys.settrace plugin that records the
lines run in frames of files under src/bathdyn, then prints each statement
none of whose lines ran: a simple statement's lines run from its first to
its last, and a compound statement's (an if, a loop, a def with its
decorators) take in its body, so it is listed only when nothing in it ran.
Docstrings are no statements here (code_lines.docstring_lines). Only the
main thread is traced (bathdyn starts no threads), and lines that run only
in a subprocess that a test starts are not seen. Each file's text is read
when tracing starts, and the lines are mapped to statements with that text.

Usage: python3 tools/untested_lines.py [pytest args ...]   (from the repository root)

The default pytest args run the tier-1 suite: -q --continue-on-collection-errors
-p no:cacheprovider. Prints one "<file>:<line>: <statement's first line>" per
untested statement, then "<count> untested statements", and exits with
pytest's exit code.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from code_lines import docstring_lines, python_files  # noqa: E402

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
                    "bathdyn")
_DEFAULT_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def untested_statements(text: str, ran: set[int]) -> list[int]:
    """First lines of the statements of the Python source text none of whose
    lines (decorators included) is in ran, in order. global and nonlocal
    declarations compile to nothing that runs, and are left out."""
    tree = ast.parse(text)
    skip = docstring_lines(tree)
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and not isinstance(node, (ast.Global, ast.Nonlocal))
                and node.lineno not in skip):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            if ran.isdisjoint(range(first, node.end_lineno + 1)):
                out.append(node.lineno)
    return sorted(out)


class Tracer:
    """pytest plugin, and context, that records the (file, line) pairs run in
    frames whose file lies under root; the trace function it replaces is put
    back when it stops. texts holds the text of each Python file under root
    as it was read when tracing started, which report maps the lines with,
    so an edit made to a file during the run moves none of them."""

    def __init__(self, root: str):
        self.dir = root
        self.root = os.path.realpath(root) + os.sep
        self.lines: dict[str, set[int]] = defaultdict(set)
        self.texts: dict[str, str] = {}
        self._mine: dict[str, bool] = {}
        self._prev = None

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        mine = self._mine.get(name)
        if mine is None:
            mine = self._mine[name] = os.path.realpath(name).startswith(self.root)
        return self._line if mine else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines[os.path.realpath(frame.f_code.co_filename)].add(frame.f_lineno)
        return self._line

    def __enter__(self):
        for name in python_files(self.dir):
            with open(name, encoding="utf-8") as fh:
                self.texts[name] = fh.read()
        self._prev = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._prev)

    def pytest_sessionstart(self, session):
        self.__enter__()

    def pytest_sessionfinish(self, session, exitstatus):
        self.__exit__()


def report(texts: dict[str, str], lines: dict[str, set[int]]) -> int:
    """Print each untested statement of the files, given by name and the text
    their lines were traced against, then their count; return it."""
    count = 0
    for name, text in texts.items():
        source = text.splitlines()
        for n in untested_statements(text, lines.get(os.path.realpath(name), set())):
            print(f"{os.path.relpath(name)}:{n}: {source[n - 1].strip()}")
            count += 1
    print(f"{count} untested statements")
    return count


def main(argv: list[str]) -> int:
    import pytest

    tracer = Tracer(_SRC)
    code = pytest.main(argv or _DEFAULT_ARGS, plugins=[tracer])
    report(tracer.texts, tracer.lines)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
