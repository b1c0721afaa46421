"""Count code lines of Python files.

A code line is a line that is not blank, not comment-only and not inside a
module, class or function docstring found by ``ast``. Strings that are not
docstrings count as code.

Usage: python3 tools/code_lines.py [paths ...]   (default: src/bathdyn)

Each path is a .py file or a directory searched for .py files. Prints one
"<count>  <file>" line per file, then "<total>  total".
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers (1-based) covered by the docstrings in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source text."""
    skip = docstring_lines(ast.parse(text))
    # comment-only lines: a comment token starts the line's text (a line of a
    # string literal that starts with '#' is code)
    skip.update(tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip())
    return sum(1 for n, line in enumerate(text.splitlines(), start=1)
               if n not in skip and line.strip())


def python_files(path: str) -> list[str]:
    if not os.path.isdir(path):
        return [path]
    return sorted(os.path.join(root, name) for root, _, names in os.walk(path)
                  for name in names if name.endswith(".py"))


def main(argv: list[str]) -> int:
    files = [f for path in (argv or ["src/bathdyn"]) for f in python_files(path)]
    total = 0
    for name in files:
        with open(name, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
