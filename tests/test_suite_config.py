"""The suite's own pytest configuration: a failing test is reported as a
failure, and the tests after it still run."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

_TWO_TESTS = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_suite(tmp_path):
    """Every warning is an error in this suite, yet hypothesis's report of a
    failing example imports modules that warn (libcst on mypy_extensions):
    that report must come out as one failure, not an INTERNALERROR that ends
    the session before the next test."""
    path = tmp_path / "test_two.py"
    path.write_text(_TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(path)],
        cwd=tmp_path, capture_output=True, text=True)
    printed = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in printed
    assert "1 failed, 1 passed" in printed
