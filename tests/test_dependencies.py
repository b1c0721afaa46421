"""numpy is the package's one runtime dependency; scipy, in the test extra,
serves only as an oracle for the numpy code that stands in for it."""

import ast
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bathdyn
from bathdyn.checks import _welch

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_dependencies() -> set[str]:
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10
        block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
        specs = re.findall(r'"([^"]+)"', block)
    else:
        specs = tomllib.loads(text)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in specs}


def _third_party_imports() -> set[str]:
    names = set()
    for path in pathlib.Path(bathdyn.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"bathdyn"}


def test_declared_dependencies_are_the_imported_ones():
    """Every module the package imports, at the top or inside a function, is
    either the standard library, bathdyn itself, or a declared dependency."""
    assert _declared_dependencies() == {"numpy"}
    assert _third_party_imports() == _declared_dependencies()


def test_welch_matches_scipy():
    """checks._welch is scipy.signal.welch with a two-sided, undetrended
    output, on random series and even segment lengths."""
    signal = pytest.importorskip("scipy.signal")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 256), st.integers(0, 3000), st.integers(0, 2**32 - 1),
           st.floats(1e-2, 1e3))
    def check(half, extra, seed, fs):
        nperseg = 2 * half
        x = np.random.default_rng(seed).standard_normal(nperseg + extra)
        freqs, psd = _welch(x, fs, nperseg)
        want_f, want_psd = signal.welch(x, fs=fs, nperseg=nperseg,
                                        return_onesided=False, detrend=False)
        np.testing.assert_array_equal(freqs, want_f)
        np.testing.assert_allclose(psd, want_psd, rtol=1e-12, atol=0.0)

    check()
