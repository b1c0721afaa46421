"""Full acceptance suite: one test per end-to-end numerical criterion.

Each test prints its own [PASS]/[FAIL] line with the measured detail, so a
plain pytest run doubles as the acceptance report. The details themselves are
pinned, so a refactor that moves any verdict's figures shows here.
"""

import pytest

from bathdyn.checks import run_all


@pytest.fixture(scope="module")
def results():
    return {r.index: r for r in run_all()}


def _report(results, index):
    r = results[index]
    tag = "PASS" if r.passed else "FAIL"
    print(f"[{tag}] {r.index}. {r.name}: {r.detail}")
    assert r.passed, f"{r.name}: {r.detail}"


def test_retarded_determinant_unity(results):
    _report(results, 1)


def test_limit_determinants(results):
    _report(results, 2)


def test_trace_log_rates(results):
    _report(results, 3)


def test_kramers_ordering_dichotomy(results):
    _report(results, 4)


def test_smoluchowski_ordering_dichotomy(results):
    _report(results, 5)


def test_ensemble_grid_agreement(results):
    _report(results, 6)


def test_stationarity(results):
    _report(results, 7)


def test_kernel_contracts(results):
    _report(results, 8)


def test_interference_decay(results):
    _report(results, 9)


def test_reproducibility(results):
    _report(results, 10)


# every criterion's detail as paper-checks writes it to checks.jsonl (version 0.9.0)
DETAILS = {
    1: "300 random-coefficient ratios, max |r - 1| = 0 (bitwise)",
    2: "rel errors 2.00e-04 (target e^2), 5.00e-05 (target e) at N = 1e4; "
       "convergence orders 0.998, 0.999",
    3: "sharp-cutoff rate 1.42e-14 (bound 0.002); "
       "quadrature vs (gamma - mu)/2 off by 0.00e+00",
    4: "conserving drift 0.00e+00 over 1000 steps; "
       "symmetric mass(t=2.002) off e^(-gamma t/2) by 5.55e-15 on 128x128",
    5: "conserving drift 2.22e-16 over 1000 steps; "
       "symmetric mass(t=1.001) off e^(-w0^2 t/2gamma) by 5.73e-14",
    6: "L1 = 0.0140 vs budget 0.0492; "
       "worst moment deviation 0.65 of its 3-s.e. allowance",
    7: "<v^2> = 0.50332 vs kT/M = 0.5 (0.66 s.e.); "
       "double-well steady state L1 vs Boltzmann = 0.0001",
    8: "K(0) exact for all variants; |area - 1| = 2.05e-07; "
       "periodogram max rel dev 0.037 over |w| < 5 w_D (4-bin averages)",
    9: "pure-sink substep dev 0.00e+00; slope/(Lambda d^2) = 1.0110; "
       "trace drift 6.48e-14; Lambda l_e^2 == 2 pi gamma exactly",
    10: "two seeded runs, 3 CSV files byte-compared, mismatches: none",
}


def test_details_are_unchanged(results):
    assert {i: r.detail for i, r in results.items()} == DETAILS
