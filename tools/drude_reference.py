"""Reference values of the quantum Drude noise kernel near its poles and
near its series cap.

Recomputes the literals of tests/test_kernels.py's
test_quantum_drude_pole_band_oracle and test_quantum_drude_series_cap_edge
at 40 digits with mpmath (not a bathdyn dependency). With nu1 = 2 pi k_bt / hbar, r = omega_d / nu1 and
z = exp(-nu1 |t|), the kernel's thermal series sums in closed form:

    K(t) = (omega_d / 2) pi r cot(pi r) exp(-omega_d |t|)
           + nu1 (r^2 / 2) z [Phi(z, 1, 1 - r) + Phi(z, 1, 1 + r)]

where Phi is the Lerch transcendent (mpmath.lerchphi); the log term of
kernels._drude_time_kernel cancels inside it. The float inputs are taken as
exact, so the values are those of the kernel at the inputs the test passes.

The grid: hbar = 1 and k_bt = 1 / 2 pi (nu1 = 1 to roundoff), omega_d = N +
delta for N in 1, 3, 30, 300 and delta in +-1e-2, 1e-3, 1e-4, 1e-6, 1e-8,
each at omega_d |t| = 0.01 and 0.1, where |K| exceeds the kernel scale
omega_d^2 / nu1. Only the omega_d that kernels._pole_roundoff admits are
printed; the test expects every other one to be refused.

The series cap: omega_d = 43.39 at the same hbar and k_bt, sampled at 1, 2
and 3 times t_min = (16 / omega_d) / 16386, the smallest |t| of the kernels
command's default time grid, where the series' exponential cut-off,
45 / (nu1 t_min) + 1 = 1,999,657 terms, is just within kernels._SERIES_CAP.

Usage: python3 tools/drude_reference.py   (from the repository root)
Prints one "omega_d: (K(0.01 / omega_d), K(0.1 / omega_d))," line each,
then "omega_d: (K(t_min), K(2 t_min), K(3 t_min))," for the series cap.
"""

from __future__ import annotations

import math
import os
import sys

import mpmath

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from bathdyn.kernels import _POLE_TOL, _pole_roundoff  # noqa: E402

HBAR, K_BT = 1.0, 0.15915494309189535
POLES = (1, 3, 30, 300)
OFFSETS = (1e-2, 1e-3, 1e-4, 1e-6, 1e-8)
OMEGA_T = (0.01, 0.1)
EDGE_OMEGA_D, EDGE_STEPS = 43.39, (1.0, 2.0, 3.0)


def kernel(omega_d: float, hbar: float, k_bt: float, t: float) -> mpmath.mpf:
    """K(t) of the quantum Drude bath at 40 digits, from the closed form."""
    with mpmath.workdps(40):
        wd, t = mpmath.mpf(omega_d), abs(mpmath.mpf(t))
        nu1 = 2 * mpmath.pi * mpmath.mpf(k_bt) / mpmath.mpf(hbar)
        r, z = wd / nu1, mpmath.exp(-nu1 * t)
        pole = wd / 2 * mpmath.pi * r * mpmath.cot(mpmath.pi * r) * mpmath.exp(-wd * t)
        return pole + nu1 * r**2 / 2 * z * (mpmath.lerchphi(z, 1, 1 - r)
                                             + mpmath.lerchphi(z, 1, 1 + r))


def grid() -> list[float]:
    """Every omega_d of the test's grid, in order."""
    return [n + sign * d for n in POLES for d in OFFSETS for sign in (1, -1)]


def main() -> None:
    nu1 = 2.0 * math.pi * K_BT / HBAR  # as the kernel takes it
    for omega_d in grid():
        if _pole_roundoff(omega_d, nu1) > _POLE_TOL:
            continue
        values = [float(kernel(omega_d, HBAR, K_BT, c / omega_d)) for c in OMEGA_T]
        print(f"    {omega_d!r}: ({', '.join(map(repr, values))}),")
    t_min = 16.0 / EDGE_OMEGA_D / 16386
    values = [float(kernel(EDGE_OMEGA_D, HBAR, K_BT, m * t_min)) for m in EDGE_STEPS]
    print(f"    {EDGE_OMEGA_D!r}: ({', '.join(map(repr, values))}),")


if __name__ == "__main__":
    main()
