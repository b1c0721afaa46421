"""The package's public names are exactly the modules' public names, and the
README's library example runs on them."""

import pathlib
import re

import pytest

import bathdyn
from bathdyn import (
    decoherence,
    determinants,
    fokker_planck,
    kernels,
    langevin,
    noise,
    potentials,
)

MODULES = (kernels, determinants, noise, potentials, langevin, fokker_planck,
           decoherence)

# the package's public names, sorted: a change to them shows here, in the
# diff that makes it
PUBLIC_NAMES = [
    "BathParams", "ComparisonRecord", "DecoherenceParams", "DensityField", "DiscreteBath",
    "DoubleWell", "Drude", "EnsembleStats", "ExpectationResult", "FactorizationError",
    "FirstOrderOp", "Harmonic", "InertialState", "KramersOperator", "MarginalRootError",
    "MasterOperator", "NoiseSpec", "Ohmic", "Ordering", "Oscillator", "ParameterError",
    "PhaseGrid", "Polynomial", "Potential", "ProbField", "Scheme", "SecondOrderOp", "SimConfig",
    "SmoluchowskiOperator", "SpectralDensity", "StabilityError", "__version__",
    "bath_correlators", "colored_noise", "compare_langevin_fp", "decoherence_params",
    "derive_rng", "estimate_autocorr", "first_order_det_ratio", "freq_shift",
    "friction_kernel_freq", "friction_kernel_time", "gaussian_field_1d", "gaussian_field_2d",
    "gaussian_pure_state", "hbar_coth", "interference_amplitude", "kramers_step",
    "master_step", "noise_expectation", "noise_kernel_freq", "noise_kernel_time",
    "regularized_log_integral", "run_ensemble", "second_order_det_ratio",
    "smoluchowski_step", "spectral_density", "step_inertial", "step_overdamped",
    "step_overdamped_postpoint", "superposition_state", "thermal_green", "trace_log_rate",
    "white_noise", "wigner_transform", "xcoth",
]


def test_package_all_is_the_pinned_list_of_public_names():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(bathdyn.__all__) == PUBLIC_NAMES


def test_package_all_is_the_union_of_the_module_lists():
    names = bathdyn.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(bathdyn, name)] == []
    union = {name for mod in MODULES for name in mod.__all__}
    assert set(names) == {"__version__"} | union
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(bathdyn, name) is getattr(mod, name), name
    assert {"SpectralDensity", "ExpectationResult"} <= set(names)


def test_cli_and_checks_step_through_the_public_operators():
    """Neither module holds a private stepper or one of the five per-step
    wrappers, which build an operator on every call: each steps, and reads
    dt_max, through an operator built once."""
    from bathdyn import checks, cli

    operators = {"SmoluchowskiOperator", "KramersOperator", "MasterOperator"}
    assert operators <= set(bathdyn.__all__)
    private = {"_advance", "_Kramers", "_Smoluchowski", "_master_operator", "_operator"}
    wrappers = {"master_step", "kramers_step", "smoluchowski_step", "kramers_dt_max",
                "smoluchowski_dt_max"}
    for mod in (cli, checks):
        assert private.isdisjoint(vars(mod)), mod.__name__
        assert wrappers.isdisjoint(vars(mod)), mod.__name__


def test_readme_library_example_runs(capsys):
    """The README's python block runs as written, through the public names,
    and prints its two lines, captured here rather than left in the suite's
    output."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    [block] = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    stats, field = ns["stats"], ns["field"]
    assert stats.n_traj == 20000
    assert abs(field.mass - 1.0) < 1e-12  # momenta-left conserves mass
    assert field.t == pytest.approx(500 * 0.5e-3)
    assert capsys.readouterr().out.splitlines() == [
        f"{stats.mean_x} {stats.var_x}", f"{field.mass} {field.moments()}"]
