"""The package's public names are exactly the modules' public names."""

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
    from bathdyn import checks, cli

    operators = {"SmoluchowskiOperator", "KramersOperator", "MasterOperator"}
    assert operators <= set(bathdyn.__all__)
    private = {"_advance", "_Kramers", "_Smoluchowski", "_master_operator", "_operator"}
    for mod in (cli, checks):
        assert private.isdisjoint(vars(mod)), mod.__name__
