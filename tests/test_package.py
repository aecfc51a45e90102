"""The package's public surface: each module's ``__all__``, exported once."""

import staggered_xx
from staggered_xx import correlations, entanglement, ground, model, oracle, quadrature, thermo

MODULES = (model, quadrature, thermo, correlations, ground, entanglement, oracle)

EXPORTED = {
    "ChainParams", "Thermal", "PhaseRegion", "theta_of_q", "theta_bounds",
    "critical_fields", "xi", "region_q", "band_crossings", "classify_region",
    "QuadSpec", "QuadResult", "ToleranceNotReached", "integrate", "require_converged",
    "DEFAULT_QUAD",
    "ZeroTemperatureUnsupported", "ThermoPoint", "ln_z_per_site", "internal_energy",
    "magnetization", "staggered_magnetization", "thermo_point",
    "CorrelatorPair", "SigmaZ", "CorrelationSet", "g1", "g_even", "g_odd", "g_site",
    "sigma_z", "sigma_z_pair", "correlation_set", "zz_correlator", "xx_plus_yy",
    "GroundReport", "QcpScan", "energy", "magnetization_t0", "staggered_magnetization_t0",
    "meyer_wallach", "ground_report", "qcp_scan",
    "ConcurrencePair", "WitnessValue", "InvalidState", "NegativeRadicand",
    "DegenerateCoupling", "wootters", "c1", "c2", "witness",
    "DimensionTooLarge", "FiniteChainSpec", "EDResult", "FreeFermionResult", "dense_ed",
    "spin_ring", "finite_free_fermion",
    "__version__",
}


def test_package_exports_each_module_all_once():
    names = staggered_xx.__all__
    assert len(names) == len(set(names))
    assert set(names) == EXPORTED
    # the package list is the modules' lists, so the two cannot drift apart
    assert names == [name for mod in MODULES for name in mod.__all__] + ["__version__"]


def test_every_exported_name_resolves_to_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(staggered_xx, name) is getattr(mod, name), (mod.__name__, name)
    assert isinstance(staggered_xx.__version__, str)
