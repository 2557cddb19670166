"""Bound states and thermodynamics of a screened three-term exponential potential.

The package computes closed-form energy levels, radial wavefunctions and
canonical-ensemble quantities for V(r) built from Manning-Rosen and
exponential-Yukawa pieces, together with an independent numerical solver of
the underlying quantization condition so every closed form can be checked.
"""

from .errors import (
    ComplexBranchError,
    ConfigError,
    DomainError,
    MreyError,
    NoRealDeltaError,
    NoRootError,
    NumericalError,
    RangeError,
    ResolutionError,
)
from .potential import (
    PhysicalConstants,
    PotentialParams,
    SpecialCase,
    SpectralCoefficients,
    classify_special_case,
    evaluate_potential,
    greene_aldrich,
    spectral_coefficients,
)
from .spectrum import (
    EnergyLevel,
    SpectrumTable,
    compact_energy,
    energy,
    energy_long_form,
    energy_manning_rosen,
    energy_yukawa,
    lambda_max,
    spectrum_table,
)
from .wavefunction import RadialWave, build_wave, count_nodes, default_node_grid
from .thermo import (
    ThermoCurve,
    ThermoInput,
    ThermoState,
    thermo_curve,
    thermo_state,
)
from .recovery import RecoveryReport, channel_bound, fit_couplings

__version__ = "0.1.0"

__all__ = [
    "ComplexBranchError",
    "ConfigError",
    "DomainError",
    "MreyError",
    "NoRealDeltaError",
    "NoRootError",
    "NumericalError",
    "RangeError",
    "ResolutionError",
    "PhysicalConstants",
    "PotentialParams",
    "SpecialCase",
    "SpectralCoefficients",
    "classify_special_case",
    "evaluate_potential",
    "greene_aldrich",
    "spectral_coefficients",
    "EnergyLevel",
    "SpectrumTable",
    "compact_energy",
    "energy",
    "energy_long_form",
    "energy_manning_rosen",
    "energy_yukawa",
    "lambda_max",
    "spectrum_table",
    "RadialWave",
    "build_wave",
    "count_nodes",
    "default_node_grid",
    "ThermoCurve",
    "ThermoInput",
    "ThermoState",
    "thermo_curve",
    "thermo_state",
    "RecoveryReport",
    "channel_bound",
    "fit_couplings",
    "__version__",
]
