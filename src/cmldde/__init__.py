"""Analysis toolkit for a two-compartment delay model of blood cell production.

The resting-cell density obeys a scalar delay differential equation with
Hill-type feedback; the proliferating-cell density is slaved to it through a
forced linear equation. The package computes equilibria and their stability,
locates the delay thresholds where oscillations set in, integrates both
densities, and provides scan drivers for the bistable regime near degenerate
criticality.

Each layer module is imported on first use of one of its names (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: each layer module and the public names it exports through the package
_EXPORTS = {
    "errors": ("ConditioningError", "DomainError", "IntegrationError", "NoHopfError",
               "PreconditionError", "RootNotFoundError"),
    "model": ("Equilibrium", "EquilibriumKind", "LinearizationData", "ModelParams",
              "b1_coefficient", "b1_value", "equilibria", "feedback", "gamma_of",
              "positive_equilibrium"),
    "linear_analysis": ("CharacteristicRoot", "StabilityState", "StabilityVerdict",
                        "VerdictSource", "characteristic_residual", "classify_positive",
                        "classify_trivial", "leading_roots"),
    "hopf": ("BautinRow", "HopfPoint", "HopfSurface", "TableCheck", "hopf_delay", "hopf_omega",
             "hopf_point", "load_bautin_table", "surface_grid", "verify_table"),
    "dde_sim": ("ConstantHistory", "EigenmodeHistory", "History", "Trajectory",
                "eigenmode_history", "integrate_y"),
    "x_solver": ("PeriodicInit", "integrate_x", "periodic_response", "periodic_x0"),
    "explorer": ("Criticality", "CriticalityReport", "CycleEstimate", "OrbitClass", "OrbitKind",
                 "ProbeResult", "ScanResult", "Zone", "ZoneReport", "bistability_scan",
                 "classify_orbit", "criticality_probe", "cycle_estimate", "zone_classify"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    # runs only while name is unbound: the import binds a submodule and this
    # binds an exported name, so later lookups are plain namespace hits
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
