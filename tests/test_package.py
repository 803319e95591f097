"""The package namespace: the names it exports, and the layers a start-up loads.

`import cmldde` loads no layer module; each loads on first use of one of its
names. The start-up tests run in a fresh interpreter, where nothing else has
loaded a layer yet.
"""

import importlib
import os
import subprocess
import sys

import pytest

import cmldde

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

#: each layer module and the names the package exports from it
EXPORTS = {
    "errors": ["ConditioningError", "DomainError", "IntegrationError", "NoHopfError",
               "PreconditionError", "RootNotFoundError"],
    "model": ["Equilibrium", "EquilibriumKind", "LinearizationData", "ModelParams",
              "b1_coefficient", "b1_value", "equilibria", "feedback", "gamma_of",
              "positive_equilibrium"],
    "linear_analysis": ["CharacteristicRoot", "StabilityState", "StabilityVerdict",
                        "VerdictSource", "characteristic_residual", "classify_positive",
                        "classify_trivial", "leading_roots"],
    "hopf": ["BautinRow", "HopfPoint", "HopfSurface", "TableCheck", "hopf_delay", "hopf_omega",
             "hopf_point", "load_bautin_table", "surface_grid", "verify_table"],
    "dde_sim": ["ConstantHistory", "EigenmodeHistory", "History", "Trajectory",
                "eigenmode_history", "integrate_y"],
    "x_solver": ["PeriodicInit", "integrate_x", "periodic_response", "periodic_x0"],
    "explorer": ["Criticality", "CriticalityReport", "CycleEstimate", "OrbitClass", "OrbitKind",
                 "ProbeResult", "ScanResult", "Zone", "ZoneReport", "bistability_scan",
                 "classify_orbit", "criticality_probe", "cycle_estimate", "zone_classify"],
}


def run_fresh(code):
    """stdout of `code` run in a fresh interpreter that imports cmldde from src/."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), check=True).stdout


def test_all_is_the_exports_and_their_modules():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 58
    assert cmldde.__all__ == sorted([*EXPORTS, *names])
    assert set(cmldde.__all__) <= set(dir(cmldde))
    assert {"__version__", "__doc__"} <= set(dir(cmldde))


def test_exports_are_their_home_objects():
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"cmldde.{home}")
        assert getattr(cmldde, home) is module
        for name in names:
            assert getattr(cmldde, name) is getattr(module, name), name


def test_unknown_attribute_raises_the_module_error():
    with pytest.raises(AttributeError) as info:
        cmldde.no_such_name
    assert str(info.value) == "module 'cmldde' has no attribute 'no_such_name'"


def test_kernel_warmup_loads_no_layer():
    # the start-up the benchmark times: the package and the kernels, nothing else
    out = run_fresh("import sys, cmldde; from cmldde import _kernels; _kernels.warmup(); "
                    "print(sorted(m for m in sys.modules if m.startswith('cmldde.')))")
    assert out.strip() == "['cmldde._kernels']"


def test_star_import_binds_every_name():
    out = run_fresh("import sys, cmldde; from cmldde import *; "
                    "print([n for n in cmldde.__all__ if n not in globals()], "
                    "sorted(m for m in sys.modules if m.startswith('cmldde.')))")
    assert out.strip() == ("[] ['cmldde._kernels', " + ", ".join(
        f"'cmldde.{home}'" for home in sorted(EXPORTS)) + "]")
