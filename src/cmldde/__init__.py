"""Analysis toolkit for a two-compartment delay model of blood cell production.

The resting-cell density obeys a scalar delay differential equation with
Hill-type feedback; the proliferating-cell density is slaved to it through a
forced linear equation. The package computes equilibria and their stability,
locates the delay thresholds where oscillations set in, integrates both
densities, and provides scan drivers for the bistable regime near degenerate
criticality.
"""

__version__ = "0.1.0"

from .errors import (
    ConditioningError,
    DomainError,
    IntegrationError,
    NoHopfError,
    PreconditionError,
    RootNotFoundError,
)
from .model import (
    Equilibrium,
    EquilibriumKind,
    LinearizationData,
    ModelParams,
    b1_coefficient,
    b1_value,
    equilibria,
    feedback,
    gamma_of,
    positive_equilibrium,
    rhs_x,
    rhs_y,
)
from .linear_analysis import (
    CharacteristicRoot,
    StabilityState,
    StabilityVerdict,
    VerdictSource,
    characteristic_residual,
    classify_positive,
    classify_trivial,
    leading_roots,
    omega0,
)
from .hopf import (
    BautinRow,
    HopfPoint,
    HopfSurface,
    TableCheck,
    hopf_delay,
    hopf_omega,
    hopf_point,
    load_bautin_table,
    surface_grid,
    verify_table,
)
from .dde_sim import (
    ConstantHistory,
    EigenmodeHistory,
    History,
    Trajectory,
    derivative_series,
    eigenmode_history,
    integrate_y,
)
from .x_solver import (
    ConvergenceReport,
    ForcingTrace,
    PeriodicInit,
    convergence_check,
    forcing_trace,
    integrate_x,
    periodic_response,
    periodic_x0,
    resample_period,
)
from .explorer import (
    Criticality,
    CriticalityReport,
    CycleEstimate,
    OrbitClass,
    OrbitKind,
    ProbeResult,
    ScanResult,
    Zone,
    ZoneReport,
    bistability_scan,
    classify_orbit,
    criticality_probe,
    cycle_estimate,
    refine_period,
    zone_classify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
