"""The forced linear proliferating-cell equation, solved on top of a y trajectory.

x obeys x'(t) = -gamma x(t) + F(t) with F(t) = feedback(y(t)) - (k/2)
feedback(y(t-r)), so each step is propagated by the exact
variation-of-constants formula

    x(t+dt) = e^(-gamma dt) x(t) + int_t^{t+dt} e^(gamma (s-t-dt)) F(s) ds,

with the integral evaluated by Simpson's rule on the dense y output under the
exact exponential weight. The homogeneous part is therefore exact, which makes
the convergence-transfer and periodic-orbit statements about this formula
directly testable, and removes any stability constraint from gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from . import _kernels
from .errors import ConditioningError, DomainError, IntegrationError, PreconditionError
from .model import Equilibrium, EquilibriumKind, ModelParams, forcing, positive_equilibrium
from .dde_sim import Trajectory, _count_steps


@dataclass(frozen=True)
class ForcingTrace:
    """H(t): the x-equation forcing measured relative to an equilibrium."""

    times: np.ndarray
    values: np.ndarray
    reference: Equilibrium


@dataclass(frozen=True)
class PeriodicInit:
    """Initial value whose x orbit is periodic, plus the amplification factor
    1/(1 - e^(-gamma T)) of the defining integral."""

    x0: float
    condition: float


@dataclass(frozen=True)
class ConvergenceReport:
    sup_distance: float
    decaying: bool
    window_sups: tuple[float, float]


def _clamped_forcing(params: ModelParams, y_now, y_delayed):
    # interpolated y may dip just below 0, where the Hill flux is undefined
    clamp = lambda v: np.maximum(v, 0.0)
    return forcing(clamp(y_now), clamp(y_delayed), params)


def _forcing_arrays(params: ModelParams, y_traj: Trajectory, t_nodes: np.ndarray):
    y_now, y_delayed = y_traj.value_at(t_nodes), y_traj.value_at(t_nodes - params.r)
    return _clamped_forcing(params, y_now, y_delayed)


def forcing_trace(params: ModelParams, y_traj: Trajectory, reference: Equilibrium | None = None) -> ForcingTrace:
    """H(y)(t) on the stored grid of y_traj (t >= 0).

    H is the x forcing minus its value at the reference equilibrium; the
    reference defaults to the positive equilibrium when it exists, else the
    trivial one (where the offset vanishes).
    """
    if reference is None:
        if params.has_positive_equilibrium:
            reference = positive_equilibrium(params)
        else:
            reference = Equilibrium(0.0, 0.0, EquilibriumKind.TRIVIAL)
    t = y_traj.times[y_traj.delay_steps:]  # nodes from t = 0 onward
    h = _forcing_arrays(params, y_traj, t) - params.gamma * reference.x_star
    return ForcingTrace(times=t, values=h, reference=reference)


def integrate_x(
    params: ModelParams,
    y_traj: Trajectory,
    x0: float,
    t_end: float | None = None,
) -> Trajectory:
    """Propagate x from x(0) = x0 along the given y trajectory.

    The returned trajectory shares the y grid spacing and covers [0, t_end]
    (default: the full span of y_traj).
    """
    if t_end is None:
        t_end = y_traj.t_end
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be positive and finite, got {t_end}")
    if y_traj.t_end < t_end - 1e-9 or y_traj.t0 > -params.r + 1e-9:
        raise PreconditionError("y trajectory does not cover [-r, t_end]")
    dt = y_traj.dt
    nsteps = _count_steps(t_end, dt)
    t_nodes = dt * np.arange(nsteps + 1)

    f_nodes = _forcing_arrays(params, y_traj, t_nodes)
    f_half = _forcing_arrays(params, y_traj, t_nodes[:-1] + 0.5 * dt)

    decay = math.exp(-params.gamma * dt)
    decay_half = math.exp(-0.5 * params.gamma * dt)
    incr = (dt / 6.0) * (decay * f_nodes[:-1] + 4.0 * decay_half * f_half + f_nodes[1:])

    x = np.empty(nsteps + 1)
    x[0] = x0
    bad = _kernels.exp_scan(x, incr, decay)
    if bad >= 0:
        raise IntegrationError(
            "x integration produced a non-finite value", last_valid_time=dt * bad
        )
    xdot = -params.gamma * x + f_nodes
    return Trajectory(t0=0.0, dt=dt, values=x, derivs=xdot, params=params, history=None)


def periodic_response(gamma: float, times: np.ndarray, h_values: np.ndarray) -> PeriodicInit:
    """Fixed point of the period map of u' = -gamma u + H for a T-periodic H.

    Returns u0 = (1 - e^(-gamma T))^(-1) * int_0^T e^(gamma (s-T)) H(s) ds
    by Simpson quadrature on the provided grid, together with the
    amplification factor of the prefactor.
    """
    times = np.asarray(times, dtype=float)
    period = times[-1] - times[0]
    denom = -math.expm1(-gamma * period)
    if denom < 1e-12:
        raise ConditioningError(
            f"1 - e^(-gamma T) = {denom:.3g} is too small for a reliable fixed point"
        )
    weight = np.exp(gamma * (times - times[-1]))
    integral = simpson(weight * np.asarray(h_values, dtype=float), x=times)
    return PeriodicInit(x0=integral / denom, condition=1.0 / denom)


def periodic_x0(params: ModelParams, times: np.ndarray, values: np.ndarray) -> PeriodicInit:
    """Initial value that makes the x orbit periodic over a periodic y cycle.

    `times`/`values` sample one period of y on an increasing grid covering
    [t0, t0 + T]; the endpoint values must agree to 1e-6. The delayed forcing
    argument wraps around the period through a periodic cubic spline.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.size < 8:
        raise PreconditionError("need a dense one-period sample (>= 8 points)")
    if abs(values[0] - values[-1]) >= 1e-6:
        raise PreconditionError(
            f"trajectory is not periodic: endpoint mismatch {abs(values[0] - values[-1]):.3g}"
        )
    period = times[-1] - times[0]
    closed = values.copy()
    closed[-1] = closed[0]  # exact closure for the periodic spline
    spline = CubicSpline(times, closed, bc_type="periodic")
    eq = positive_equilibrium(params)

    delayed = times[0] + np.mod(times - params.r - times[0], period)
    h = _clamped_forcing(params, values, spline(delayed)) - params.gamma * eq.x_star
    base = periodic_response(params.gamma, times, h)
    return PeriodicInit(x0=eq.x_star + base.x0, condition=base.condition)


def resample_period(traj: Trajectory, t_start: float, period: float, samples: int = 2048):
    """One-period slice of a trajectory on a uniform grid (for periodic_x0)."""
    if samples < 8:
        raise DomainError("samples must be >= 8")
    t = np.linspace(t_start, t_start + period, samples + 1)
    if t[-1] > traj.t_end + 1e-9:
        raise PreconditionError("trajectory too short for the requested period slice")
    return t, traj.value_at(t)


def convergence_check(
    x_traj: Trajectory,
    target: Union[float, Callable[[np.ndarray], np.ndarray]],
    window: tuple[float, float],
) -> ConvergenceReport:
    """Sup-distance from the target over a trailing window, with a decay flag.

    `target` is either an equilibrium level or a callable evaluated on the
    stored times. The decay flag compares the sups of the two half-windows.
    """
    t_lo, t_hi = window
    if t_hi <= t_lo:
        raise DomainError("empty window")
    t, v = x_traj.window(t_lo, t_hi)
    if t.size < 4:
        raise PreconditionError("trajectory shorter than the requested window")
    ref = target(t) if callable(target) else target
    dist = np.abs(v - ref)
    mid = t_lo + 0.5 * (t_hi - t_lo)
    first = dist[t < mid]
    second = dist[t >= mid]
    s1 = float(first.max()) if first.size else 0.0
    s2 = float(second.max()) if second.size else 0.0
    return ConvergenceReport(
        sup_distance=float(dist.max()), decaying=s2 < s1, window_sups=(s1, s2)
    )
