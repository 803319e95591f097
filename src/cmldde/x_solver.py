"""The forced linear proliferating-cell equation, solved on top of a y trajectory.

x obeys x'(t) = -gamma x(t) + F(t) with F(t) = feedback(y(t)) - (k/2)
feedback(y(t-r)), so each step is propagated by the exact
variation-of-constants formula

    x(t+dt) = e^(-gamma dt) x(t) + int_t^{t+dt} e^(gamma (s-t-dt)) F(s) ds,

with the integral evaluated by Simpson's rule under the exact exponential
weight. x is solved on y's own grid: integrate_y makes r a whole number m of
steps, so y(t_i) and y(t_i - r) are stored nodes, and the Simpson midpoints
are the Hermite interpolant at each step's centre, read from slices of the
nodes; there is no dense-output read. The homogeneous part is
exact, which makes the convergence-transfer statement about this formula
directly testable, and removes any stability constraint from gamma.

Over a T-periodic y cycle the periodic x orbit is a closed form in Fourier
space: with omega = 2 pi/T, the delay is the phase shift Y_j e^(-i j omega r)
and the orbit's modes are X_j = H_j/(gamma + i j omega). Both periodic
functions read one sampled period: >= 8 points on a uniform grid (to 1e-9 T)
whose endpoint values agree to 1e-6; anything else is a PreconditionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConditioningError, DomainError, IntegrationError, PreconditionError
from .model import (Equilibrium, EquilibriumKind, ModelParams, feedback, flux_forcing, forcing,
                    positive_equilibrium)
from .dde_sim import Trajectory


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


def _clamped_forcing(params: ModelParams, y: np.ndarray, m: int) -> np.ndarray:
    # forcing(y[m:], y[:-m]) from one Hill-flux pass (forcing is elementwise); stored
    # or interpolated y may dip just below 0, where the flux is undefined
    flux = feedback(np.maximum(y, 0.0), params.beta0, params.n)
    return flux_forcing(flux[m:], flux[:-m], params)


def _delay_steps(params: ModelParams, y_traj: Trajectory) -> int:
    """Steps per delay m = r/dt of a y trajectory laid out as integrate_y's."""
    r, m = params.r, round(params.r / y_traj.dt)
    if not (0 < m < y_traj.values.size - 1 and abs(m * y_traj.dt - r) <= 1e-9 * r
            and abs(y_traj.t0 + r) <= 1e-9 * r):
        raise PreconditionError("y trajectory must start at -r on a grid whose step "
                                "divides r, with at least one step after 0")
    return m


def forcing_trace(params: ModelParams, y_traj: Trajectory) -> ForcingTrace:
    """H(y)(t) on the stored grid of y_traj (t >= 0), read from the stored nodes.

    H is the x forcing minus its value at the reference equilibrium: the
    positive equilibrium when it exists, else the trivial one (where the
    offset vanishes). y_traj must satisfy integrate_x's grid precondition.
    """
    if params.has_positive_equilibrium:
        reference = positive_equilibrium(params)
    else:
        reference = Equilibrium(0.0, 0.0, EquilibriumKind.TRIVIAL)
    m, y = _delay_steps(params, y_traj), y_traj.values
    h = _clamped_forcing(params, y, m) - params.gamma * reference.x_star
    return ForcingTrace(times=y_traj.times[m:], values=h, reference=reference)


def integrate_x(params: ModelParams, y_traj: Trajectory, x0: float) -> Trajectory:
    """Propagate x from x(0) = x0 along the given y trajectory.

    x covers y's span from t = 0 on y's own grid. y_traj must start at -r on
    a grid whose step divides r, with at least one step after 0, as
    integrate_y returns it; anything else is a PreconditionError. y at the
    Simpson midpoints is Hermite-interpolated on slices of the stored nodes.
    """
    if not math.isfinite(x0):
        raise DomainError(f"x0 must be finite, got {x0}")
    m, dt = _delay_steps(params, y_traj), y_traj.dt
    f_half = _clamped_forcing(params, y_traj._step_midpoints(), m)
    f_nodes = _clamped_forcing(params, y_traj.values, m)

    decay = math.exp(-params.gamma * dt)
    decay_half = math.exp(-0.5 * params.gamma * dt)
    incr = (dt / 6.0) * (decay * f_nodes[:-1] + 4.0 * decay_half * f_half + f_nodes[1:])

    x = np.empty(f_nodes.size)
    x[0] = x0
    bad = _kernels.exp_scan(x, incr, decay)
    if bad >= 0:
        raise IntegrationError(
            "x integration produced a non-finite value", last_valid_time=dt * bad
        )
    xdot = -params.gamma * x + f_nodes
    return Trajectory(t0=0.0, dt=dt, values=x, derivs=xdot)


def _one_period(times, values):
    """Period T and the open samples values[:-1] under the one-period contract."""
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if times.ndim != 1 or times.size < 8 or values.shape != times.shape:
        raise PreconditionError("need a dense one-period sample (>= 8 points, one value each)")
    period = times[-1] - times[0]
    if not (period > 0.0 and np.ptp(np.diff(times)) <= 1e-9 * period):
        raise PreconditionError("one-period sample must lie on a uniform increasing grid")
    mismatch = abs(values[0] - values[-1])
    if not mismatch < 1e-6:
        raise PreconditionError(f"trajectory is not periodic: endpoint mismatch {mismatch:.3g}")
    return period, values[:-1]


def periodic_response(gamma: float, times: np.ndarray, h_values: np.ndarray) -> PeriodicInit:
    """Fixed point of the period map of u' = -gamma u + H for a T-periodic H.

    u0 = sum_j H_j/(gamma + i j omega), omega = 2 pi/T, from the Fourier modes
    H_j of one sampled period of H (the module's one-period contract), with
    the amplification factor 1/(1 - e^(-gamma T)) of the period map.
    """
    period, h = _one_period(times, h_values)
    denom = -math.expm1(-gamma * period)
    if denom < 1e-12:
        raise ConditioningError(
            f"1 - e^(-gamma T) = {denom:.3g} is too small for a reliable fixed point"
        )
    modes = np.fft.rfft(h) / (gamma + 2j * math.pi / period * np.arange(h.size // 2 + 1))
    return PeriodicInit(x0=float(np.fft.irfft(modes, h.size)[0]), condition=1.0 / denom)


def periodic_x0(params: ModelParams, times: np.ndarray, values: np.ndarray) -> PeriodicInit:
    """Initial value that makes the x orbit periodic over a periodic y cycle.

    `times`/`values` sample one period [t0, t0 + T] of y (the module's
    one-period contract); y(t - r) is the phase shift Y_j e^(-i j omega r).
    """
    period, y = _one_period(times, values)
    shift = np.exp(-2j * math.pi * params.r / period * np.arange(y.size // 2 + 1))
    y_delayed = np.fft.irfft(np.fft.rfft(y) * shift, y.size)
    eq = positive_equilibrium(params)
    h = forcing(np.maximum(y, 0.0), np.maximum(y_delayed, 0.0), params) - params.gamma * eq.x_star
    base = periodic_response(params.gamma, times, np.append(h, h[0]))
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
    target: float,
    window: tuple[float, float],
) -> ConvergenceReport:
    """Sup-distance from the target level over a trailing window, with a decay
    flag that compares the sups of the two half-windows."""
    t_lo, t_hi = window
    if t_hi <= t_lo:
        raise DomainError("empty window")
    t, v = x_traj.window(t_lo, t_hi)
    if t.size < 4:
        raise PreconditionError("trajectory shorter than the requested window")
    dist = np.abs(v - target)
    mid = t_lo + 0.5 * (t_hi - t_lo)
    first = dist[t < mid]
    second = dist[t >= mid]
    s1 = float(first.max()) if first.size else 0.0
    s2 = float(second.max()) if second.size else 0.0
    return ConvergenceReport(
        sup_distance=float(dist.max()), decaying=s2 < s1, window_sups=(s1, s2)
    )
