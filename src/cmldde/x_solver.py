"""The forced linear proliferating-cell equation, solved on top of a y trajectory.

x obeys x'(t) = -gamma x(t) + F(t) with F(t) = g(y(t)) - (k/2) g(y(t-r)),
where g is the re-entry flux feedback with y clamped at 0; _clamped_forcing
is the package's one spelling of F. Each step is propagated by the exact
variation-of-constants formula

    x(t+dt) = e^(-gamma dt) x(t) + int_t^{t+dt} e^(gamma (s-t-dt)) F(s) ds,

with the integral evaluated by Simpson's rule under the exact exponential
weight. x is solved on y's own grid: integrate_y makes r a whole number m of
steps, so y(t_i) and y(t_i - r) are stored nodes, and the Simpson midpoints
are the Hermite interpolant at each step's centre, read from slices of the
nodes; there is no dense-output read. The homogeneous part is exact, which
removes any stability constraint from gamma. integrate_x forms the forcing,
the midpoints and the Simpson increments one block of steps at a time, so a
run's memory is its node arrays (y's and x's) plus one block. An overflow, in
an increment or in the recursion, ends in IntegrationError.

Because k/2 = e^(-gamma r), the equation integrates in closed form:

    x(t) = I(t) + (x(0) - I(0)) e^(-gamma t),
    I(t) = int_{t-r}^{t} e^(-gamma (t-s)) g(y(s)) ds,

so x counts the cells that entered proliferation in the last r time units
and survived. periodic_x0 evaluates I at a node by the same Simpson step over
one delay window; x(0) = I(0) gives the x orbit that is periodic whenever y
is, with no period to find. periodic_response, the fixed point of a
T-periodic linear response, reads one sampled period: >= 8 points on a
uniform grid (to 1e-9 T) whose endpoint values agree to 1e-6; anything else
is a PreconditionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConditioningError, DomainError, IntegrationError, PreconditionError
from .model import ModelParams, feedback
from .dde_sim import _BLOCK_STEPS, Trajectory


@dataclass(frozen=True)
class PeriodicInit:
    """Initial value of the periodic response, plus the amplification factor
    1/(1 - e^(-gamma T)) of the defining integral."""

    x0: float
    condition: float


def _clamped_flux(params: ModelParams, y: np.ndarray) -> np.ndarray:
    # stored or interpolated y may dip just below 0, where the flux is undefined
    return feedback(np.maximum(y, 0.0), params.beta0, params.n)


def _clamped_forcing(params: ModelParams, y: np.ndarray, m: int) -> np.ndarray:
    # the x forcing g(y(t)) - (k/2) g(y(t - r)) at y[m:], from one Hill-flux pass
    flux = _clamped_flux(params, y)
    return flux[m:] - 0.5 * params.k * flux[:-m]


def _exp_simpson(gamma, dt, f_nodes, f_half, u, lo=0, t_start=0.0):
    """Fill u[lo + 1 : lo + f_nodes.size] of u' = -gamma u + f from u[lo] in
    place, and return u: the exact one-step recursion with Simpson's rule under
    the exponential weight, from f at the nodes and step midpoints;
    IntegrationError at t_start + dt * (step index in u) if u goes non-finite."""
    decay = math.exp(-gamma * dt)
    decay_half = math.exp(-0.5 * gamma * dt)
    with np.errstate(over="ignore", invalid="ignore"):  # exp_scan reports it below
        incr = (dt / 6.0) * (decay * f_nodes[:-1] + 4.0 * decay_half * f_half + f_nodes[1:])
    bad = _kernels.exp_scan(u[lo:lo + f_nodes.size], incr, decay)
    if bad >= 0:
        raise IntegrationError("x integration produced a non-finite value",
                               last_valid_time=t_start + dt * (lo + bad))
    return u


def _delay_steps(params: ModelParams, y_traj: Trajectory) -> int:
    """Steps per delay m = r/dt of a y trajectory laid out as integrate_y's."""
    r, m = params.r, round(params.r / y_traj.dt)
    if not (0 < m < y_traj.values.size - 1 and abs(m * y_traj.dt - r) <= 1e-9 * r
            and abs(y_traj.t0 + r) <= 1e-9 * r):
        raise PreconditionError("y trajectory must start at -r on a grid whose step "
                                "divides r, with at least one step after 0")
    return m


def integrate_x(params: ModelParams, y_traj: Trajectory, x0: float) -> Trajectory:
    """Propagate x from x(0) = x0 along the given y trajectory.

    x covers y's span from t = 0 on y's own grid. y_traj must start at -r on
    a grid whose step divides r, with at least one step after 0, as
    integrate_y returns it; anything else is a PreconditionError. y at the
    Simpson midpoints is Hermite-interpolated on slices of the stored nodes.
    The steps run in blocks of max(_BLOCK_STEPS, m): block [lo, hi) reads y
    nodes lo..hi+m and the midpoints of steps lo..hi+m-1, so its temporaries
    are O(block) and the run's memory is x and xdot plus one block.
    """
    if not math.isfinite(x0):
        raise DomainError(f"x0 must be finite, got {x0}")
    m, dt, gamma = _delay_steps(params, y_traj), y_traj.dt, params.gamma
    nsteps = y_traj.values.size - 1 - m
    x, xdot = np.empty(nsteps + 1), np.empty(nsteps + 1)
    x[0] = x0
    block = max(_BLOCK_STEPS, m)  # a fixed block below m would re-read O(m) per block
    for lo in range(0, nsteps, block):
        hi = min(lo + block, nsteps)
        f_half = _clamped_forcing(params, y_traj._step_midpoints(lo, hi + m), m)
        f_nodes = _clamped_forcing(params, y_traj.values[lo:hi + m + 1], m)
        _exp_simpson(gamma, dt, f_nodes, f_half, x, lo)
        xdot[lo:hi + 1] = -gamma * x[lo:hi + 1] + f_nodes
    return Trajectory(t0=0.0, dt=dt, values=x, derivs=xdot)


def periodic_response(gamma: float, times: np.ndarray, h_values: np.ndarray) -> PeriodicInit:
    """Fixed point of the period map of u' = -gamma u + H for a T-periodic H.

    u0 = sum_j H_j/(gamma + i j omega), omega = 2 pi/T, from the Fourier modes
    H_j of one sampled period of H (the module's one-period contract), with
    the amplification factor 1/(1 - e^(-gamma T)) of the period map.
    """
    times, h = np.asarray(times, dtype=float), np.asarray(h_values, dtype=float)
    if times.ndim != 1 or times.size < 8 or h.shape != times.shape:
        raise PreconditionError("need a dense one-period sample (>= 8 points, one value each)")
    period = times[-1] - times[0]
    if not (period > 0.0 and np.ptp(np.diff(times)) <= 1e-9 * period):
        raise PreconditionError("one-period sample must lie on a uniform increasing grid")
    mismatch = abs(h[0] - h[-1])
    if not mismatch < 1e-6:
        raise PreconditionError(f"trajectory is not periodic: endpoint mismatch {mismatch:.3g}")
    denom = -math.expm1(-gamma * period)
    if denom < 1e-12:
        raise ConditioningError(
            f"1 - e^(-gamma T) = {denom:.3g} is too small for a reliable fixed point"
        )
    h = h[:-1]
    modes = np.fft.rfft(h) / (gamma + 2j * math.pi / period * np.arange(h.size // 2 + 1))
    return PeriodicInit(x0=float(np.fft.irfft(modes, h.size)[0]), condition=1.0 / denom)


def periodic_x0(params: ModelParams, y_traj: Trajectory, t0: float) -> float:
    """I(t0) = int_{t0-r}^{t0} e^(-gamma (t0-s)) g(y(s)) ds at a stored node t0 >= 0.

    x(t) - I(t) decays as e^(-gamma t), so x(t0) = I(t0) puts x on the orbit
    that I traces, periodic whenever y is. The integral is integrate_x's
    Simpson step over the window's m + 1 nodes and m midpoints; y_traj must
    satisfy integrate_x's grid precondition and t0 must be one of its nodes
    in [0, t_end] (to 1e-6 of a step), else PreconditionError.
    """
    m, dt = _delay_steps(params, y_traj), y_traj.dt
    pos = (t0 - y_traj.t0) / dt
    j = round(pos) if math.isfinite(pos) else -1
    if not (m <= j < y_traj.values.size and abs(pos - j) <= 1e-6):
        raise PreconditionError(f"t0 = {t0} is not a node of the y trajectory in [0, t_end]")
    g_nodes = _clamped_flux(params, y_traj.values[j - m:j + 1])
    g_half = _clamped_flux(params, y_traj._step_midpoints(j - m, j))
    u = _exp_simpson(params.gamma, dt, g_nodes, g_half, np.zeros(m + 1), t_start=t0 - params.r)
    return float(u[-1])

