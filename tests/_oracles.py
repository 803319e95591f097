"""Independent reference computations used to pin expected values.

Everything here deliberately avoids the package's own integration and
root-finding paths: the DDE oracle runs scipy's DOP853 interval by interval,
the frequency oracle uses brentq on the bracketing form, the root oracle is a
Newton sweep over a grid of seeds, the kernel references are plain
numpy-scalar loops with the compiled kernels' contracts, and the periodic x
orbit reference wraps the delay through a periodic cubic spline and weights
Simpson's rule by the exact exponential, and the x reference re-interpolates y
through the dense output at every node and midpoint instead of reading the
stored nodes.
"""

import math
import warnings

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from cmldde import (
    CharacteristicRoot,
    ConditioningError,
    PeriodicInit,
    PreconditionError,
    b1_coefficient,
    positive_equilibrium,
    rhs_y,
)
from cmldde.model import forcing

#: Newton seed grid density for the root sweep (per axis)
SEED_GRID = 40


def dde_reference(params, history, t_end, rtol=1e-11, atol=1e-12):
    """Interval-by-interval adaptive integration with dense delayed lookups.

    Returns a callable evaluating the reference solution on [-r, t_end].
    """
    r = params.r
    segments = []  # (t_lo, t_hi, dense solution)

    def delayed(t):
        td = t - r
        if td <= 0.0:
            return float(history.value(td))
        for lo, hi, sol in segments:
            if lo - 1e-12 <= td <= hi + 1e-12:
                return float(sol(td)[0])
        raise RuntimeError("delayed lookup outside computed range")

    def rhs(t, y):
        return [rhs_y(float(y[0]), delayed(t), params)]

    t0, y0 = 0.0, [float(history.value(0.0))]
    while t0 < t_end - 1e-12:
        t1 = min(t0 + r, t_end)
        sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=True)
        assert sol.success
        segments.append((t0, t1, sol.sol))
        t0, y0 = t1, [float(sol.y[0, -1])]

    def evaluate(t):
        if t <= 0.0:
            return float(history.value(t))
        for lo, hi, sol in segments:
            if lo - 1e-12 <= t <= hi + 1e-12:
                return float(sol(t)[0])
        raise RuntimeError("evaluation outside computed range")

    return evaluate


def omega0_reference(s_sum, r):
    """brentq root of w cos(w r) + s sin(w r) on (0, pi/r)."""
    f = lambda w: w * np.cos(w * r) + s_sum * np.sin(w * r)
    return brentq(f, 1e-9, np.pi / r - 1e-9, xtol=1e-15, rtol=8.9e-16)


def leading_roots_reference(params, count):
    """Rightmost characteristic roots by a Newton sweep, sorted by descending real part.

    Runs damped-free Newton iteration from a SEED_GRID x SEED_GRID grid over
    re in [-5/r, 1/r], im in [0, 20 pi/r], keeps iterates whose residual drops
    below 1e-12, merges duplicates within 1e-8 and reports each conjugate pair
    once (im >= 0). Roots outside the seed window, or whose basins no seed
    hits, are missed: it emits a warning when fewer than `count` roots are
    confirmed, but a skipped root between two found ones goes unnoticed.
    """
    if count < 1:
        raise PreconditionError("count must be >= 1")
    lin = b1_coefficient(params)
    s_sum, k_b1, r = lin.sum_db1, lin.k_b1, params.r

    if lin.b1 == 0.0:
        # equation degenerates to lambda = -(b1 + delta) = -delta
        return [CharacteristicRoot(-params.delta, 0.0)]

    re = np.linspace(-5.0 / r, 1.0 / r, SEED_GRID)
    im = np.linspace(0.0, 20.0 * math.pi / r, SEED_GRID)
    lam = (re[:, None] + 1j * im[None, :]).ravel()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(80):
            ez = np.exp(-lam * r)
            g = lam + s_sum - k_b1 * ez
            gp = 1.0 + r * k_b1 * ez
            lam = lam - g / gp
        res = np.abs(lam + s_sum - k_b1 * np.exp(-lam * r))
    good = np.isfinite(lam) & np.isfinite(res) & (res < 1e-12)
    candidates = lam[good]
    candidates = np.where(candidates.imag < 0.0, np.conj(candidates), candidates)

    accepted: list[complex] = []
    for z in sorted(candidates, key=lambda z: -z.real):
        if all(abs(z - w) > 1e-8 for w in accepted):
            accepted.append(z)
    if len(accepted) < count:
        warnings.warn(
            f"root sweep confirmed only {len(accepted)} of {count} requested roots",
            RuntimeWarning,
            stacklevel=2,
        )
    return [CharacteristicRoot(float(z.real), float(z.imag)) for z in accepted[:count]]


def _pow_pos_reference(v, n):
    # v**n through exp(n ln v), with the v <= 0 limit taken as 0
    if v <= 0.0:
        return 0.0
    return np.exp(n * np.log(v))


def rk4_delay_reference(y, f, hist_half, m, nsteps, dt, n, beta0, delta, k):
    """Scalar numpy RK4 method-of-steps loop with the package kernel's contract.

    Every Hill power goes through np.exp/np.log on numpy scalars, so an
    overflowing power gives inf instead of raising. Fills y, f from index
    m + 1 on and returns the index of the first non-finite node, or -1.
    """
    half = 0.5 * dt
    for i in range(nsteps):
        j = m + i
        yj = y[j]
        d0 = y[i]
        if i < m:
            dh = hist_half[i]
        else:
            dh = 0.5 * (y[i] + y[i + 1]) + 0.125 * dt * (f[i] - f[i + 1])
        d1 = y[i + 1]
        fb0 = k * beta0 * d0 / (1.0 + _pow_pos_reference(d0, n))
        fbh = k * beta0 * dh / (1.0 + _pow_pos_reference(dh, n))
        fb1 = k * beta0 * d1 / (1.0 + _pow_pos_reference(d1, n))
        k1 = -(beta0 / (1.0 + _pow_pos_reference(yj, n)) + delta) * yj + fb0
        ya = yj + half * k1
        k2 = -(beta0 / (1.0 + _pow_pos_reference(ya, n)) + delta) * ya + fbh
        yb = yj + half * k2
        k3 = -(beta0 / (1.0 + _pow_pos_reference(yb, n)) + delta) * yb + fbh
        yc = yj + dt * k3
        k4 = -(beta0 / (1.0 + _pow_pos_reference(yc, n)) + delta) * yc + fb1
        ynew = yj + dt * (k1 + 2.0 * (k2 + k3) + k4) / 6.0
        if not np.isfinite(ynew):
            return j
        y[j + 1] = ynew
        f[j + 1] = -(beta0 / (1.0 + _pow_pos_reference(ynew, n)) + delta) * ynew + fb1
    return -1


def exp_scan_reference(x, incr, decay):
    """Explicit recursion x[i+1] = decay * x[i] + incr[i], one step at a time.

    Returns the index of the first step whose result is non-finite (leaving
    x from there on unwritten), or -1.
    """
    for i in range(incr.shape[0]):
        xn = decay * x[i] + incr[i]
        if not np.isfinite(xn):
            return i
        x[i + 1] = xn
    return -1


def periodic_response_reference(gamma, times, h_values):
    """u0 = (1 - e^(-gamma T))^(-1) int_0^T e^(gamma (s-T)) H(s) ds by Simpson's
    rule on the given grid, with the amplification factor of the prefactor."""
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


def periodic_x0_reference(params, times, values):
    """Periodic x initial value over one sampled y period, the delayed forcing
    argument read from a periodic cubic spline through the samples."""
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
    clamp = lambda v: np.maximum(v, 0.0)
    h = forcing(clamp(values), clamp(spline(delayed)), params) - params.gamma * eq.x_star
    base = periodic_response_reference(params.gamma, times, h)
    return PeriodicInit(x0=eq.x_star + base.x0, condition=base.condition)


def _forcing_arrays_reference(params, y_traj, t_nodes):
    y_now, y_delayed = y_traj.value_at(t_nodes), y_traj.value_at(t_nodes - params.r)
    clamp = lambda v: np.maximum(v, 0.0)
    return forcing(clamp(y_now), clamp(y_delayed), params)


def integrate_x_reference(params, y_traj, x0):
    """x values on [0, t_end of y_traj] by the exponentially weighted Simpson
    step, with y re-interpolated through the dense output at every node, every
    midpoint and their delayed times (four reads per run)."""
    dt = y_traj.dt
    nsteps = int(round(y_traj.t_end / dt))
    t_nodes = dt * np.arange(nsteps + 1)
    f_nodes = _forcing_arrays_reference(params, y_traj, t_nodes)
    f_half = _forcing_arrays_reference(params, y_traj, t_nodes[:-1] + 0.5 * dt)
    decay = math.exp(-params.gamma * dt)
    decay_half = math.exp(-0.5 * params.gamma * dt)
    incr = (dt / 6.0) * (decay * f_nodes[:-1] + 4.0 * decay_half * f_half + f_nodes[1:])
    x = np.empty(nsteps + 1)
    x[0] = x0
    assert exp_scan_reference(x, incr, decay) < 0
    return x
