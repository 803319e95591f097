"""Independent reference computations used to pin expected values.

Everything here deliberately avoids the package's own integration and
root-finding paths. The plain right-hand sides rhs_y and forcing live here:
the package spells them only inside its solvers. The DDE oracle runs rhs_y
through scipy's DOP853 interval by interval; the benchmark's ensemble check
imports this module for it, so the module must import cleanly. The frequency
oracle uses brentq on the bracketing form, the root oracles are a Newton
sweep over a grid of seeds and the Lambert W branches evaluated as scipy's
Wright omega on numpy arrays, the kernel references are plain numpy-scalar
loops with the compiled kernels' contracts (plus the step-by-step pure-Python
RK4 loop that the package kernel, which checks finiteness once per delay
interval, must match bit for bit), scipy.signal's lfilter and find_peaks pin
the x recursion and the peak picking bit for bit (imported inside the two
functions, since the ensemble check must not load scipy.signal), the
periodic x orbit has two references over one sampled y period (one wraps the
delay through a periodic cubic spline and weights Simpson's rule by the exact
exponential, the other shifts the delay in Fourier space), and the x reference re-interpolates y through the dense
output at every node and midpoint instead of reading the stored nodes. The
blocked x solver and CSV writer must match their one-pass forms bit for bit
(the whole run's forcing and time grid formed at once).
"""

import math
import sys
import warnings

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import wrightomega

from cmldde import (
    CharacteristicRoot,
    IntegrationError,
    ConditioningError,
    PeriodicInit,
    PreconditionError,
    b1_coefficient,
    periodic_response,
    positive_equilibrium,
)
from cmldde import _kernels
from cmldde.dde_sim import Trajectory
from cmldde.linear_analysis import MAX_ROOTS
from cmldde.model import feedback, hill_pow

#: Newton seed grid density for the root sweep (per axis)
SEED_GRID = 40


def rhs_y(y_now, y_delayed, params):
    """Right-hand side of the resting-cell equation, in its plain spelling."""
    loss = (params.beta0 / (1.0 + hill_pow(y_now, params.n)) + params.delta) * y_now
    return -loss + params.k * feedback(y_delayed, params.beta0, params.n)


def forcing(y_now, y_delayed, params):
    """The y-dependent forcing of the x equation: feedback(y) - (k/2) feedback(y_delayed)."""
    return (feedback(y_now, params.beta0, params.n)
            - 0.5 * params.k * feedback(y_delayed, params.beta0, params.n))


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


def leading_roots_wrightomega_reference(params, count):
    """Rightmost characteristic roots from the Lambert W branches, vectorised.

    The same theta grid, log|k b1 r|, near-real clamp, real-part spellings,
    sort and folded-twin dedup as `leading_roots`, with every branch evaluated at once
    by scipy's compiled Wright omega on numpy arrays.
    """
    if not 1 <= count <= MAX_ROOTS:
        raise PreconditionError(f"count must be in [1, {MAX_ROOTS}], got {count}")
    lin = b1_coefficient(params)
    s_sum, k_b1, r = lin.sum_db1, lin.k_b1, params.r

    if lin.b1 == 0.0:
        # equation degenerates to lambda = -(b1 + delta) = -delta
        return [CharacteristicRoot(-params.delta, 0.0)]

    # theta = -2 pi (z > 0) folds onto 2 pi; theta = -pi (z < 0) onto pi unless both are real
    theta = math.pi * (2.0 * np.arange(-1, count) + (k_b1 < 0.0))
    kr = abs(k_b1) * r
    if sys.float_info.min <= kr < math.inf:
        log_kr = math.log(kr)
    else:
        log_kr = math.log(abs(k_b1)) + math.log(r)
    w = wrightomega(log_kr + s_sum * r + 1j * theta)
    w_abs = np.abs(w)
    im = np.abs(w.imag)
    # real roots come back with roundoff imaginary parts (below 1e-28 relative)
    im[im <= 1e-14 * w_abs] = 0.0
    w = w.real + 1j * im
    # Re lambda = Re w / r - (delta + b1) = (log|k b1 r| - log|w|) / r; the
    # first form cancels when |w| is large, the second when it is small; a
    # root past the double range (tiny r) is rejected below, not warned about
    with np.errstate(divide="ignore", over="ignore"):
        re = np.where(w_abs > 1.0, (log_kr - np.log(w_abs)) / r, w.real / r - s_sum)
        order = np.lexsort((im, -re))
        w, re, im = w[order], re[order], im[order] / r
    # a folded duplicate sorts next to its twin
    fresh = np.ones(w.size, dtype=bool)
    fresh[1:] = np.abs(np.diff(w)) > 1e-9 * np.abs(w[1:])
    keep = np.flatnonzero(fresh)[:count]
    roots = [CharacteristicRoot(float(re[i]), float(im[i])) for i in keep]
    if not all(math.isfinite(root.re) and math.isfinite(root.im) for root in roots):
        raise ConditioningError("a characteristic root lies outside the double range")
    return roots


def _pow_pos_reference(v, n):
    # v**n through exp(n ln v), with the v <= 0 limit taken as 0
    if v <= 0.0:
        return 0.0
    return np.exp(n * np.log(v))


def rk4_delay_reference(y, f, hist_half, m, nsteps, dt, n, beta0, delta, k):
    """Scalar numpy RK4 method-of-steps loop with the package kernel's contract.

    Every Hill power goes through np.exp/np.log on numpy scalars, so an
    overflowing power gives inf instead of raising. Fills f from index m (f[m]
    is the first step's k1, y'(0+)) and y from index m + 1 on, and returns the
    index of the last finite node, or -1.
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
        if i == 0:
            f[m] = k1
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


def _rk4_delay_stepwise_impl(y, f, hist_half, g, gh, m, nsteps, dt, n, beta0, delta, k):
    # the package kernel in its plain spelling, as it was before it checked
    # once per delay interval: one finiteness check per step, on y alone
    half, kb = 0.5 * dt, k * beta0
    for s in range(m):
        v, vh = y[s + 1], hist_half[s]
        g[s] = kb * v / (1.0 + (v ** n if v > 0.0 else 0.0))
        gh[s] = kb * vh / (1.0 + (vh ** n if vh > 0.0 else 0.0))
    yj, v = y[m], y[0]
    fb0 = kb * v / (1.0 + (v ** n if v > 0.0 else 0.0))
    k1 = -(beta0 / (1.0 + (yj ** n if yj > 0.0 else 0.0)) + delta) * yj + fb0
    f[m] = fj = k1
    for start in range(m, m + nsteps, m):
        for j in range(start, min(start + m, m + nsteps)):
            s = j - start
            ya = yj + half * k1
            k2 = -(beta0 / (1.0 + (ya ** n if ya > 0.0 else 0.0)) + delta) * ya + gh[s]
            yb = yj + half * k2
            k3 = -(beta0 / (1.0 + (yb ** n if yb > 0.0 else 0.0)) + delta) * yb + gh[s]
            yc = yj + dt * k3
            k4 = -(beta0 / (1.0 + (yc ** n if yc > 0.0 else 0.0)) + delta) * yc + g[s]
            ynew = yj + dt * (k1 + 2.0 * (k2 + k3) + k4) / 6.0
            if not math.isfinite(ynew):
                return j
            p = ynew ** n if ynew > 0.0 else 0.0
            k1 = -(beta0 / (1.0 + p) + delta) * ynew + g[s]
            dh = 0.5 * (yj + ynew) + 0.125 * dt * (fj - k1)
            gh[s] = kb * dh / (1.0 + (dh ** n if dh > 0.0 else 0.0))
            g[s] = kb * ynew / (1.0 + p)
            y[j + 1] = yj = ynew
            f[j + 1] = fj = k1
    return -1


def rk4_delay_stepwise(y, f, hist_half, m, nsteps, dt, n, beta0, delta, k):
    """The pure-Python RK4 kernel with one finiteness check per step.

    Same arithmetic in the plain spelling, so the package kernel must match
    it bit for bit: nodes, derivatives (f[m] is the first k1, y'(0+)) and the
    returned index of the last finite node. This loop checks y alone, so where
    a derivative overflows a node before its value does it reports one node
    later. An OverflowError of a Python float power is charged to the step
    that raised: f[m:] starts as NaN, the first k1 is written to f[m] and each
    step writes its f node last, so the first NaN left there marks that step
    (m - 1 when the raise comes before the first step).
    """
    f[m:] = np.nan
    try:
        return _rk4_delay_stepwise_impl(
            memoryview(y), memoryview(f), hist_half.tolist(), [0.0] * m, [0.0] * m,
            m, nsteps, float(dt), float(n), float(beta0), float(delta), float(k),
        )
    except OverflowError:
        return m - 1 + int(np.argmax(np.isnan(f[m:])))


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


def exp_scan_lfilter(x, incr, decay):
    """The x recursion as scipy's compiled first-order filter, in place from
    the given x[0]."""
    from scipy.signal import lfilter

    x[1:] = lfilter([1.0], [1.0, -decay], incr, zi=[decay * x[0]])[0]


def find_peaks_reference(v, prominence):
    """Indices of the peaks of v whose prominence is at least the given one."""
    from scipy.signal import find_peaks

    return find_peaks(v, prominence=prominence)[0]


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


def periodic_x0_fourier(params, times, values):
    """Periodic x initial value over one sampled y period [t0, t0 + T] in
    Fourier space: y(t - r) is the phase shift Y_j e^(-i j omega r), and the
    offset from x2 is periodic_response of the forcing minus its x2 level."""
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    period, y = times[-1] - times[0], values[:-1]
    shift = np.exp(-2j * math.pi * params.r / period * np.arange(y.size // 2 + 1))
    y_delayed = np.fft.irfft(np.fft.rfft(y) * shift, y.size)
    eq = positive_equilibrium(params)
    h = forcing(np.maximum(y, 0.0), np.maximum(y_delayed, 0.0), params) - params.gamma * eq.x_star
    base = periodic_response(params.gamma, times, np.append(h, h[0]))
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


def integrate_x_onepass(params, y_traj, x0):
    """integrate_x as one pass over the whole run: the flux, the forcing at every
    node and midpoint, the Simpson increments and x formed as whole-run arrays."""
    dt = y_traj.dt
    m = round(params.r / dt)
    flux = lambda y: feedback(np.maximum(y, 0.0), params.beta0, params.n)
    g_half, g_nodes = flux(y_traj._step_midpoints()), flux(y_traj.values)
    f_half = g_half[m:] - 0.5 * params.k * g_half[:-m]
    f_nodes = g_nodes[m:] - 0.5 * params.k * g_nodes[:-m]
    decay = math.exp(-params.gamma * dt)
    decay_half = math.exp(-0.5 * params.gamma * dt)
    incr = (dt / 6.0) * (decay * f_nodes[:-1] + 4.0 * decay_half * f_half + f_nodes[1:])
    x = np.empty(f_nodes.size)
    x[0] = x0
    bad = _kernels.exp_scan(x, incr, decay)
    if bad >= 0:
        raise IntegrationError("x integration produced a non-finite value",
                               last_valid_time=dt * bad)
    return Trajectory(t0=0.0, dt=dt, values=x, derivs=-params.gamma * x + f_nodes)


def write_csv_onepass(traj, fh, labels, stride):
    """Trajectory.write_csv to a text stream with the whole strided time grid
    times[::stride] formed at once."""
    fh.write(",".join(labels) + "\n")
    for row in zip(traj.times[::stride], traj.values[::stride], traj.derivs[::stride]):
        fh.write("%.17g,%.17g,%.17g\n" % row)
