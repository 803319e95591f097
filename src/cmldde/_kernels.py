"""Hot inner loops of the integrators.

The RK4 kernel has one source. Without numba it runs as plain Python on
float scalars, reading and writing the arrays through memoryviews; that
path alone meets the acceptance time budgets. numba, when installed, is an
optional accelerator that compiles the same source on the arrays. The numba
path has never been run, and neither has .github/workflows/tests.yml. The x
recursion is a first-order linear filter and runs in scipy's compiled
``lfilter`` on either path.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit

    USING_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    USING_NUMBA = False


def _rk4_delay_impl(y, f, hist_half, m, nsteps, dt, n, beta0, delta, k):
    # Classical RK4 on y'(t) = -(beta0/(1+y^n) + delta) y + k beta0 yd/(1+yd^n),
    # with the delayed value yd read from the stored grid: exact nodes at full
    # steps, cubic Hermite at half steps. dt divides the delay exactly (m steps
    # per delay), so derivative-jump points always land on nodes.
    # y, f have length m + nsteps + 1; indices 0..m hold the history segment.
    # Hill powers v^n take the v <= 0 limit as 0, which keeps the flux linear
    # across a microscopic negative overshoot instead of going complex.
    # Returns the index of the first non-finite node, or -1 on success.
    half = 0.5 * dt
    kb = k * beta0
    for i in range(nsteps):
        j = m + i
        yj = y[j]
        d0 = y[i]
        if i < m:
            dh = hist_half[i]
        else:
            dh = 0.5 * (y[i] + y[i + 1]) + 0.125 * dt * (f[i] - f[i + 1])
        d1 = y[i + 1]
        fb0 = kb * d0 / (1.0 + (d0 ** n if d0 > 0.0 else 0.0))
        fbh = kb * dh / (1.0 + (dh ** n if dh > 0.0 else 0.0))
        fb1 = kb * d1 / (1.0 + (d1 ** n if d1 > 0.0 else 0.0))
        k1 = -(beta0 / (1.0 + (yj ** n if yj > 0.0 else 0.0)) + delta) * yj + fb0
        ya = yj + half * k1
        k2 = -(beta0 / (1.0 + (ya ** n if ya > 0.0 else 0.0)) + delta) * ya + fbh
        yb = yj + half * k2
        k3 = -(beta0 / (1.0 + (yb ** n if yb > 0.0 else 0.0)) + delta) * yb + fbh
        yc = yj + dt * k3
        k4 = -(beta0 / (1.0 + (yc ** n if yc > 0.0 else 0.0)) + delta) * yc + fb1
        ynew = yj + dt * (k1 + 2.0 * (k2 + k3) + k4) / 6.0
        if not math.isfinite(ynew):
            return j
        y[j + 1] = ynew
        f[j + 1] = -(beta0 / (1.0 + (ynew ** n if ynew > 0.0 else 0.0)) + delta) * ynew + fb1
    return -1


if USING_NUMBA:
    rk4_delay = njit(cache=True)(_rk4_delay_impl)
else:

    def rk4_delay(y, f, hist_half, m, nsteps, dt, n, beta0, delta, k):
        """Run the kernel on Python floats, writing into y and f in place.

        A Python float power raises OverflowError where numpy gives inf; the
        step that raised counts as the first non-finite one. f[m+1:] starts
        as NaN and each step writes its f node last, so the first NaN left
        there marks the step that did not finish.
        """
        f[m + 1:] = np.nan
        try:
            # float() keeps numpy scalar parameters off numpy scalar arithmetic
            return _rk4_delay_impl(
                memoryview(y), memoryview(f), hist_half.tolist(), m, nsteps,
                float(dt), float(n), float(beta0), float(delta), float(k),
            )
        except OverflowError:
            return m + int(np.argmax(np.isnan(f[m + 1:])))


def exp_scan(x, incr, decay):
    """x[i+1] = decay * x[i] + incr[i] in place, from the given x[0].

    This is the exact one-step variation-of-constants recursion with a
    precomputed quadrature increment. Returns the index i of the first step
    whose result x[i+1] is non-finite, or -1 on success.
    """
    from scipy.signal import lfilter  # on first use: the import costs about 20 MB

    x[1:] = lfilter([1.0], [1.0, -decay], incr, zi=[decay * x[0]])[0]
    bad = np.flatnonzero(~np.isfinite(x[1:]))
    return int(bad[0]) if bad.size else -1


def warmup():
    """Trigger JIT compilation on tiny inputs (a trivial run without numba)."""
    y = np.zeros(8)
    f = np.zeros(8)
    rk4_delay(y, f, np.zeros(2), 2, 5, 0.5, 2.0, 1.0, 0.1, 1.5)
    exp_scan(np.zeros(4), np.zeros(3), 0.9)
