"""Hot inner loops of the integrators: two kernels, each with one source.

The RK4 kernel for y steps one delay interval at a time and holds the
delayed flux at the previous interval's nodes and half-nodes in two rings,
so each Hill power is computed once per node and half-node. The x kernel is
the recursion x[i+1] = decay * x[i] + incr[i]. Without numba both run as
plain Python on float scalars; that path alone meets the acceptance time
budgets. numba, when installed, is an optional accelerator that compiles the
same sources on arrays. The numba path has never been run, and neither has
.github/workflows/tests.yml.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit

    USING_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    USING_NUMBA = False


def _rk4_delay_impl(y, f, hist_half, g, gh, m, nsteps, dt, n, beta0, delta, k):
    # Classical RK4 on y'(t) = -(beta0/(1+y^n) + delta) y + k beta0 yd/(1+yd^n)
    # by the method of steps: dt divides the delay exactly (m steps per delay),
    # so derivative-jump points land on nodes. y, f have length m + nsteps + 1;
    # 0..m hold the history. Step s of a delay interval reads rings g[s], gh[s],
    # the delayed flux k beta0 yd/(1+yd^n) at node s+1 and half-node s+1/2
    # (cubic Hermite) of the previous interval (the history seeds them), then
    # overwrites them from the node and half-node it makes, one power each; the
    # node's power also gives its f node, the next step's k1. Hill powers v^n
    # take the v <= 0 limit as 0, which keeps the flux linear across a
    # microscopic negative overshoot instead of going complex. Returns the index
    # of the last finite node, or -1. An overflowing half-node power (Python
    # floats raise) is charged to the step that makes it, m steps before use.
    half, kb = 0.5 * dt, k * beta0
    for s in range(m):
        v, vh = y[s + 1], hist_half[s]
        g[s] = kb * v / (1.0 + (v ** n if v > 0.0 else 0.0))
        gh[s] = kb * vh / (1.0 + (vh ** n if vh > 0.0 else 0.0))
    yj, fj, v = y[m], f[m], y[0]
    fb0 = kb * v / (1.0 + (v ** n if v > 0.0 else 0.0))
    k1 = -(beta0 / (1.0 + (yj ** n if yj > 0.0 else 0.0)) + delta) * yj + fb0
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


def _exp_scan_impl(x, incr, decay):
    # x[i+1] = decay * x[i] + incr[i]; once non-finite, x stays non-finite
    xi = x[0]
    for i in range(len(incr)):
        xi = decay * xi + incr[i]
        x[i + 1] = xi


if USING_NUMBA:
    _rk4_delay_jit = njit(cache=True)(_rk4_delay_impl)
    _exp_scan = njit(cache=True)(_exp_scan_impl)

    def rk4_delay(y, f, hist_half, m, nsteps, dt, n, beta0, delta, k):
        """Run the compiled kernel on the arrays, with array rings."""
        return _rk4_delay_jit(y, f, hist_half, np.empty(m), np.empty(m),
                              m, nsteps, dt, n, beta0, delta, k)
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
                memoryview(y), memoryview(f), hist_half.tolist(), [0.0] * m, [0.0] * m,
                m, nsteps, float(dt), float(n), float(beta0), float(delta), float(k),
            )
        except OverflowError:
            return m + int(np.argmax(np.isnan(f[m + 1:])))

    def _exp_scan(x, incr, decay):
        # memoryviews hand the loop Python floats and take its writes in place
        _exp_scan_impl(memoryview(x), memoryview(np.ascontiguousarray(incr, dtype=float)),
                       float(decay))


def exp_scan(x, incr, decay):
    """x[i+1] = decay * x[i] + incr[i] in place, from the given x[0].

    This is the exact one-step variation-of-constants recursion with a
    precomputed quadrature increment. Returns the index i of the first step
    whose result x[i+1] is non-finite, or -1 on success.
    """
    _exp_scan(x, incr, decay)
    bad = np.flatnonzero(~np.isfinite(x[1:]))
    return int(bad[0]) if bad.size else -1


def warmup():
    """Compile both kernels on tiny inputs (a trivial run of each without numba)."""
    rk4_delay(np.zeros(8), np.zeros(8), np.zeros(2), 2, 5, 0.5, 2.0, 1.0, 0.1, 1.5)
    exp_scan(np.zeros(4), np.zeros(3), 0.9)
