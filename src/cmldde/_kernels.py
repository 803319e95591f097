"""Hot inner loops of the integrators: two kernels, each with one source.

The RK4 kernel for y makes one pass per delay interval, which stores its
nodes in place and checks finiteness once, and holds the delayed flux at the
previous interval's nodes and half-nodes in two rings, so each Hill power is
computed once per node and half-node. A pass has a fixed cost (two views, a
range, one check; 0.3-0.5 us in CPython on a 2-vCPU VM), so a step at m = 1
and 2 steps per delay costs about 20 % and 10 % more than with blocks of
intervals, and from m = 8 on no more (BENCH_16.json). The x kernel is the
recursion x[i+1] = decay * x[i] + incr[i]. Without numba both run as plain
Python on float scalars; that path alone meets the acceptance time budgets.
numba, when installed, is an optional accelerator that compiles the same
sources on arrays. The numba path has never been run, and neither has
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

# a Python float power raises OverflowError (numba gives inf, catches only Exception)
_OVERFLOW = Exception if USING_NUMBA else OverflowError


def _rk4_delay_impl(y, f, hist_half, g, gh, m, nsteps, dt, n, beta0, delta, k):
    # Classical RK4 on y'(t) = k beta0 yd/(1+yd^n) - (beta0/(1+y^n) + delta) y
    # by the method of steps: dt divides the delay exactly (m steps per delay),
    # so derivative-jump points land on nodes. y, f have length m + nsteps + 1;
    # 0..m hold the history. Step s of a delay interval reads rings g[s], gh[s],
    # the delayed flux k beta0 yd/(1+yd^n) at node s+1 and half-node s+1/2
    # (cubic Hermite) of the previous interval (the history seeds them), then
    # overwrites them from the node and half-node it makes, one power each; the
    # node's power also gives its f node, the next step's k1. Hill powers v^n
    # take the v <= 0 limit as 0, which keeps the flux linear across a
    # microscopic negative overshoot instead of going complex. The first k1,
    # y'(0+), is stored as f[m]. Each interval writes its nodes in place through
    # views yv, fv and checks its last derivative: a non-finite y makes its own
    # derivative non-finite, and NaN and inf pass through every later stage.
    # Returns the index of the last node with a finite value and derivative,
    # or -1 (m - 1 for a non-finite f[m]). A raising power (never after a
    # non-finite node) is charged to the step in progress: a half-node's to
    # the step that makes it, m steps before use; one before the first step
    # (a history node's or the first k1's) gives m - 1. Same bits as the
    # plain spelling: g - a*y is -(a)*y + g, as IEEE 754 negation is exact,
    # and one read per ring slot and one 0.125*dt and 1 + y^n change no
    # operation.
    half, eighth, kb = 0.5 * dt, 0.125 * dt, k * beta0
    end, b0, s = m + nsteps, m, -1  # b0 + s: the step in progress, m - 1 before the first
    try:
        for q in range(m):
            v, vh = y[q + 1], float(hist_half[q])
            g[q] = kb * v / (1.0 + (v ** n if v > 0.0 else 0.0))
            gh[q] = kb * vh / (1.0 + (vh ** n if vh > 0.0 else 0.0))
        yj, v = y[m], y[0]
        fb0 = kb * v / (1.0 + (v ** n if v > 0.0 else 0.0))
        k1 = fb0 - (beta0 / (1.0 + (yj ** n if yj > 0.0 else 0.0)) + delta) * yj
        f[m] = fj = k1
        for b0 in range(m, end, m):
            yv, fv = y[b0 + 1:], f[b0 + 1:]
            for s in range(min(m, end - b0)):
                gs, ghs = g[s], gh[s]
                ya = yj + half * k1
                k2 = ghs - (beta0 / (1.0 + (ya ** n if ya > 0.0 else 0.0)) + delta) * ya
                yb = yj + half * k2
                k3 = ghs - (beta0 / (1.0 + (yb ** n if yb > 0.0 else 0.0)) + delta) * yb
                yc = yj + dt * k3
                k4 = gs - (beta0 / (1.0 + (yc ** n if yc > 0.0 else 0.0)) + delta) * yc
                ynew = yj + dt * (k1 + 2.0 * (k2 + k3) + k4) / 6.0
                den = 1.0 + (ynew ** n if ynew > 0.0 else 0.0)
                k1 = gs - (beta0 / den + delta) * ynew
                dh = 0.5 * (yj + ynew) + eighth * (fj - k1)
                gh[s] = kb * dh / (1.0 + (dh ** n if dh > 0.0 else 0.0))
                g[s] = kb * ynew / den
                yv[s] = yj = ynew
                fv[s] = fj = k1
            if not math.isfinite(fj):
                break
    except _OVERFLOW:
        return b0 + s
    if math.isfinite(fj):
        return -1
    s = b0
    while math.isfinite(f[s]):
        s += 1
    return s - 1


def _exp_scan_impl(x, incr, decay):
    # x[i+1] = decay * x[i] + incr[i]; once non-finite, x stays non-finite
    xi = x[0]
    for i in range(len(incr)):
        xi = decay * xi + incr[i]
        x[i + 1] = xi


if USING_NUMBA:
    _rk4_delay = njit(cache=True)(_rk4_delay_impl)
    _exp_scan = njit(cache=True)(_exp_scan_impl)
    _ring = np.empty
else:
    def _ring(size):
        return [0.0] * size

    # memoryviews hand the loops Python floats and take their writes in place
    def _rk4_delay(y, f, *args):
        return _rk4_delay_impl(memoryview(y), memoryview(f), *args)

    def _exp_scan(x, incr, decay):
        _exp_scan_impl(memoryview(x), memoryview(np.ascontiguousarray(incr, dtype=float)),
                       float(decay))


def rk4_delay(y, f, hist_half, m, nsteps, dt, n, beta0, delta, k):
    """Run the RK4 kernel, writing f from index m and y from index m + 1 on in place.

    f[m], y'(0+), is the first RK4 stage. Returns the index of the last node
    with a finite value and derivative, or -1. A Python float power that
    overflows (numpy gives inf) counts its step as the first non-finite; one
    that raises before the first step gives m - 1.
    """
    # float() keeps numpy scalar parameters off numpy scalar arithmetic
    return _rk4_delay(
        y, f, hist_half, _ring(m), _ring(m),
        m, nsteps, float(dt), float(n), float(beta0), float(delta), float(k),
    )


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
