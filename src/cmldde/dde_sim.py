"""Fixed-step method-of-steps integration of the delayed resting-cell equation.

The step size is snapped to an exact divisor of the delay r, so delayed
lookups at full steps land on stored nodes and the points t = m r, where the
solution loses one order of smoothness, always coincide with grid nodes. That
preserves the classical 4th-order accuracy of RK4 without event detection.
Delayed values needed at half steps come from cubic Hermite interpolation of
the stored (value, derivative) pairs; history times (t <= 0) are evaluated
directly from the initial function, which keeps the derivative jump at t = 0
out of the interpolation. Trajectory is the one sampled-curve type; one that
covers [-r, 0] is itself an initial function, so a run restarts from its last
delay window.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import operator
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DomainError, IntegrationError, PreconditionError
from .model import ModelParams, positive_equilibrium
from .linear_analysis import leading_roots

#: default steps per delay interval
STEPS_PER_DELAY = 64

#: most grid nodes (history plus steps) one run may allocate: 128 MiB per array
MAX_NODES = 2**24

# steps the x path holds in temporaries, so that a whole run's memory is its
# node arrays plus one block
_BLOCK_STEPS = 2**12

# CSV rows formatted by one % and written by one write (about 70 bytes each)
_CSV_ROWS = 2**10
_CSV_ROW = "%.17g,%.17g,%.17g\n"


def _hermite(y0, y1, f0, f1, th, h, order):
    """Cubic Hermite interpolant (order 0) or its derivative (order 1) at
    fraction th of a step h with end values y0, y1 and end slopes f0, f1."""
    # each shared subexpression is one Python would evaluate first anyway, so
    # forming it once leaves every rounding as in the written-out formula
    tm1 = th - 1.0
    if order == 0:
        th2, tw = th * th, 2.0 * th
        return (
            (1.0 + th2 * (tw - 3.0)) * y0
            + th * tm1 ** 2 * h * f0
            + th2 * (3.0 - tw) * y1
            + th2 * tm1 * h * f1
        )
    t3 = 3.0 * th
    return 6.0 * th * tm1 * (y0 - y1) / h + (t3 * th - 4.0 * th + 1.0) * f0 + th * (t3 - 2.0) * f1


class History:
    """Initial function on [-r, 0]; subclasses give values and derivatives."""

    def value(self, s):
        raise NotImplementedError

    def derivative(self, s):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantHistory(History):
    level: float

    def __post_init__(self):
        if not 0.0 <= self.level < math.inf:
            raise DomainError(f"constant history must be finite and >= 0, got {self.level}")

    def value(self, s):
        return np.full_like(np.asarray(s, dtype=float), self.level) if np.ndim(s) else self.level

    def derivative(self, s):
        return np.zeros_like(np.asarray(s, dtype=float)) if np.ndim(s) else 0.0


@dataclass(frozen=True)
class EigenmodeHistory(History):
    """phi(s) = y_base + c e^(mu s) cos(omega s); equals y_base + c at s = 0."""

    y_base: float
    c: float
    mu: float
    omega: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.y_base, self.c, self.mu, self.omega))):
            raise DomainError(f"eigenmode history needs finite fields, got {self}")

    def value(self, s):
        s = np.asarray(s, dtype=float) if np.ndim(s) else s
        return self.y_base + self.c * np.exp(self.mu * s) * np.cos(self.omega * s)

    def derivative(self, s):
        s = np.asarray(s, dtype=float) if np.ndim(s) else s
        return self.c * np.exp(self.mu * s) * (
            self.mu * np.cos(self.omega * s) - self.omega * np.sin(self.omega * s)
        )


@dataclass(frozen=True)
class Trajectory(History):
    """Node values and derivatives on the uniform grid t0 + dt*i (>= 2 nodes,
    all finite, else DomainError); a History wherever it covers [-r, 0].

    Evaluation in [t0, t_end] uses cubic Hermite interpolation of the stored
    pairs, and DomainError outside (NaN included); times at or before 0 defer
    to the exact history function when one is attached. Immutable and safe to
    share.
    """

    t0: float
    dt: float
    values: np.ndarray
    derivs: np.ndarray
    history: Optional[History] = None
    delay_steps: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        derivs = np.asarray(self.derivs, dtype=float)
        if values.ndim != 1 or values.size < 2 or derivs.shape != values.shape:
            raise DomainError("a trajectory needs >= 2 nodes and one derivative per value")
        if not (math.isfinite(self.t0) and 0.0 < self.dt < math.inf):
            raise DomainError(f"a trajectory needs finite t0 and dt > 0, got {self.t0}, {self.dt}")
        if not (np.isfinite(values).all() and np.isfinite(derivs).all()):
            raise DomainError("trajectory values and derivatives must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.values.size - 1)

    def _dense(self, t, order):
        # values take the history for t <= 0, derivatives only for t < 0: at
        # t = 0 the derivative is the solution's right-hand one, node f[m]
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        slack = 1e-9 * max(abs(self.t0), abs(self.t_end))  # roundoff from t0 + dt*i sums
        if not (np.all(t_arr >= self.t0 - slack) and np.all(t_arr <= self.t_end + slack)):
            raise DomainError("evaluation outside the covered span")
        past = t_arr <= 0.0 if order == 0 else t_arr < 0.0
        if self.history is None or not past.any():
            out = self._interpolate(t_arr, order)
        else:
            out = np.empty_like(t_arr)
            out[past] = (self.history.derivative if order else self.history.value)(t_arr[past])
            out[~past] = self._interpolate(t_arr[~past], order)
        return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])

    def _interpolate(self, t, order):
        pos = (t - self.t0) / self.dt
        idx = np.clip(np.floor(pos).astype(int), 0, self.values.size - 2)
        return _hermite(self.values[idx], self.values[idx + 1], self.derivs[idx],
                        self.derivs[idx + 1], pos - idx, self.dt, order)

    def _step_midpoints(self, lo=0, hi=None):
        """value_at(t0 + dt*(i + 1/2)) for the steps lo <= i < hi (lo < hi; default:
        all), bit for bit while each midpoint rounds into its own step (|t0|/dt <<
        2^50), from node slices."""
        hi, y, f = self.values.size - 1 if hi is None else hi, self.values, self.derivs
        t = self.t0 + self.dt * (np.arange(lo, hi) + 0.5)
        out = _hermite(y[lo:hi], y[lo + 1:hi + 1], f[lo:hi], f[lo + 1:hi + 1],
                       (t - self.t0) / self.dt - np.arange(lo, hi), self.dt, 0)
        if self.history is not None and t[0] <= 0.0:
            p = int(np.searchsorted(t, 0.0, side="right"))
            out[:p] = self.history.value(t[:p])
        return out

    def value_at(self, t):
        """Value at arbitrary times inside the covered span (vectorized)."""
        return self._dense(t, 0)

    def derivative_at(self, t):
        """Derivative at arbitrary times inside the covered span (vectorized)."""
        return self._dense(t, 1)

    value, derivative = value_at, derivative_at  # the History interface

    def _node_range(self, t_lo: float, t_hi: float) -> tuple[int, int]:
        # [lo, hi): the indices of the nodes with t_lo <= t0 + dt*i <= t_hi.
        # Node times rise with i: bisect that expression for the range
        nodes, node = range(self.values.size), lambda i: self.t0 + self.dt * i
        lo = bisect.bisect_left(nodes, True, key=lambda i: node(i) >= t_lo)
        return lo, max(lo, bisect.bisect_left(nodes, True, key=lambda i: not node(i) <= t_hi))

    def window(self, t_lo: float, t_hi: float):
        """(times, values) of stored nodes with t_lo <= t <= t_hi; values is a view."""
        lo, hi = self._node_range(t_lo, t_hi)
        return self.t0 + self.dt * np.arange(lo, hi), self.values[lo:hi]

    def write_csv(self, dest, labels=("t", "y", "ydot"), stride: int = 1):
        """Dump every stride-th stored node to a path or text stream as CSV (LF
        endings, header row), a block of rows at a time: the times t0 + dt*i of
        a block's nodes are formed with it, never for the whole run, and the
        block is formatted by one % and written by one write."""
        try:
            stride = operator.index(stride)
        except TypeError:
            stride = 0  # not an integer: rejected with the values below 1
        if stride < 1:
            raise DomainError("stride must be an integer >= 1")
        span, size = _CSV_ROWS * stride, self.values.size
        is_path = isinstance(dest, (str, os.PathLike))
        with open(dest, "w", newline="\n") if is_path else contextlib.nullcontext(dest) as fh:
            fh.write(",".join(labels) + "\n")
            for lo in range(0, size, span):
                t = self.t0 + self.dt * np.arange(lo, min(lo + span, size), stride)
                v = self.values[lo:lo + span:stride]
                d = self.derivs[lo:lo + span:stride]
                fh.write(_CSV_ROW * t.size % tuple(np.column_stack((t, v, d)).ravel().tolist()))


def _resolve_steps(r: float, dt: float) -> int:
    # adjust dt downward so that r/dt is a positive integer; saturates at
    # MAX_NODES, so an overflowing ratio still yields an int the cap rejects
    return max(1, int(math.ceil(min(r / dt, MAX_NODES) - 1e-12)))


def _count_steps(t_end: float, dt: float) -> int:
    # smallest step count covering t_end, tolerant of t_end values assembled
    # as t0 + dt*i sums (slightly above an exact multiple of dt); saturates
    # at MAX_NODES like _resolve_steps
    q = min(t_end / dt, MAX_NODES)
    return max(1, int(math.ceil(q - 1e-9 - 1e-12 * q)))


def integrate_y(
    params: ModelParams,
    history: History,
    t_end: float,
    dt: float | None = None,
) -> Trajectory:
    """Integrate the resting-cell equation from the given initial function.

    Returns a trajectory covering [-r, t_end] (history prepended). Raises
    DomainError, before allocating, when the grid would exceed MAX_NODES
    nodes, and before integrating when the initial function is negative at a
    history node or half-node; IntegrationError with the last valid time if
    the run goes non-finite.
    """
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be positive and finite, got {t_end}")
    if dt is None:
        dt = params.r / STEPS_PER_DELAY
    if not 0.0 < dt < math.inf:
        raise DomainError(f"dt must be positive and finite, got {dt}")
    m = _resolve_steps(params.r, dt)
    dt = params.r / m
    nsteps = _count_steps(t_end, dt)

    n_nodes = m + nsteps + 1
    if n_nodes > MAX_NODES:
        raise DomainError(
            f"the run to t_end = {t_end:g} needs more than {MAX_NODES} grid nodes; "
            "raise dt or shorten t_end"
        )
    y = np.empty(n_nodes)
    f = np.empty(n_nodes)
    s_nodes = -params.r + dt * np.arange(m + 1)
    y[: m + 1] = history.value(s_nodes)
    f[: m + 1] = history.derivative(s_nodes)
    hist_half = np.asarray(history.value(s_nodes[:-1] + 0.5 * dt), dtype=float)
    if (y[: m + 1] < 0.0).any() or (hist_half < 0.0).any():
        raise DomainError("the initial function must be >= 0 on [-r, 0]")

    # the kernel also writes f[m], the solution's right-hand derivative at t = 0
    bad = _kernels.rk4_delay(
        y, f, hist_half, m, nsteps, dt, params.n, params.beta0, params.delta, params.k,
    )
    if bad >= 0:
        raise IntegrationError(
            "integration produced a non-finite value", last_valid_time=dt * (bad - m),
        )
    return Trajectory(
        t0=-params.r, dt=dt, values=y, derivs=f,
        history=history, delay_steps=m,
    )


def eigenmode_history(params: ModelParams, c: float) -> History:
    """Initial family y2 + c e^(mu s) cos(omega s) built from the leading root pair.

    (mu, omega) are the real/imaginary parts of the characteristic root with
    greatest real part; raises PreconditionError when that root is real, since
    the family is undefined then.
    """
    eq = positive_equilibrium(params)
    if c == 0.0:
        return ConstantHistory(eq.y_star)
    lead = leading_roots(params, 1)[0]
    if lead.im == 0.0:
        raise PreconditionError("leading characteristic root is real: eigenmode family undefined")
    return EigenmodeHistory(y_base=eq.y_star, c=c, mu=lead.re, omega=lead.im)
