"""Linear stability of both equilibria and roots of the characteristic equation.

The linearization of the resting-cell equation around the positive equilibrium
is z'(t) = -(b1 + delta) z(t) + k b1 z(t - r), so stability is governed by the
transcendental equation lambda + (b1 + delta) - k b1 e^(-lambda r) = 0. The
classifier applies a fixed tree of sufficient conditions plus the known
delay threshold for oscillatory loss of stability; when none of them applies
it reports Undetermined rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import wrightomega

from .errors import ConditioningError, PreconditionError, RootNotFoundError
from .hopf import _crossing_frequency
from .model import ModelParams, b1_coefficient

#: absolute tolerance for the measure-zero marginal case of the trivial branch
MARGINAL_TOL = 1e-12

#: largest root count leading_roots returns; bounds its arrays
MAX_ROOTS = 10_000


class StabilityState(Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically stable"
    MARGINALLY_STABLE = "marginally stable"
    UNSTABLE = "unstable"
    UNDETERMINED = "undetermined"


class VerdictSource(Enum):
    """Which classification case fired (case tags P2.1-P2.6, plus the delay threshold)."""

    P2_1 = "P2.1"
    P2_2 = "P2.2"
    P2_3 = "P2.3"
    P2_4 = "P2.4"
    P2_5 = "P2.5"
    P2_6 = "P2.6"
    HOPF_EXCEEDED = "HopfExceeded"
    NONE = "None"


@dataclass(frozen=True)
class StabilityVerdict:
    state: StabilityState
    source: VerdictSource
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CharacteristicRoot:
    """One root of the characteristic equation; conjugates carry im >= 0."""

    re: float
    im: float

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


def classify_trivial(params: ModelParams) -> StabilityVerdict:
    """Stability of the zero equilibrium from the renewal ratio beta0 (k-1)/delta."""
    ratio = params.renewal_ratio
    if abs(ratio - 1.0) <= MARGINAL_TOL:
        return StabilityVerdict(StabilityState.MARGINALLY_STABLE, VerdictSource.P2_2,
                                {"renewal_ratio": ratio})
    if ratio < 1.0:
        return StabilityVerdict(StabilityState.ASYMPTOTICALLY_STABLE, VerdictSource.P2_1,
                                {"renewal_ratio": ratio})
    return StabilityVerdict(StabilityState.UNSTABLE, VerdictSource.P2_3,
                            {"renewal_ratio": ratio})


def omega0(params: ModelParams) -> float:
    """Root in (0, pi/r) of omega cot(omega r) = -(delta + b1).

    Solved in u = omega r as cos u + (delta + b1) r sin(u)/u = 0 by bisection
    on (0, pi), which is free of the scale of r; a root exists iff
    1 + (delta + b1) r > 0, and RootNotFoundError is raised otherwise.
    ConditioningError is raised when omega = u/r leaves the double range.
    """
    lin = b1_coefficient(params)
    return _omega0(lin.sum_db1, params.r)


def _omega0(s_sum: float, r: float) -> float:
    a = s_sum * r
    if not 1.0 + a > 0.0:
        raise RootNotFoundError(
            f"omega cot(omega r) = {-s_sum} has no root in (0, pi/r) at r = {r}"
        )
    # g(u) = cos u + a sin(u)/u falls from 1 + a > 0 at u = 0 to -1 at u = pi;
    # the endpoints are never evaluated, so sin(pi) != 0 in floats cannot mislead
    lo, hi = 0.0, math.pi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g = math.cos(mid) + a * math.sin(mid) / mid
        if g == 0.0:
            lo = hi = mid
        elif g > 0.0:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi) / r
    if not 0.0 < w < math.inf:
        raise ConditioningError(f"omega0 = {w} is outside the double range at r = {r}")
    return w


def classify_positive(params: ModelParams) -> StabilityVerdict:
    """Stability of the positive equilibrium.

    Applies the sufficient-condition cases P2.4 (b1 < 0, delta + b1 < 0),
    P2.5 (b1 < 0, delta + b1 > 0) and P2.6 (b1 > 0); if b1 < 0 and the delay
    exceeds the oscillatory-instability threshold the verdict is Unstable with
    source HopfExceeded. Anything else is honestly Undetermined.
    """
    lin = b1_coefficient(params)  # raises PreconditionError if y2 absent
    b1, s_sum, k_b1 = lin.b1, lin.sum_db1, lin.k_b1
    r = params.r
    detail = {"b1": b1, "sum_db1": s_sum, "k_b1": k_b1}

    if b1 > 0.0:
        return StabilityVerdict(StabilityState.ASYMPTOTICALLY_STABLE, VerdictSource.P2_6, detail)
    if b1 == 0.0 or s_sum == 0.0:
        # b1 = 0: the characteristic equation collapses to lambda = -delta;
        # delta + b1 = 0: boundary of the two case trees. Both lie outside
        # the classified cases, so report them as such
        return StabilityVerdict(StabilityState.UNDETERMINED, VerdictSource.NONE, detail)
    if s_sum > abs(k_b1):
        return StabilityVerdict(StabilityState.ASYMPTOTICALLY_STABLE, VerdictSource.P2_5, detail)

    # k b1 < 0 here; for delta + b1 < 0, |delta + b1| < |k b1| automatically
    # (k > 1 and delta > 0), so the ratio lies in [-1, 1] up to roundoff
    theta = math.acos(max(-1.0, min(1.0, s_sum / k_b1)))
    detail["arccos_ratio"] = theta
    if s_sum > 0.0 or r < 1.0 / abs(s_sum):
        w0 = _omega0(s_sum, r)
        detail["omega0"] = w0
        if s_sum < 0.0 and theta / w0 < r:
            return StabilityVerdict(
                StabilityState.ASYMPTOTICALLY_STABLE, VerdictSource.P2_4, detail
            )
        if s_sum > 0.0 and r < theta / w0:
            return StabilityVerdict(
                StabilityState.ASYMPTOTICALLY_STABLE, VerdictSource.P2_5, detail
            )
    if s_sum < abs(k_b1):
        r_h = theta / _crossing_frequency(s_sum, k_b1)
        detail["r_hopf"] = r_h
        if r > r_h:
            return StabilityVerdict(StabilityState.UNSTABLE, VerdictSource.HOPF_EXCEEDED, detail)
    return StabilityVerdict(StabilityState.UNDETERMINED, VerdictSource.NONE, detail)


def characteristic_residual(params: ModelParams, lam: complex) -> float:
    """|lambda + (b1 + delta) - k b1 e^(-lambda r)| for the linearized equation."""
    lin = b1_coefficient(params)
    return abs(lam + lin.sum_db1 - lin.k_b1 * np.exp(-lam * params.r))


def leading_roots(params: ModelParams, count: int) -> list[CharacteristicRoot]:
    """Rightmost characteristic roots, sorted by descending real part.

    With w = (lambda + delta + b1) r the equation reads w e^w = z, with
    z = k b1 r e^((delta + b1) r), so the roots are the branches of the Lambert
    W function at z. They are evaluated as the Wright omega function at
    log|z| + i theta, theta = arg z + 2 pi j, which takes log z directly: z
    never overflows or underflows. Along theta > 0 the real part falls
    strictly (d Re omega/d theta = -Im omega/|1 + omega|^2 < 0), so the
    branches nearest theta = 0 hold the rightmost roots; theta = -pi adds the
    second real root that exists when -1/e <= z < 0. Each conjugate pair is
    reported once (im >= 0); `count` roots are returned, or one when b1 = 0.
    Raises ConditioningError when a returned root would not be finite.
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
