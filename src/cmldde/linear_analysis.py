"""Linear stability of both equilibria and roots of the characteristic equation.

The linearization of the resting-cell equation around the positive equilibrium
is z'(t) = -(b1 + delta) z(t) + k b1 z(t - r), so stability is governed by the
transcendental equation lambda + (b1 + delta) - k b1 e^(-lambda r) = 0. The
classifier applies a fixed tree of sufficient conditions plus the known
delay threshold for oscillatory loss of stability; when none of them applies
it reports Undetermined rather than guessing.

The roots themselves are Lambert W branches, evaluated through the Wright
omega function omega(z), the solution of omega + log omega = z. It is
computed here in plain scalar Python by Algorithm 917 of Lawrence, Corless
and Jeffrey (ACM TOMS 38, 2012), the algorithm scipy.special.wrightomega
implements: a regional series gives a first approximation and one or two
Fritsch-Shafer-Crowley steps refine it, so every call does bounded work. On
the branch cuts Im z = +/-pi, Re z <= -1 the two sides give the two real
values W0(-e^x) and W-1(-e^x) (which side gives which depends on x, as in
scipy); `leading_roots` takes both sides and so needs only the pair.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass, field
from enum import Enum

from .errors import ConditioningError, PreconditionError, RootNotFoundError
from .hopf import _MIN_NORMAL, crossing_terms, normal_omega
from .model import ModelParams, b1_coefficient

#: absolute tolerance for the measure-zero marginal case of the trivial branch
MARGINAL_TOL = 1e-12

#: largest root count leading_roots returns; bounds its work
MAX_ROOTS = 10_000

#: |Re z| or |Im z| past which omega(z) = z - log z to the last bit
_OMEGA_ASYMPTOTIC = 1e20


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


def _omega0(s_sum: float, r: float) -> float:
    """Root in (0, pi/r) of omega cot(omega r) = -s_sum, s_sum = delta + b1.

    Solved in u = omega r as cos u + s_sum r sin(u)/u = 0 by bisection
    on (0, pi), which is free of the scale of r; a root exists iff
    1 + s_sum r > 0, and RootNotFoundError is raised otherwise.
    ConditioningError is raised when omega = u/r leaves the double range.
    """
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

    # k b1 < 0 here, and |delta + b1| <= |k b1| (for delta + b1 < 0 because
    # k > 1 and delta > 0), so the ratio lies in [-1, 1]: rounding is monotone
    theta, omega_h = crossing_terms(s_sum, k_b1, math.acos, math.sqrt)
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
        r_h = theta / normal_omega(omega_h)
        detail["r_hopf"] = r_h
        if r > r_h:
            return StabilityVerdict(StabilityState.UNSTABLE, VerdictSource.HOPF_EXCEEDED, detail)
    return StabilityVerdict(StabilityState.UNDETERMINED, VerdictSource.NONE, detail)


def characteristic_residual(params: ModelParams, lam: complex) -> float:
    """|lambda + (b1 + delta) - k b1 e^(-lambda r)| for the linearized equation."""
    lin = b1_coefficient(params)
    return abs(lam + lin.sum_db1 - lin.k_b1 * cmath.exp(-lam * params.r))


def _fsc_step(w: complex, z: complex, s: float) -> tuple[complex, complex, complex]:
    """One Fritsch-Shafer-Crowley step for s w + log w = z; returns (w, r, 1 + s w)."""
    r = z - s * w - cmath.log(w)
    wp1 = s * w + 1.0
    a = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
    return w * (1.0 + r / wp1 * (a - r) / (a - 2.0 * r)), r, wp1


def _wright_omega(z: complex) -> complex:
    """Wright omega function, the solution of omega + log omega = z.

    Algorithm 917 (Lawrence, Corless & Jeffrey 2012) in scalar Python. Where
    e^z underflows between the cuts the limit 0 is returned, and for |Re z|
    or |Im z| above 1e20 the first two terms z - log z are exact in doubles.
    """
    x, y = z.real, z.imag
    pi = math.pi
    if math.isinf(x) or math.isinf(y):
        # the limits: e^z -> 0 between the cuts, z itself everywhere else
        return 0j if x == -math.inf and -pi < y <= pi else z
    if x == -1.0 and abs(y) == pi:
        return complex(-1.0, 0.0)
    if -2.0 < x <= 1.0 and 1.0 < abs(y) < 2.0 * pi:
        # series about the branch point -1 + i pi sign(y)
        i_s = complex(0.0, math.copysign(1.0, y))
        p = cmath.sqrt((2.0 * (z + 1.0 - i_s * pi)).conjugate()).conjugate()
        w = -1.0 + (i_s + (1.0 / 3.0 + (-i_s / 36.0 + (1.0 / 270.0 + i_s / 4320.0 * p) * p) * p)
                    * p) * p
    elif x <= -2.0 and -pi < y <= pi:
        # between the cuts towards -infinity: series in e^z
        p = cmath.exp(z)
        w = (1.0 + (-1.0 + (1.5 + (-8.0 / 3.0 + 125.0 / 24.0 * p) * p) * p) * p) * p
        if w == 0.0:
            return w  # e^z underflowed, and log 0 is undefined
    elif (-2.0 < x <= 1.0 and -1.0 <= y <= 1.0) or (
            -2.0 < x and (x - 1.0) * (x - 1.0) + y * y <= pi * pi):
        # series about z = 1
        p = z - 1.0
        w = 0.5 + 0.5 * z + (1.0 / 16.0 + (-1.0 / 192.0 + (-1.0 / 3072.0 + 13.0 / 61440.0 * p)
                                           * p) * p) * p * p
    elif max(abs(x), abs(y)) > _OMEGA_ASYMPTOTIC:
        return z - cmath.log(z)
    else:
        # asymptotic series about infinity; in the wings next to a cut it is
        # taken in t = z -/+ i pi with log(-t)
        if x <= -1.05 and pi <= abs(y) and abs(y) - pi <= -0.75 * (x + 1.0):
            t = z - complex(0.0, math.copysign(pi, y))
            log_t = cmath.log(-t)
        else:
            t, log_t = z, cmath.log(z)
        w = ((1.0 + (-1.5 + log_t / 3.0) * log_t) * log_t
             + ((-1.0 + 0.5 * log_t) * log_t + (log_t + (t - log_t) * t) * t) * t) / (t * t * t)

    # within 0.01 of a cut, iterate on -omega and z -/+ i pi, which is smooth
    # across it; y -/+ pi is exact there
    s = 1.0
    if x <= -0.99 and abs(abs(y) - pi) <= 0.01:
        s = -1.0
        z = complex(x, y - math.copysign(pi, y))
        w = -w
    w, r, wp1 = _fsc_step(w, z, s)
    # a second step only where the error estimate of the first exceeds eps
    if abs((2.0 * w * w - 8.0 * w - 1.0) * abs(r) ** 4) >= (
            sys.float_info.epsilon * 72.0 * abs(wp1) ** 6):
        w = _fsc_step(w, z, s)[0]
    return s * w


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

    omega is Algorithm 917 in scalar Python (see the module docstring), a
    few microseconds per branch, so the cost grows linearly with `count`:
    tens of microseconds at the counts the package uses, about 10 ms at
    count = 1000 and 0.1 s at MAX_ROOTS, against the 0.4 s it takes a process
    to import scipy.special.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise PreconditionError(f"count must be an integer, got {count!r}") from None
    if not 1 <= count <= MAX_ROOTS:
        raise PreconditionError(f"count must be in [1, {MAX_ROOTS}], got {count}")
    lin = b1_coefficient(params)
    s_sum, k_b1, r = lin.sum_db1, lin.k_b1, params.r

    if lin.b1 == 0.0:
        # equation degenerates to lambda = -(b1 + delta) = -delta
        return [CharacteristicRoot(-params.delta, 0.0)]

    # theta = -2 pi (z > 0) folds onto 2 pi; theta = -pi (z < 0) onto pi unless both are real
    odd = k_b1 < 0.0
    # log|k b1 r| as the log of the product while that is a normal double, which
    # power-of-two rescaling leaves exact; as two logs past the double range
    kr = abs(k_b1) * r
    log_kr = math.log(kr) if _MIN_NORMAL <= kr < math.inf else math.log(abs(k_b1)) + math.log(r)
    x = log_kr + s_sum * r
    branches = []
    for j in range(-1, count):
        w = _wright_omega(complex(x, math.pi * (2.0 * j + odd)))
        w_abs = abs(w)
        im = abs(w.imag)
        # real roots come back with roundoff imaginary parts (below 1e-28 relative)
        if im <= 1e-14 * w_abs:
            im = 0.0
        # Re lambda = Re w / r - (delta + b1) = (log|k b1 r| - log|w|) / r; the
        # first form cancels when |w| is large, the second when it is small; a
        # root past the double range (tiny r) is rejected below
        re = (log_kr - math.log(w_abs)) / r if w_abs > 1.0 else w.real / r - s_sum
        branches.append((re, im, complex(w.real, im)))
    branches.sort(key=lambda b: (-b[0], b[1]))
    roots = []
    prev = None
    for re, im, w in branches:
        # a folded duplicate sorts next to its twin
        if prev is None or abs(w - prev) > 1e-9 * abs(w):
            roots.append(CharacteristicRoot(re, im / r))
        prev = w
    roots = roots[:count]
    if not all(math.isfinite(root.re) and math.isfinite(root.im) for root in roots):
        raise ConditioningError("a characteristic root lies outside the double range")
    return roots
