"""Experiment drivers: limit-cycle extraction, orbit classification, scans.

The quantitative knobs live in module constants. Convergence means the
trailing sup-distance to the equilibrium drops below a small multiple of
(1 + y*); escape means a probe settles on (or grows toward) a cycle whose
amplitude dwarfs the initial perturbation. These two thresholds separate the
very slow outward spiral seen near the degenerate-criticality zone from
genuine convergence within a feasible horizon.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .model import ModelParams, positive_equilibrium
from .linear_analysis import StabilityState, classify_positive
from .hopf import hopf_delay
from .dde_sim import Trajectory, eigenmode_history, integrate_y

#: convergence threshold scale: trailing sup-distance below this times (1 + |y*|)
CONVERGE_SCALE = 1e-3

#: a probe "escapes" when its cycle amplitude exceeds this multiple of the
#: initial perturbation
ESCAPE_FACTOR = 5.0

#: relative amplitude drift between successive windows regarded as steady
AMP_DRIFT = 0.01


class OrbitKind(Enum):
    CONVERGES_TO_EQUILIBRIUM = "converges"
    APPROACHES_CYCLE = "cycle"
    GROWING_OSCILLATION = "growing"
    INDETERMINATE = "indeterminate"


class Criticality(Enum):
    SUPERCRITICAL = "supercritical"
    SUBCRITICAL = "subcritical"
    INCONCLUSIVE = "inconclusive"


class Zone(Enum):
    ZONE1 = "zone1"
    ZONE2 = "zone2"
    ZONE3 = "zone3"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class CycleEstimate:
    amplitude: float
    period: Optional[float]
    steady: bool


@dataclass(frozen=True)
class OrbitClass:
    kind: OrbitKind
    cycle: Optional[CycleEstimate] = None

    @property
    def tail_amplitude(self) -> float:
        """Amplitude of the trailing cycle; 0 when the orbit converges or shows none."""
        if self.kind is OrbitKind.CONVERGES_TO_EQUILIBRIUM or self.cycle is None:
            return 0.0
        return self.cycle.amplitude


@dataclass(frozen=True)
class ProbeResult:
    c: float
    orbit: OrbitClass


@dataclass(frozen=True)
class ScanResult:
    c_converge: float
    c_escape: float
    probes: tuple[ProbeResult, ...]
    elapsed: float


@dataclass(frozen=True)
class CriticalityPoint:
    offset: float
    amplitude: float
    kind: OrbitKind


@dataclass(frozen=True)
class CriticalityReport:
    verdict: Criticality
    points: tuple[CriticalityPoint, ...]
    slope: Optional[float]
    intercept: Optional[float]
    r_squared: Optional[float]
    r_hopf: float


@dataclass(frozen=True)
class ZoneReport:
    zone: Zone
    probes: tuple[ProbeResult, ...]
    equilibrium_state: StabilityState


def _refined_peak_times(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    # prominence filter keeps one peak per cycle on relaxation-type waveforms
    # whose slow segments carry roundoff-scale ripples
    from scipy.signal import find_peaks  # on first use: the import costs about 20 MB

    idx, _ = find_peaks(v, prominence=0.1 * (v.max() - v.min()))
    idx = idx[(idx > 0) & (idx < v.size - 1)]
    if idx.size == 0:
        return np.empty(0)
    denom = v[idx - 1] - 2.0 * v[idx] + v[idx + 1]
    shift = np.zeros(idx.size)
    ok = np.abs(denom) > 0.0
    shift[ok] = 0.5 * (v[idx - 1] - v[idx + 1])[ok] / denom[ok]
    dt = t[1] - t[0] if t.size > 1 else 0.0
    return t[idx] + shift * dt


def _cycle_from_samples(t: np.ndarray, v: np.ndarray) -> CycleEstimate:
    if t.size < 8:
        return CycleEstimate(amplitude=0.0, period=None, steady=False)
    peaks = _refined_peak_times(t, v)
    if peaks.size < 3:
        return CycleEstimate(amplitude=0.0, period=None, steady=False)
    amplitude = 0.5 * float(v.max() - v.min())
    period = float(np.mean(np.diff(peaks)))
    half = t.size // 2
    a1 = 0.5 * float(v[:half].max() - v[:half].min())
    a2 = 0.5 * float(v[half:].max() - v[half:].min())
    drift_ok = abs(a2 - a1) <= AMP_DRIFT * max(a2, 1e-300)
    long_enough = (t[-1] - t[0]) >= 10.0 * period
    return CycleEstimate(amplitude=amplitude, period=period, steady=bool(drift_ok and long_enough))


def cycle_estimate(traj: Trajectory, t_transient: float) -> CycleEstimate:
    """Amplitude/period/steadiness of the trailing signal after t_transient.

    Amplitude is half the peak-to-trough range of the trailing window, period
    the mean spacing of parabolic-refined peaks. With fewer than 3 peaks the
    amplitude is reported as 0 and the period as None.
    """
    t, v = traj.window(t_transient, traj.t_end)
    return _cycle_from_samples(t, v)


def refine_period(traj: Trajectory, t_anchor: float, period_guess: float) -> float:
    """Sharpen a period estimate to a return-time of the dense trajectory.

    Finds the time near t_anchor + period_guess at which the signal recrosses
    its value at t_anchor moving in the same direction, by bisection on the
    Hermite dense output. The anchor should sit away from the cycle's extrema
    so the crossing is transversal.
    """
    y0 = traj.value_at(t_anchor)
    slope = traj.derivative_at(t_anchor)
    if slope == 0.0:
        raise PreconditionError("anchor lies at an extremum; pick a sloped point")
    lo_t = t_anchor + 0.5 * period_guess
    hi_t = t_anchor + 1.5 * period_guess
    if hi_t > traj.t_end:
        raise PreconditionError("trajectory too short to refine the period")
    t, v = traj.window(lo_t, hi_t)
    sgn = 1.0 if slope > 0.0 else -1.0
    f = sgn * (v - y0)
    crossings = np.nonzero((f[:-1] < 0.0) & (f[1:] >= 0.0))[0]
    if crossings.size == 0:
        raise PreconditionError("no same-direction return found near the guess")
    i = crossings[np.argmin(np.abs(t[crossings] - (t_anchor + period_guess)))]
    lo, hi = t[i], t[i + 1]
    g = lambda s: sgn * (traj.value_at(s) - y0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) - t_anchor


def classify_orbit(traj: Trajectory, y_star: float, horizon: float) -> OrbitClass:
    """Decision tree over the thirds of [0, horizon].

    Converging: trailing sup-distance to y_star below CONVERGE_SCALE (1 + |y_star|)
    and not above the middle third's. Cycle: trailing amplitude steady within
    AMP_DRIFT. Growing: trailing amplitude still rising. Anything else:
    indeterminate.
    """
    if traj.t_end < horizon - 1e-9 * max(1.0, horizon):
        raise PreconditionError("trajectory does not cover the requested horizon")
    tol = CONVERGE_SCALE * (1.0 + abs(y_star))
    t1, t2 = horizon / 3.0, 2.0 * horizon / 3.0

    _, v2 = traj.window(t1, t2)
    t3, v3 = traj.window(t2, horizon)
    sup2 = float(np.abs(v2 - y_star).max())
    sup3 = float(np.abs(v3 - y_star).max())
    if sup3 < tol and sup3 <= sup2:
        return OrbitClass(OrbitKind.CONVERGES_TO_EQUILIBRIUM)

    amp2 = 0.5 * float(v2.max() - v2.min())
    est = _cycle_from_samples(t3, v3)
    if est.amplitude > tol and abs(est.amplitude - amp2) <= AMP_DRIFT * est.amplitude:
        return OrbitClass(OrbitKind.APPROACHES_CYCLE, est)
    if est.amplitude > max(tol, amp2 * (1.0 + AMP_DRIFT)):
        return OrbitClass(OrbitKind.GROWING_OSCILLATION, est)
    return OrbitClass(OrbitKind.INDETERMINATE, est)


def _is_escape(orbit: OrbitClass, c: float) -> bool:
    if orbit.kind is OrbitKind.GROWING_OSCILLATION:
        # an orbit still growing at horizon end is on its way out
        return True
    return (
        orbit.kind is OrbitKind.APPROACHES_CYCLE
        and orbit.cycle is not None
        and orbit.cycle.amplitude > ESCAPE_FACTOR * abs(c)
    )


def _probe(params: ModelParams, c: float, horizon: float, dt, y_star: float) -> ProbeResult:
    traj = integrate_y(params, eigenmode_history(params, c), horizon, dt)
    return ProbeResult(c=c, orbit=classify_orbit(traj, y_star, horizon))


def bistability_scan(
    params: ModelParams,
    c_lo: float,
    c_hi: float,
    bisection_tol: float,
    horizon: float,
    dt: float | None = None,
) -> ScanResult:
    """Bisect the eigenmode amplitude separating attraction basins.

    Requires the lower endpoint to converge and the upper one to escape;
    narrows the bracket until c_escape - c_converge <= bisection_tol.
    """
    if not (c_lo < c_hi):
        raise PreconditionError(f"need c_lo < c_hi, got {c_lo} >= {c_hi}")
    if not 0.0 < bisection_tol < math.inf:
        raise PreconditionError(f"bisection_tol must be positive and finite, got {bisection_tol}")
    started = time.perf_counter()
    y_star = positive_equilibrium(params).y_star

    probes = []
    lo = _probe(params, c_lo, horizon, dt, y_star)
    probes.append(lo)
    if lo.orbit.kind is not OrbitKind.CONVERGES_TO_EQUILIBRIUM:
        raise PreconditionError(
            f"lower endpoint c = {c_lo} classified {lo.orbit.kind.value!r}; "
            "expected convergence to the equilibrium"
        )
    hi = _probe(params, c_hi, horizon, dt, y_star)
    probes.append(hi)
    if not _is_escape(hi.orbit, c_hi):
        raise PreconditionError(
            f"upper endpoint c = {c_hi} classified {hi.orbit.kind.value!r}; "
            "expected escape to a cycle"
        )

    while c_hi - c_lo > bisection_tol:
        mid = 0.5 * (c_lo + c_hi)
        res = _probe(params, mid, horizon, dt, y_star)
        probes.append(res)
        if res.orbit.kind is OrbitKind.CONVERGES_TO_EQUILIBRIUM:
            c_lo = mid
        elif _is_escape(res.orbit, mid):
            c_hi = mid
        else:
            raise RuntimeError(
                f"probe at c = {mid} is indeterminate at horizon {horizon}; "
                "increase the horizon to resolve the boundary"
            )
    return ScanResult(
        c_converge=c_lo,
        c_escape=c_hi,
        probes=tuple(probes),
        elapsed=time.perf_counter() - started,
    )


def criticality_probe(
    n: float,
    beta0: float,
    k: float,
    delta: float,
    offsets: Sequence[float],
    horizon: float,
    dt: float | None = None,
) -> CriticalityReport:
    """Probe how stability is lost as the delay crosses its critical value.

    Integrates from the eigenmode perturbation of amplitude 0.01 y* at
    r = r_H + offset for each offset. Supercritical: sub-threshold offsets
    converge, super-threshold offsets settle on small steady cycles whose
    squared amplitude grows linearly in the offset (least-squares R^2 >= 0.9
    over >= 3 points).
    """
    offsets = sorted(float(o) for o in offsets)
    if not offsets or offsets[0] >= 0.0 or offsets[-1] <= 0.0:
        raise PreconditionError("offsets must straddle 0")
    r_h = hopf_delay(n, beta0, k, delta)  # NoHopfError when undefined

    points = []
    for dr in offsets:
        params = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=r_h + dr)
        eq = positive_equilibrium(params)
        orbit = _probe(params, 0.01 * eq.y_star, horizon, dt, eq.y_star).orbit
        points.append(CriticalityPoint(offset=dr, amplitude=orbit.tail_amplitude, kind=orbit.kind))

    below = [p for p in points if p.offset < 0.0]
    above = [p for p in points if p.offset > 0.0]
    below_escapes = any(
        p.kind in (OrbitKind.APPROACHES_CYCLE, OrbitKind.GROWING_OSCILLATION) for p in below
    )
    above_cycles = all(p.kind is OrbitKind.APPROACHES_CYCLE for p in above)

    slope = intercept = r_squared = None
    if len(above) >= 2:
        x = np.array([p.offset for p in above])
        y = np.array([p.amplitude**2 for p in above])
        slope_, intercept_ = np.polyfit(x, y, 1)
        resid = y - (slope_ * x + intercept_)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 0.0
        slope, intercept = float(slope_), float(intercept_)

    if not above_cycles or any(p.kind is OrbitKind.INDETERMINATE for p in below):
        verdict = Criticality.INCONCLUSIVE  # horizon too short to settle
    elif below_escapes:
        # attractor coexists below the threshold: no soft onset
        verdict = Criticality.SUBCRITICAL
    elif len(above) >= 3:  # every sub-threshold point converged
        sqrt_law = (
            slope > 0.0
            and r_squared >= 0.9
            and intercept <= 0.5 * min(p.amplitude**2 for p in above)
        )
        verdict = Criticality.SUPERCRITICAL if sqrt_law else Criticality.SUBCRITICAL
    else:
        verdict = Criticality.INCONCLUSIVE
    return CriticalityReport(
        verdict=verdict,
        points=tuple(points),
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        r_hopf=r_h,
    )


def zone_classify(
    params: ModelParams,
    probe_c_values: Sequence[float],
    horizon: float,
    dt: float | None = None,
) -> ZoneReport:
    """Place the parameters in the qualitative zone taxonomy around criticality.

    Zone1: stable equilibrium, every probe returns to it. Zone2: unstable
    equilibrium, probes all reach one common cycle. Zone3: stable equilibrium
    yet at least one probe escapes to a cycle (bistability).
    """
    if not probe_c_values:
        raise PreconditionError("need at least one probe amplitude")
    y_star = positive_equilibrium(params).y_star
    verdict = classify_positive(params)
    probes = tuple(
        _probe(params, c, horizon, dt, y_star) for c in sorted(probe_c_values)
    )

    converges = [p for p in probes if p.orbit.kind is OrbitKind.CONVERGES_TO_EQUILIBRIUM]
    escapes = [p for p in probes if _is_escape(p.orbit, p.c)]

    if verdict.state is StabilityState.ASYMPTOTICALLY_STABLE:
        eq_stable = True
    elif verdict.state is StabilityState.UNSTABLE:
        eq_stable = False
    else:
        smallest = probes[0]
        if smallest.orbit.kind is OrbitKind.CONVERGES_TO_EQUILIBRIUM:
            eq_stable = True
        elif _is_escape(smallest.orbit, smallest.c):
            eq_stable = False
        else:
            return ZoneReport(Zone.INDETERMINATE, probes, verdict.state)

    if eq_stable:
        if len(converges) == len(probes):
            return ZoneReport(Zone.ZONE1, probes, verdict.state)
        if escapes:
            return ZoneReport(Zone.ZONE3, probes, verdict.state)
        return ZoneReport(Zone.INDETERMINATE, probes, verdict.state)

    # unstable equilibrium: all probes must leave it and agree on one cycle
    if converges:
        return ZoneReport(Zone.INDETERMINATE, probes, verdict.state)
    amps = [
        p.orbit.cycle.amplitude
        for p in probes
        if p.orbit.kind is OrbitKind.APPROACHES_CYCLE and p.orbit.cycle is not None
    ]
    if not amps:
        return ZoneReport(Zone.INDETERMINATE, probes, verdict.state)
    med = float(np.median(amps))
    if all(abs(a - med) <= 0.2 * med for a in amps):
        return ZoneReport(Zone.ZONE2, probes, verdict.state)
    return ZoneReport(Zone.INDETERMINATE, probes, verdict.state)
