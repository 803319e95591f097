"""Experiment drivers: limit-cycle extraction, orbit classification, scans.

A window of stored nodes holds a cycle when it shows at least 3 prominent
peaks; its amplitude is half its range, and its period the mean return time
to its mid-range level (a Poincare section of the dense output), None when
the window crosses that level upward fewer than twice.

The quantitative knobs live in module constants. Convergence means the
trailing sup-distance to the equilibrium drops below a small multiple of
(1 + y*); escape means a probe settles on (or grows toward) a cycle whose
amplitude dwarfs the initial perturbation. These two thresholds separate the
very slow outward spiral seen near the degenerate-criticality zone from
genuine convergence within a feasible horizon.

CPU use: the probes of one driver call that do not depend on each other (every
offset of criticality_probe, every amplitude of zone_classify, the two
endpoints of bistability_scan) are cut into one contiguous share per usable
CPU. The caller runs the first share; a bare forked worker process runs each
other share and sends back only its small ProbeResults through a pipe; no
process pool and no thread is started. The results are identical on any CPU
count; `taskset` restricts the CPUs, and a single usable CPU, a platform
without fork or a daemonic process forks nothing.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConditioningError, PreconditionError
from .model import ModelParams, positive_equilibrium
from .linear_analysis import StabilityState, classify_positive
from .hopf import hopf_delay
from .dde_sim import Trajectory, _hermite, eigenmode_history, integrate_y

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
    """A window's cycle: half its peak-to-trough range, the mean return time to
    its mid-range level (None below two upward crossings of it) and whether it
    is steady (halves agree in amplitude, window of at least 10 periods)."""

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


def _nearest_higher(h: list) -> list:
    # index of the nearest strictly higher entry before each entry of h, or -1
    out, stack = [], []
    for j, hj in enumerate(h):
        while stack and h[stack[-1]] <= hj:
            stack.pop()
        out.append(stack[-1] if stack else -1)
        stack.append(j)
    return out


def _prominent_peaks(v: np.ndarray, prominence: float) -> np.ndarray:
    # find_peaks(v, prominence=prominence)[0] bit for bit. A peak is a strict rise,
    # an optional plateau (its middle sample) and a strict fall. Its sides [left,
    # peak] and [peak, right) end at the nearest strictly higher peak or at v.size
    # (the pad); prominence is its height over the higher of the two side minima.
    ne = np.flatnonzero(v[1:] != v[:-1])
    up = v[ne + 1] > v[ne]
    j = np.flatnonzero(up[:-1] & ~up[1:])
    peaks = (ne[j] + 1 + ne[j + 1]) // 2
    h = v[peaks].tolist()
    left = np.append(peaks + 1, 0)[_nearest_higher(h)]
    right = np.append(peaks[::-1], v.size)[_nearest_higher(h[::-1])][::-1]
    bounds = np.column_stack([left, peaks + 1, peaks, right]).ravel()
    mins = np.minimum.reduceat(np.append(v, 0.0), bounds).reshape(-1, 4)
    return peaks[v[peaks] - np.maximum(mins[:, 0], mins[:, 2]) >= prominence]


def _crossing(traj: Trajectory, i: int, level: float) -> float:
    # the time in step [t_i, t_i+1] at which the Hermite piece meets level, either
    # way: Newton steps in the step fraction from the secant point
    y0, y1 = traj.values[i:i + 2].tolist()
    f0, f1 = traj.derivs[i:i + 2].tolist()
    h = traj.dt
    th = (level - y0) / (y1 - y0)
    for _ in range(8):
        slope = _hermite(y0, y1, f0, f1, th, h, 1) * h
        if slope == 0.0:
            break
        th -= (_hermite(y0, y1, f0, f1, th, h, 0) - level) / slope
    return traj.t0 + h * (i + th)


def _cycle_from_samples(traj: Trajectory, lo: int, hi: int) -> CycleEstimate:
    # the cycle in the nodes lo <= i < hi; the prominence gate keeps one peak per
    # cycle on relaxation-type waveforms whose slow segments carry roundoff-scale
    # ripples, and the period is the mean return time to the mid-range level
    v = traj.values[lo:hi]
    if v.size < 8 or _prominent_peaks(v, 0.1 * (v.max() - v.min())).size < 3:
        return CycleEstimate(amplitude=0.0, period=None, steady=False)
    amplitude = 0.5 * float(v.max() - v.min())
    level = 0.5 * float(v.max() + v.min())
    up = np.flatnonzero((v[:-1] < level) & (v[1:] >= level)) + lo
    period = None
    if up.size >= 2:
        first, last = (_crossing(traj, int(i), level) for i in up[[0, -1]])
        period = (last - first) / (up.size - 1)
    half = v.size // 2
    a1 = 0.5 * float(v[:half].max() - v[:half].min())
    a2 = 0.5 * float(v[half:].max() - v[half:].min())
    drift_ok = abs(a2 - a1) <= AMP_DRIFT * max(a2, 1e-300)
    long_enough = period is not None and (hi - 1 - lo) * traj.dt >= 10.0 * period
    return CycleEstimate(amplitude=amplitude, period=period, steady=bool(drift_ok and long_enough))


def cycle_estimate(traj: Trajectory, t_transient: float) -> CycleEstimate:
    """Amplitude/period/steadiness of the trailing signal after t_transient.

    Amplitude is half the peak-to-trough range of the stored nodes in
    [t_transient, t_end]. The period is the mean return time to the window's
    mid-range level: the upward crossings of that level by the nodes, the
    first and the last refined on the Hermite dense output, give (last -
    first)/(count - 1). With fewer than 3 prominent peaks (prominence a tenth
    of the range) the amplitude is reported as 0 and the period as None; with
    fewer than two upward crossings the period is None and the amplitude
    stands. Steady: the two halves' amplitudes agree within AMP_DRIFT and the
    window spans at least 10 periods. PreconditionError when [t_transient,
    t_end] holds no stored node (a NaN t_transient included).
    """
    lo, hi = traj._node_range(t_transient, traj.t_end)
    if hi == lo:
        raise PreconditionError(f"no stored node in [{t_transient:g}, {traj.t_end:g}]")
    return _cycle_from_samples(traj, lo, hi)


def classify_orbit(traj: Trajectory, y_star: float, horizon: float) -> OrbitClass:
    """Decision tree over the thirds of [0, horizon].

    Converging: trailing sup-distance to y_star below CONVERGE_SCALE (1 + |y_star|)
    and not above the middle third's. Cycle: trailing amplitude steady within
    AMP_DRIFT. Growing: trailing amplitude still rising. Anything else:
    indeterminate. PreconditionError unless 0 < horizon < inf, the trajectory
    covers it, and the middle and last thirds each hold a stored node.
    """
    if not 0.0 < horizon < math.inf:
        raise PreconditionError(f"horizon must be positive and finite, got {horizon}")
    if traj.t_end < horizon - 1e-9 * horizon:
        raise PreconditionError("trajectory does not cover the requested horizon")
    tol = CONVERGE_SCALE * (1.0 + abs(y_star))
    t1, t2 = horizon / 3.0, 2.0 * horizon / 3.0

    _, v2 = traj.window(t1, t2)
    lo, hi = traj._node_range(t2, horizon)
    v3 = traj.values[lo:hi]
    if v2.size == 0 or v3.size == 0:
        raise PreconditionError(f"horizon {horizon:g} is too short: a third of it holds no "
                                f"stored node (dt = {traj.dt:g})")
    sup2 = float(np.abs(v2 - y_star).max())
    sup3 = float(np.abs(v3 - y_star).max())
    if sup3 < tol and sup3 <= sup2:
        return OrbitClass(OrbitKind.CONVERGES_TO_EQUILIBRIUM)

    amp2 = 0.5 * float(v2.max() - v2.min())
    est = _cycle_from_samples(traj, lo, hi)
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


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, the __cause__ of the exception it raised."""


def _run_share(jobs: list) -> list:
    # (True, result) for each job up to the first failing one, which ends the
    # list as (False, (exception, formatted traceback))
    outcomes = []
    for job in jobs:
        try:
            outcomes.append((True, _probe(*job)))
        except Exception as exc:
            import traceback

            outcomes.append((False, (exc, "".join(traceback.format_exception(exc)))))
            break
    return outcomes


def _run_worker(jobs: list, fd: int, parent: int) -> None:
    # in a forked child: run the share, pickle its outcomes to fd and exit
    # without cleanup
    code = 1
    try:
        if sys.platform.startswith("linux"):
            import ctypes

            # die with the parent: prctl(PR_SET_PDEATHSIG, SIGKILL), then catch a
            # parent that died before the call
            ctypes.CDLL(None).prctl(1, 9)
            if os.getppid() != parent:
                return
        outcomes = _run_share(jobs)
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcomes))
        code = 0
    finally:
        os._exit(code)


def _probe_map(jobs: list) -> Iterator[ProbeResult]:
    """_probe(*job) for each job, in job order; a failing job's exception is
    raised when the iterator reaches it, as a serial loop would raise it.

    Cuts the jobs into W = min(len(jobs), usable CPUs) contiguous shares, forks
    a bare worker process (no pool, no thread) for each share after the first
    and runs the first share itself. Each share stops after its first failing
    job; a worker sends its outcomes back through its own pipe. Every worker
    is read and reaped before the first result is returned. A worker's
    exception carries the worker's traceback as a _RemoteTraceback __cause__;
    a worker that dies before reporting raises RuntimeError at its first job,
    and on Linux a worker dies with its caller (SIGKILL through
    PR_SET_PDEATHSIG). W is 1, and nothing is forked, on one CPU, without
    fork, or in a daemonic process (which may not have children).
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    mp = sys.modules.get("multiprocessing")  # only a loaded one can have made us a daemon
    if not hasattr(os, "fork") or (mp and mp.current_process().daemon):
        cpus = 1
    shares = max(1, min(len(jobs), cpus))
    starts = [len(jobs) * w // shares for w in range(shares + 1)]
    pids, pipes, reported, parent = [], [], [], os.getpid()
    try:
        for lo, hi in zip(starts[1:-1], starts[2:]):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_worker(jobs[lo:hi], wfd, parent)
            os.close(wfd)
            pids.append(pid)
            pipes.append(os.fdopen(rfd, "rb"))
        own = _run_share(jobs[:starts[1]])
        for pid, pipe in zip(pids, pipes):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reported.append(pickle.loads(data) if code == 0 else code)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids[len(reported):]:  # interrupted: kill and reap the rest
            try:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped just before the interruption
    return _in_job_order([own] + reported, starts)


def _in_job_order(shares: list, starts: list) -> Iterator[ProbeResult]:
    # share 0 ran in the caller, share w > 0 in worker w
    for w, share in enumerate(shares):
        if isinstance(share, int):
            how = f"was killed by signal {-share}" if share < 0 else f"exited with code {share}"
            raise RuntimeError(f"probe worker {w} {how} before reporting job {starts[w]}")
        for ok, value in share:
            if not ok:
                exc, tb = value
                if w == 0:
                    raise exc
                raise exc from _RemoteTraceback(tb)
            yield value


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
    endpoints = _probe_map([(params, c, horizon, dt, y_star) for c in (c_lo, c_hi)])
    lo = next(endpoints)
    probes.append(lo)
    if lo.orbit.kind is not OrbitKind.CONVERGES_TO_EQUILIBRIUM:
        raise PreconditionError(
            f"lower endpoint c = {c_lo} classified {lo.orbit.kind.value!r}; "
            "expected convergence to the equilibrium"
        )
    hi = next(endpoints)
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


def _as_integers(values: list) -> tuple[list, int]:
    # the floats as integers over one common power-of-two denominator, exactly
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [num * (den // d) for num, d in ratios], den


def _line_fit(x: list, y: list) -> tuple[float, float, float]:
    # least-squares line y ~ slope x + intercept and its R^2 in closed form, each
    # correctly rounded by one integer division: x and y scaled by powers of two
    # to integers make the centred sums exact, so no tiny offset underflows when
    # squared and the intercept loses nothing to cancellation; x not constant
    (xi, dx), (yi, dy) = _as_integers(x), _as_integers(y)
    n, sx, sy = len(xi), sum(xi), sum(yi)
    sxx, sxy = sum(a * a for a in xi), sum(a * b for a, b in zip(xi, yi))
    cxx, cxy = n * sxx - sx * sx, n * sxy - sx * sy  # n^2 dx^2 var(x), n^2 dx dy cov
    cyy = n * sum(b * b for b in yi) - sy * sy
    r_squared = cxy * cxy / (cxx * cyy) if cyy else 0.0
    return cxy * dx / (cxx * dy), (sxx * sy - sx * sxy) / (cxx * dy), r_squared


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
    over >= 3 points). A repeated offset is probed once; super-threshold
    offsets too close together to give two distinct delays r_H + offset, and so
    to fit a slope, raise ConditioningError.
    """
    offsets = sorted({float(o) for o in offsets})
    if not offsets or offsets[0] >= 0.0 or offsets[-1] <= 0.0:
        raise PreconditionError("offsets must straddle 0")
    r_h = hopf_delay(n, beta0, k, delta)  # NoHopfError when undefined

    jobs = []
    for dr in offsets:
        params = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=r_h + dr)
        y_star = positive_equilibrium(params).y_star
        jobs.append((params, 0.01 * y_star, horizon, dt, y_star))
    points = [
        CriticalityPoint(offset=dr, amplitude=res.orbit.tail_amplitude, kind=res.orbit.kind)
        for dr, res in zip(offsets, _probe_map(jobs))
    ]

    below = [p for p in points if p.offset < 0.0]
    above = [p for p in points if p.offset > 0.0]
    below_escapes = any(
        p.kind in (OrbitKind.APPROACHES_CYCLE, OrbitKind.GROWING_OSCILLATION) for p in below
    )
    above_cycles = all(p.kind is OrbitKind.APPROACHES_CYCLE for p in above)

    slope = intercept = r_squared = None
    if len(above) >= 2:
        x = [p.offset for p in above]
        if len({r_h + dr for dr in x}) < 2:  # the probes ran at one delay
            raise ConditioningError(f"offsets {x} are too close to fit a slope")
        slope, intercept, r_squared = _line_fit(x, [p.amplitude**2 for p in above])

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
    yet at least one probe escapes to a cycle (bistability). A repeated
    amplitude is probed once.
    """
    if not probe_c_values:
        raise PreconditionError("need at least one probe amplitude")
    y_star = positive_equilibrium(params).y_star
    verdict = classify_positive(params)
    amplitudes = sorted({float(c) for c in probe_c_values})
    probes = tuple(_probe_map([(params, c, horizon, dt, y_star) for c in amplitudes]))

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
