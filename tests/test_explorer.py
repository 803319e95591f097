import contextlib
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmldde import (
    ConditioningError,
    ConstantHistory,
    IntegrationError,
    ModelParams,
    NoHopfError,
    OrbitKind,
    PreconditionError,
    StabilityState,
    Trajectory,
    Zone,
    bistability_scan,
    classify_orbit,
    classify_positive,
    criticality_probe,
    cycle_estimate,
    eigenmode_history,
    integrate_x,
    integrate_y,
    positive_equilibrium,
    zone_classify,
)
from cmldde import explorer
from cmldde.explorer import _prominent_peaks
from _oracles import find_peaks_reference


def sine_trajectory(base, amp, omega, t_end, dt):
    n = int(round(t_end / dt))
    t = dt * np.arange(n + 1)
    return Trajectory(
        t0=0.0,
        dt=dt,
        values=base + amp * np.sin(omega * t),
        derivs=amp * omega * np.cos(omega * t),
    )


class TestCycleEstimate:
    def test_synthetic_sine(self):
        traj = sine_trajectory(3.958, 0.3, 1.0, 200.0, 0.02)
        est = cycle_estimate(traj, 50.0)
        assert est.amplitude == pytest.approx(0.3, abs=1e-3)
        assert est.period == pytest.approx(2.0 * np.pi, abs=1e-2)
        assert est.steady

    def test_two_equal_maxima_per_period(self):
        # sin t + 0.8 cos 2t peaks twice a period at the same height: the
        # period is the return time 2 pi, not the peak spacing pi
        dt = 0.01
        t = dt * np.arange(20001)
        traj = Trajectory(t0=0.0, dt=dt, values=np.sin(t) + 0.8 * np.cos(2.0 * t),
                          derivs=np.cos(t) - 1.6 * np.sin(2.0 * t))
        assert cycle_estimate(traj, 20.0).period == pytest.approx(2.0 * np.pi, rel=1e-9)

    def test_constant_signal(self):
        traj = sine_trajectory(2.0, 0.0, 1.0, 100.0, 0.05)
        est = cycle_estimate(traj, 10.0)
        assert est.amplitude == 0.0
        assert est.period is None
        assert not est.steady

    @pytest.mark.parametrize("amp", [0.01, 0.1, 2.0])
    @pytest.mark.parametrize("omega", [0.1, 1.0, 10.0])
    def test_recovery_accuracy(self, amp, omega):
        period = 2.0 * np.pi / omega
        traj = sine_trajectory(4.0, amp, omega, 30.0 * period, period / 256.0)
        est = cycle_estimate(traj, 5.0 * period)
        assert abs(est.amplitude - amp) <= 0.005 * amp
        assert abs(est.period - period) <= 0.01 * period

    def test_short_window_not_steady(self):
        traj = sine_trajectory(4.0, 0.5, 1.0, 30.0, 0.01)
        est = cycle_estimate(traj, 0.0)  # < 10 periods available
        assert not est.steady

    @pytest.mark.parametrize("t_transient", [math.nan, 100.0 + 1.0, math.inf])
    def test_empty_window_rejected(self, t_transient):
        # no stored node in [t_transient, t_end]: not a flat signal
        traj = sine_trajectory(4.0, 0.5, 1.0, 100.0, 0.01)
        with pytest.raises(PreconditionError, match="no stored node"):
            cycle_estimate(traj, t_transient)

    def test_settled_cycle_dominates_slow_spiral(self, p3):
        # at equal time the orbit that jumped to the outer cycle has strictly
        # larger amplitude than any window of the slowly growing one
        horizon = 14000.0
        fast = integrate_y(p3, eigenmode_history(p3, 0.55), horizon)
        slow = integrate_y(p3, eigenmode_history(p3, 0.425), horizon)
        est = cycle_estimate(fast, 4000.0)
        assert est.steady
        for lo in np.arange(0.0, horizon, 2000.0):
            _, w = slow.window(lo, lo + 2000.0)
            assert est.amplitude > 0.5 * (w.max() - w.min())


class TestProminentPeaks:
    @settings(max_examples=400, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.integers(-3, 3).map(float), max_size=300),  # plateaus and ties
            st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=300),
        ),
        fraction=st.floats(0.0, 1.0),
    )
    def test_matches_find_peaks(self, values, fraction):
        v = np.array(values, dtype=float)
        p = fraction * float(np.ptp(v)) if v.size else 0.0
        assert np.array_equal(_prominent_peaks(v, p), find_peaks_reference(v, p))

    @pytest.mark.parametrize("case", ["p3_relaxation_cycle", "worked_example_cycle",
                                      "p3_converging"])
    def test_matches_find_peaks_on_trajectories(self, case, p3, hopf_example):
        if case == "worked_example_cycle":
            n, beta0, k, delta = hopf_example
            params = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
            hist = ConstantHistory(1.01 * positive_equilibrium(params).y_star)
            traj = integrate_y(params, hist, 2000.0)
        else:
            c = 0.55 if case == "p3_relaxation_cycle" else 0.2
            traj = integrate_y(p3, eigenmode_history(p3, c), 20000.0)
        for lo in (0.0, 0.5 * traj.t_end):
            _, v = traj.window(lo, traj.t_end)
            for p in (0.0, 1e-9 * np.ptp(v), 0.1 * np.ptp(v)):
                assert np.array_equal(_prominent_peaks(v, p), find_peaks_reference(v, p))


class TestClassifyOrbit:
    def test_reference_zone_behaviors(self, p3):
        eq = positive_equilibrium(p3)
        horizon = 150000.0
        o1 = classify_orbit(integrate_y(p3, eigenmode_history(p3, 0.2), horizon), eq.y_star, horizon)
        assert o1.kind is OrbitKind.CONVERGES_TO_EQUILIBRIUM
        o2 = classify_orbit(integrate_y(p3, eigenmode_history(p3, 0.55), horizon), eq.y_star, horizon)
        assert o2.kind is OrbitKind.APPROACHES_CYCLE
        assert o2.cycle.steady and o2.cycle.amplitude > 1.0

    def test_slow_outward_spiral_is_growing(self, p3):
        eq = positive_equilibrium(p3)
        traj = integrate_y(p3, eigenmode_history(p3, 0.425), 10000.0)
        o = classify_orbit(traj, eq.y_star, 10000.0)
        assert o.kind is OrbitKind.GROWING_OSCILLATION

    def test_horizon_coverage_required(self, p3):
        traj = integrate_y(p3, ConstantHistory(1.0), 100.0)
        with pytest.raises(PreconditionError):
            classify_orbit(traj, 1.0, 500.0)

    @pytest.mark.parametrize("horizon", [-5.0, math.nan, 1e-3, math.inf])
    def test_horizon_without_nodes_in_each_third_rejected(self, p3, horizon):
        # dt = r/64 = 0.118: a horizon of 1e-3 leaves its last two thirds empty
        traj = integrate_y(p3, ConstantHistory(1.0), 100.0)
        with pytest.raises(PreconditionError):
            classify_orbit(traj, 1.0, horizon)


class TestBistabilityScan:
    def test_degenerate_tolerance_returns_input(self, p3):
        res = bistability_scan(p3, 0.2, 0.55, 0.55 - 0.2, 150000.0)
        assert res.c_converge == 0.2
        assert res.c_escape == 0.55
        assert len(res.probes) == 2

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -0.1])
    def test_bad_tolerance_rejected(self, p3, tol):
        # a NaN tolerance used to end the bisection at once with the input bracket
        with pytest.raises(PreconditionError, match="bisection_tol"):
            bistability_scan(p3, 0.2, 0.55, tol, 150000.0)

    def test_monostable_rejected_with_endpoint_named(self, p3):
        mono = ModelParams(n=p3.n, beta0=p3.beta0, delta=p3.delta, k=p3.k, r=7.0)
        with pytest.raises(PreconditionError, match="upper endpoint"):
            bistability_scan(mono, 0.2, 0.55, 0.1, 60000.0)

    def test_bracket_endpoints_reverify(self, p3):
        # postcondition: the returned endpoints classify as converge/escape
        eq = positive_equilibrium(p3)
        horizon = 180000.0
        res = bistability_scan(p3, 0.41, 0.425, 0.004, horizon)
        lo = classify_orbit(
            integrate_y(p3, eigenmode_history(p3, res.c_converge), horizon), eq.y_star, horizon
        )
        hi = classify_orbit(
            integrate_y(p3, eigenmode_history(p3, res.c_escape), horizon), eq.y_star, horizon
        )
        assert lo.kind is OrbitKind.CONVERGES_TO_EQUILIBRIUM
        assert hi.kind in (OrbitKind.APPROACHES_CYCLE, OrbitKind.GROWING_OSCILLATION)

    def test_bad_bracket_ordering(self, p3):
        with pytest.raises(PreconditionError):
            bistability_scan(p3, 0.55, 0.2, 0.01, 1000.0)


class TestCriticality:
    def test_no_threshold_is_precondition_error(self):
        # n = 1 keeps the feedback slope positive: no crossing exists
        with pytest.raises(NoHopfError):
            criticality_probe(1.0, 2.0, 1.5, 0.1, [-0.001, 0.001, 0.002, 0.003], 500.0)

    def test_offsets_must_straddle(self, hopf_example):
        n, beta0, k, delta = hopf_example
        with pytest.raises(PreconditionError):
            criticality_probe(n, beta0, k, delta, [0.0004, 0.0008], 500.0)

    def test_repeated_offset_is_one_probe(self, hopf_example):
        # two equal super-threshold offsets made a rank-deficient fit (RankWarning)
        once = criticality_probe(*hopf_example, [-1e-4, 4e-4], 20.0)
        assert criticality_probe(*hopf_example, [4e-4, -1e-4, 4e-4], 20.0) == once
        assert len(once.points) == 2 and once.slope is None

    def test_offsets_too_close_to_fit(self, hopf_example):
        offsets = [-1e-4, 4e-4, math.nextafter(4e-4, 1.0)]
        with pytest.raises(ConditioningError, match="too close"):
            criticality_probe(*hopf_example, offsets, 20.0)


class TestZones:
    def test_zone3_at_reference_point(self, p3):
        rep = zone_classify(p3, [0.2, 0.41, 0.425, 0.55], 150000.0)
        assert rep.zone is Zone.ZONE3
        kinds = [pr.orbit.kind for pr in rep.probes]
        assert kinds[:2] == [OrbitKind.CONVERGES_TO_EQUILIBRIUM] * 2
        assert all(k is OrbitKind.APPROACHES_CYCLE for k in kinds[2:])
        # a zone-3 verdict is only consistent with a stable or undetermined equilibrium
        assert classify_positive(p3).state in (
            StabilityState.ASYMPTOTICALLY_STABLE,
            StabilityState.UNDETERMINED,
        )

    def test_zone2_past_threshold(self, hopf_example):
        n, beta0, k, delta = hopf_example
        p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        rep = zone_classify(p, [0.005, 0.2], 3000.0)
        assert rep.zone is Zone.ZONE2
        assert rep.equilibrium_state is StabilityState.UNSTABLE

    def test_zone1_deep_in_stability(self, p3):
        p = ModelParams(n=p3.n, beta0=p3.beta0, delta=p3.delta, k=p3.k, r=7.0)
        rep = zone_classify(p, [0.2, 0.55], 60000.0)
        assert rep.zone is Zone.ZONE1
        assert all(
            pr.orbit.kind is OrbitKind.CONVERGES_TO_EQUILIBRIUM for pr in rep.probes
        )

    def test_repeated_amplitude_probed_once(self, monkeypatch, hopf_example):
        n, beta0, k, delta = hopf_example
        p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        probed, probe = [], explorer._probe
        monkeypatch.setattr(explorer, "_probe", lambda *job: probed.append(job[1]) or probe(*job))
        use_cpus(monkeypatch, 1)  # record every probe in this process
        rep = zone_classify(p, [0.2, 0.005, 0.2, 0.005], 500.0)
        assert probed == [0.005, 0.2]
        assert rep == zone_classify(p, [0.005, 0.2], 500.0)


class TestXMirroring:
    def test_cycle_and_convergence_transfer(self, p3):
        eq = positive_equilibrium(p3)
        horizon = 150000.0
        for c, expected in ((0.2, OrbitKind.CONVERGES_TO_EQUILIBRIUM),
                            (0.55, OrbitKind.APPROACHES_CYCLE)):
            y_traj = integrate_y(p3, eigenmode_history(p3, c), horizon)
            x_traj = integrate_x(p3, y_traj, eq.x_star)
            oy = classify_orbit(y_traj, eq.y_star, horizon)
            ox = classify_orbit(x_traj, eq.x_star, horizon)
            assert oy.kind is expected
            assert ox.kind is expected
            if expected is OrbitKind.APPROACHES_CYCLE:
                # the driven cycle shares the driver's period
                assert ox.cycle.period == pytest.approx(oy.cycle.period, rel=1e-3)


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def running(pid):
    """Whether a process exists and is neither a zombie nor dead (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


#: unstable equilibrium whose leading root pair keeps the eigenmode history
#: positive for any c > 0; delta * (y* + 3e307) overflows, so a probe at
#: c = 3e307 fails on the derivative at t = 0
OVERFLOW = ModelParams(n=3, beta0=33, delta=6.5, k=1.5, r=0.35)


class TestProbeMap:
    """Independent probes are cut into one share per usable CPU; the caller runs
    the first and a forked worker each other one, and on one CPU the caller runs
    them all. Either way the drivers return and raise the same."""

    @pytest.fixture(autouse=True)
    def no_children_left(self):
        yield
        assert multiprocessing.active_children() == []
        # bare forks are invisible to multiprocessing: none may be left unreaped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def pooled_and_serial(self, monkeypatch, driver):
        out = []
        for count in (2, 1):
            use_cpus(monkeypatch, count)
            out.append(driver())
        return out

    def test_criticality_identical(self, monkeypatch, hopf_example):
        pooled, serial = self.pooled_and_serial(monkeypatch, lambda: criticality_probe(
            *hopf_example, [-0.01, 0.004, 0.008, 0.012], 400.0))
        assert pooled == serial
        assert pooled.verdict.value == "supercritical"

    def test_zone_identical(self, monkeypatch, hopf_example):
        n, beta0, k, delta = hopf_example
        p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        pooled, serial = self.pooled_and_serial(
            monkeypatch, lambda: zone_classify(p, [0.2, 0.005, 0.1], 500.0))
        assert pooled == serial
        assert [pr.c for pr in pooled.probes] == [0.005, 0.1, 0.2]

    def test_bistability_identical(self, monkeypatch, p3):
        # at a sixteenth of the default steps the p3 endpoints still converge/escape
        pooled, serial = self.pooled_and_serial(
            monkeypatch, lambda: bistability_scan(p3, 0.2, 0.55, 0.1, 150000.0, p3.r / 4))
        assert (pooled.c_converge, pooled.c_escape, pooled.probes) == (
            serial.c_converge, serial.c_escape, serial.probes)
        assert len(pooled.probes) > 2

    @pytest.mark.parametrize("count", [2, 1])
    def test_integration_error_keeps_last_valid_time(self, monkeypatch, count):
        use_cpus(monkeypatch, count)
        with pytest.raises(IntegrationError) as exc:
            zone_classify(OVERFLOW, [0.1, 3e307], 2.0)
        assert exc.value.last_valid_time == -OVERFLOW.r / 64
        # the pooled error crossed the process boundary
        assert (type(exc.value.__cause__).__name__ == "_RemoteTraceback") == (count == 2)

    @pytest.mark.parametrize("count", [2, 1])
    def test_lower_endpoint_error_wins(self, monkeypatch, hopf_example, count):
        use_cpus(monkeypatch, count)
        n, beta0, k, delta = hopf_example
        # past the threshold neither a small amplitude converges nor does a large
        # one escape the small cycle
        p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        with pytest.raises(PreconditionError, match="lower endpoint"):
            bistability_scan(p, 0.005, 0.2, 0.01, 500.0)
        # and the lower endpoint's verdict comes before the upper probe's exception
        with pytest.raises(PreconditionError, match="lower endpoint"):
            bistability_scan(OVERFLOW, 0.1, 3e307, 0.01, 2.0)

    def test_killed_worker_is_runtime_error(self, monkeypatch, hopf_example):
        # a worker that dies without reporting fails the call at once, not a hang;
        # only the forked worker is killed, the caller runs its own share
        use_cpus(monkeypatch, 2)
        caller, probe = os.getpid(), explorer._probe
        monkeypatch.setattr(explorer, "_probe", lambda *job: (
            probe(*job) if os.getpid() == caller else os.kill(os.getpid(), signal.SIGKILL)))
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="killed by signal 9"):
            criticality_probe(*hopf_example, [-0.01, 0.004], 400.0)
        assert time.monotonic() - started < 5.0

    @pytest.mark.parametrize("jobs, cpus", [(1, 2), (2, 2), (3, 2), (5, 3), (3, 4), (4, 1)])
    def test_forks_one_worker_per_share_after_the_first(self, monkeypatch, jobs, cpus):
        use_cpus(monkeypatch, cpus)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        monkeypatch.setattr(explorer, "_probe", lambda i: (i, os.getpid()))
        caller = os.getpid()
        out = list(explorer._probe_map([(i,) for i in range(jobs)]))
        assert len(forks) == min(jobs, cpus) - 1
        assert [i for i, _ in out] == list(range(jobs))
        # the first contiguous share ran in the caller, each other one in its own worker
        pids = [pid for _, pid in out]
        assert pids[0] == caller
        assert len(set(pids)) == min(jobs, cpus)
        assert pids == sorted(pids, key=pids.index)

    @pytest.mark.parametrize("failing, remote", [(0, False), (1, False), (2, True), (3, True)])
    def test_remote_traceback_only_from_a_worker(self, monkeypatch, failing, remote):
        # jobs 0-1 are the caller's share, jobs 2-3 the worker's
        use_cpus(monkeypatch, 2)

        def probe(i):
            if i == failing:
                raise ValueError(f"job {i}")
            return i

        monkeypatch.setattr(explorer, "_probe", probe)
        results = explorer._probe_map([(i,) for i in range(4)])
        assert [next(results) for _ in range(failing)] == list(range(failing))
        with pytest.raises(ValueError, match=f"job {failing}") as exc:
            next(results)
        cause = exc.value.__cause__
        if remote:
            assert type(cause).__name__ == "_RemoteTraceback"
            assert "in probe" in str(cause)
        else:
            assert cause is None
            # the caller's own traceback reaches into the failing probe
            assert exc.traceback[-1].name == "probe"

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="workers die with their caller on Linux; one CPU forks none")
    def test_workers_die_with_caller(self, tmp_path):
        # a caller killed mid-probe leaves no worker running; the two probes
        # record the caller's pid and its one worker's
        pid_file = tmp_path / "pids"
        code = ("import os, sys, time; from cmldde import explorer\n"
                "def probe(*job):\n"
                "    with open(sys.argv[1], 'a') as fh: fh.write(f'{os.getpid()}\\n')\n"
                "    time.sleep(60)\n"
                "explorer._probe = probe\n"
                "list(explorer._probe_map([(), ()]))\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        caller = subprocess.Popen([sys.executable, "-c", code, str(pid_file)],
                                  env=dict(os.environ, PYTHONPATH=src))
        workers = []
        try:
            deadline = time.monotonic() + 30.0
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                if pid_file.exists():
                    workers = [int(pid) for pid in pid_file.read_text().split()]
            assert len(workers) == 2
            caller.terminate()
            assert caller.wait() == -signal.SIGTERM
            deadline = time.monotonic() + 5.0
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, workers))
        finally:
            caller.kill()
            caller.wait()
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    def test_import_loads_no_process_machinery(self):
        # nor does a forked probe call: no pool, no helper thread
        code = ("import os, sys, threading, cmldde, cmldde.cli; "
                "os.sched_getaffinity = lambda pid: {0, 1}; "
                "cmldde.criticality_probe(12.0, 1.77, 1.18074, 0.05, [-0.01, 0.004], 20.0); "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', 'concurrent')), "
                "threading.active_count())")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True).stdout
        assert out.strip() == "[] 1"
