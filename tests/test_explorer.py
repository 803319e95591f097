import math

import numpy as np
import pytest

from cmldde import (
    ConstantHistory,
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
