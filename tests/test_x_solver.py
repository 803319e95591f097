import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import cmldde
from cmldde import (
    ConditioningError,
    ConstantHistory,
    DomainError,
    ModelParams,
    PreconditionError,
    Trajectory,
    convergence_check,
    eigenmode_history,
    forcing_trace,
    integrate_x,
    integrate_y,
    periodic_response,
    periodic_x0,
    positive_equilibrium,
    resample_period,
)
from cmldde.explorer import cycle_estimate, refine_period
from cmldde.model import forcing
from conftest import sample_params
from _oracles import integrate_x_reference, periodic_x0_reference


def synthetic_trajectory(fn, dfn, t0, t_end, dt):
    n = int(round((t_end - t0) / dt))
    t = t0 + dt * np.arange(n + 1)
    return Trajectory(t0=t0, dt=dt, values=fn(t), derivs=dfn(t))


class TestIntegrateX:
    def test_equilibrium_fixed(self, p3):
        eq = positive_equilibrium(p3)
        y_traj = integrate_y(p3, ConstantHistory(eq.y_star), 400.0)
        x_traj = integrate_x(p3, y_traj, eq.x_star)
        assert np.abs(x_traj.values - eq.x_star).max() < 1e-9

    def test_constant_forcing_closed_form(self, p3):
        eq = positive_equilibrium(p3)
        y_traj = integrate_y(p3, ConstantHistory(eq.y_star), 400.0)
        x_traj = integrate_x(p3, y_traj, 10.0)
        t = x_traj.times
        exact = eq.x_star + (10.0 - eq.x_star) * np.exp(-p3.gamma * t)
        assert np.abs((x_traj.values - exact) / exact).max() < 1e-8

    def test_contraction_identity(self, p3):
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.4), 600.0)
        xa = integrate_x(p3, y_traj, 1.0)
        xb = integrate_x(p3, y_traj, 4.0)
        t = xa.times
        expected = (1.0 - 4.0) * np.exp(-p3.gamma * t)
        assert np.abs((xa.values - xb.values) - expected).max() <= 1e-10 * 3.0

    def test_quadrature_order(self, p3):
        # error against the constant-forcing closed form drops ~16x per halving
        eq = positive_equilibrium(p3)
        errs = {}
        for div in (8, 16):
            y_traj = integrate_y(p3, ConstantHistory(eq.y_star), 20.0 * p3.r, dt=p3.r / div)
            x_traj = integrate_x(p3, y_traj, 10.0)
            t = x_traj.times
            exact = eq.x_star + (10.0 - eq.x_star) * np.exp(-p3.gamma * t)
            errs[div] = np.abs(x_traj.values - exact).max()
        assert errs[8] / errs[16] >= 12.0

    def test_against_adaptive_reference(self, p3):
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.4), 40.0)
        x_traj = integrate_x(p3, y_traj, 2.0)
        fb = lambda v: p3.beta0 * v / (1.0 + v**p3.n)

        def rhs(t, x):
            force = fb(y_traj.value_at(t)) - 0.5 * p3.k * fb(y_traj.value_at(t - p3.r))
            return [-p3.gamma * x[0] + force]

        ref = solve_ivp(rhs, (0.0, 30.0), [2.0], method="DOP853", rtol=1e-11, atol=1e-13,
                        dense_output=True)
        probes = np.linspace(0.5, 29.5, 60)
        err = max(abs(x_traj.value_at(t) - ref.sol(t)[0]) for t in probes)
        assert err < 1e-8

    def test_matches_reinterpolating_reference_p3(self, p3):
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.55), 20000.0)
        x = integrate_x(p3, y_traj, 2.0).values
        ref = integrate_x_reference(p3, y_traj, 2.0)
        assert x.shape == ref.shape
        assert np.all(np.abs(x - ref) <= 1e-11 * np.abs(ref))

    def test_matches_reinterpolating_reference_worked_example(self, hopf_example):
        n, beta0, k, delta = hopf_example
        p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        eq = positive_equilibrium(p)
        y_traj = integrate_y(p, ConstantHistory(1.01 * eq.y_star), 2000.0)
        x = integrate_x(p, y_traj, eq.x_star).values
        ref = integrate_x_reference(p, y_traj, eq.x_star)
        assert x.shape == ref.shape
        assert np.all(np.abs(x - ref) <= 1e-11 * np.abs(ref))

    def test_one_dense_output_read(self, p3, monkeypatch):
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.4), 100.0)
        points = []
        original = Trajectory.value_at
        monkeypatch.setattr(Trajectory, "value_at",
                            lambda self, t: points.append(np.size(t)) or original(self, t))
        integrate_x(p3, y_traj, 1.0)
        forcing_trace(p3, y_traj)
        assert points == [y_traj.values.size - 1]  # the m + n step midpoints, once

    def test_step_not_dividing_delay_rejected(self, p3):
        eq = positive_equilibrium(p3)
        flat = lambda t: np.full_like(t, eq.y_star)
        y_traj = synthetic_trajectory(flat, np.zeros_like, -p3.r, 50.0, p3.r / 64.5)
        with pytest.raises(PreconditionError, match="divides r"):
            integrate_x(p3, y_traj, 0.0)
        with pytest.raises(PreconditionError, match="divides r"):
            forcing_trace(p3, y_traj)

    def test_shorter_delay_than_trajectory_rejected(self, p3):
        # r/2 is a whole number of steps too, but y starts at -r, not at -r/2
        half = ModelParams(n=p3.n, beta0=p3.beta0, delta=p3.delta, k=p3.k, r=p3.r / 2.0)
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.55), 100.0)
        with pytest.raises(PreconditionError, match="start at -r"):
            integrate_x(half, y_traj, 0.0)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_x0_domain(self, p3, x0):
        y_traj = integrate_y(p3, ConstantHistory(1.0), 50.0)
        with pytest.raises(DomainError):
            integrate_x(p3, y_traj, x0)


class TestPeriodicResponse:
    def test_cosine_matches_linear_response(self, p3):
        # independent oracle: adaptive quadrature; closed form gamma/(gamma^2+W^2)
        g = p3.gamma
        T = 40.0
        W = 2.0 * math.pi / T
        t = np.linspace(0.0, T, 4097)
        got = periodic_response(g, t, np.cos(W * t))
        closed = g / (g * g + W * W)
        oracle = quad(lambda s: math.exp(g * (s - T)) * math.cos(W * s), 0.0, T,
                      epsabs=1e-14, epsrel=1e-13)[0] / (1.0 - math.exp(-g * T))
        assert abs(oracle - closed) < 1e-10
        assert abs(got.x0 - closed) < 1e-8
        assert got.condition == pytest.approx(1.0 / (1.0 - math.exp(-g * T)), rel=1e-12)

    def test_sine_matches_linear_response(self, p3):
        # the particular solution (g sin Wt - W cos Wt)/(g^2+W^2) starts at
        # -W/(g^2+W^2); confirmed by the adaptive-quadrature oracle
        g = p3.gamma
        T = 40.0
        W = 2.0 * math.pi / T
        t = np.linspace(0.0, T, 4097)
        got = periodic_response(g, t, np.sin(W * t))
        closed = -W / (g * g + W * W)
        oracle = quad(lambda s: math.exp(g * (s - T)) * math.sin(W * s), 0.0, T,
                      epsabs=1e-14, epsrel=1e-13)[0] / (1.0 - math.exp(-g * T))
        assert abs(oracle - closed) < 1e-10
        assert abs(got.x0 - closed) < 1e-8

    def test_conditioning_guard(self):
        t = np.linspace(0.0, 1.0, 64)
        with pytest.raises(ConditioningError):
            periodic_response(1e-16, t, np.cos(2.0 * math.pi * t))


class TestPeriodicX0:
    def test_zero_offset_forcing(self, p3):
        # y pinned at the equilibrium makes H vanish identically
        eq = positive_equilibrium(p3)
        t = np.linspace(0.0, 30.0, 512)
        init = periodic_x0(p3, t, np.full_like(t, eq.y_star))
        assert init.x0 == pytest.approx(eq.x_star, abs=1e-12)

    def test_endpoint_mismatch_rejected(self, p3):
        t = np.linspace(0.0, 30.0, 512)
        y = positive_equilibrium(p3).y_star + 0.01 * t / 30.0
        with pytest.raises(PreconditionError):
            periodic_x0(p3, t, y)

    def test_periodicity_of_resulting_orbit(self, p3):
        # exactly periodic synthetic y: the x orbit from x0 must return to x0
        eq = positive_equilibrium(p3)
        dt = p3.r / 64.0
        T = 2048 * dt
        W = 2.0 * math.pi / T
        fn = lambda t: eq.y_star + 0.3 * np.sin(W * t)
        dfn = lambda t: 0.3 * W * np.cos(W * t)
        y_traj = synthetic_trajectory(fn, dfn, -p3.r, 2.0 * T, dt)
        ts = np.linspace(0.0, T, 2049)
        init = periodic_x0(p3, ts, fn(ts))
        x_traj = integrate_x(p3, y_traj, init.x0)
        assert abs(x_traj.value_at(T) - init.x0) < 1e-7
        assert abs(x_traj.value_at(2.0 * T) - init.x0) < 1e-7

    def test_simulated_cycle_pipeline(self, p3):
        # extract the attracting cycle, refine its period, and compare the
        # fixed-point initial value with the converged x orbit itself
        eq = positive_equilibrium(p3)
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.55), 150000.0)
        est = cycle_estimate(y_traj, 100000.0)
        assert est.steady
        tw, _ = y_traj.window(140000.0, 149000.0)
        anchor = tw[np.argmax(np.abs(y_traj.derivative_at(tw)))]
        period = refine_period(y_traj, anchor, est.period)
        assert abs(y_traj.value_at(anchor + period) - y_traj.value_at(anchor)) < 1e-6
        ts, ys = resample_period(y_traj, anchor, period, 4096)
        init = periodic_x0(p3, ts, ys)
        x_traj = integrate_x(p3, y_traj, eq.x_star)
        assert abs(x_traj.value_at(anchor) - init.x0) < 1e-6


@pytest.fixture(scope="module")
def worked_cycle(hopf_example):
    """The r = 0.36 worked example settled on its cycle: params, y and x
    trajectories, and one period of y from a steep anchor in 256 samples."""
    n, beta0, k, delta = hopf_example
    p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
    eq = positive_equilibrium(p)
    y_traj = integrate_y(p, ConstantHistory(1.01 * eq.y_star), 1000.0)
    est = cycle_estimate(y_traj, 500.0)
    assert est.steady
    tw, _ = y_traj.window(1000.0 - 3.0 * est.period, 1000.0 - 2.0 * est.period)
    anchor = tw[np.argmax(np.abs(y_traj.derivative_at(tw)))]
    ts, ys = resample_period(y_traj, anchor, refine_period(y_traj, anchor, est.period), 256)
    return p, integrate_x(p, y_traj, eq.x_star), anchor, ts, ys


class TestPeriodicX0Fourier:
    def test_worked_example_cycle(self, worked_cycle):
        # the x orbit started at x2 has converged by the anchor (gamma = 1.46);
        # the spline-and-Simpson reference is off by 4.9e-10 at 256 samples
        p, x_traj, anchor, ts, ys = worked_cycle
        assert abs(periodic_x0(p, ts, ys).x0 - x_traj.value_at(anchor)) < 1e-12

    def test_matches_spline_reference(self, worked_cycle):
        p, _, _, ts, ys = worked_cycle
        got, ref = periodic_x0(p, ts, ys), periodic_x0_reference(p, ts, ys)
        assert abs(got.x0 - ref.x0) < 1e-9
        assert got.condition == ref.condition

    def test_non_uniform_grid_rejected(self, p3):
        eq = positive_equilibrium(p3)
        t = 30.0 * np.linspace(0.0, 1.0, 512) ** 1.01
        y = eq.y_star + 0.1 * np.sin(2.0 * math.pi * t / 30.0)
        with pytest.raises(PreconditionError, match="uniform"):
            periodic_x0(p3, t, y)
        with pytest.raises(PreconditionError, match="uniform"):
            periodic_response(p3.gamma, t, y)

    def test_endpoint_mismatch_rejected(self, p3):
        t = np.linspace(0.0, 30.0, 512)
        with pytest.raises(PreconditionError, match="endpoint"):
            periodic_response(p3.gamma, t, np.cos(t))

    def test_import_loads_no_spline_or_quadrature(self):
        # a fresh interpreter: the test session has loaded scipy.signal, which
        # imports both modules
        code = ("import sys, cmldde; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.interpolate') "
                "if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(Path(cmldde.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "[]"


class TestForcingTrace:
    def test_tail_vanishes_on_convergent_run(self, p3):
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.2), 120000.0)
        trace = forcing_trace(p3, y_traj)
        tail = trace.values[trace.times > 100000.0]
        assert np.abs(tail).max() < 1e-4

    def test_reads_stored_nodes(self, p3):
        # dense output at the node times is off by up to 1.5e-12 relative here
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.55), 20000.0)
        trace = forcing_trace(p3, y_traj)
        m, y = y_traj.delay_steps, y_traj.values
        expected = forcing(y[m:], y[:-m], p3) - p3.gamma * positive_equilibrium(p3).x_star
        assert np.array_equal(trace.values, expected)
        assert np.array_equal(trace.times, y_traj.times[m:])

    def test_equilibrium_reference_value(self, p3):
        eq = positive_equilibrium(p3)
        y_traj = integrate_y(p3, ConstantHistory(eq.y_star), 100.0)
        trace = forcing_trace(p3, y_traj)
        assert np.abs(trace.values).max() < 1e-12


class TestConvergenceCheck:
    def test_exponential_decay_report(self, p3):
        eq = positive_equilibrium(p3)
        g = p3.gamma
        fn = lambda t: eq.x_star + np.exp(-g * t)
        dfn = lambda t: -g * np.exp(-g * t)
        traj = synthetic_trajectory(fn, dfn, 0.0, 25.0 / g, 0.05 / g)
        rep = convergence_check(traj, eq.x_star, (10.0 / g, 20.0 / g))
        assert rep.sup_distance < math.exp(-10.0) * 1.0001
        assert rep.decaying

    def test_transfer_bound_from_y_tail(self):
        # quantified convergence transfer: a small y tail forces a small x tail
        rng = np.random.default_rng(10)
        done = 0
        while done < 8:
            p = sample_params(rng, n_range=(1.5, 8.0), r_range=(0.5, 5.0),
                              delta_range=(0.02, 0.3))
            if p.k > 1.8:
                continue
            eq = positive_equilibrium(p)
            t_end = max(60.0 * p.r, 40.0 / p.gamma)
            y_traj = integrate_y(p, ConstantHistory(1.05 * eq.y_star), t_end, dt=p.r / 32)
            t_tail = 0.5 * t_end
            _, y_tail = y_traj.window(t_tail, t_end)
            eps = np.abs(y_tail - eq.y_star).max()
            x_traj = integrate_x(p, y_traj, eq.x_star + 0.5)
            _, x_tail = x_traj.window(t_tail + 15.0 / p.gamma, t_end)
            bound = eps * (2.0 * p.beta0 / p.gamma) * (1.0 + p.k / 2.0) + 1e-6
            assert np.abs(x_tail - eq.x_star).max() < bound
            done += 1
