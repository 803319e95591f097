import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

import cmldde
from cmldde import (
    ConditioningError,
    ConstantHistory,
    DomainError,
    IntegrationError,
    ModelParams,
    PreconditionError,
    Trajectory,
    eigenmode_history,
    integrate_x,
    integrate_y,
    periodic_response,
    periodic_x0,
    positive_equilibrium,
)
from cmldde.explorer import _crossing, cycle_estimate
from cmldde.dde_sim import _BLOCK_STEPS
from cmldde.x_solver import _exp_simpson
from conftest import sample_params
from _oracles import (
    integrate_x_onepass,
    integrate_x_reference,
    periodic_x0_fourier,
    periodic_x0_reference,
)


def synthetic_trajectory(fn, dfn, t0, t_end, dt):
    n = int(round((t_end - t0) / dt))
    t = t0 + dt * np.arange(n + 1)
    return Trajectory(t0=t0, dt=dt, values=fn(t), derivs=dfn(t))


def return_time(traj, anchor, period_guess):
    """Time from the node anchor to the same-direction return to its value
    nearest anchor + period_guess, refined on the dense output by _crossing."""
    level = traj.value_at(anchor)
    sgn = 1.0 if traj.derivative_at(anchor) > 0.0 else -1.0
    lo, hi = traj._node_range(anchor + 0.5 * period_guess, anchor + 1.5 * period_guess)
    f = sgn * (traj.values[lo:hi] - level)
    steps = np.flatnonzero((f[:-1] < 0.0) & (f[1:] >= 0.0)) + lo
    i = steps[np.argmin(np.abs(traj.t0 + traj.dt * steps - (anchor + period_guess)))]
    return _crossing(traj, int(i), level) - anchor


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

    def test_no_dense_output_read(self, p3, monkeypatch):
        # nodes and Simpson midpoints both come from slices of y's stored nodes
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.4), 100.0)
        points = []
        original = Trajectory.value_at
        monkeypatch.setattr(Trajectory, "value_at",
                            lambda self, t: points.append(np.size(t)) or original(self, t))
        integrate_x(p3, y_traj, 1.0)
        assert points == []

    def test_peak_memory_bounded(self, hopf_example):
        # the README x-sim example on the benchmark's span: 40,000 steps, about
        # 0.32 MB per node array; the dense-output read took 4.8 MB here
        n, beta0, k, delta = hopf_example
        params = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        eq = positive_equilibrium(params)
        y_traj = integrate_y(params, ConstantHistory(1.01 * eq.y_star), 225.0)
        assert y_traj.values.size - 1 - y_traj.delay_steps == 40_000
        integrate_x(params, y_traj, eq.x_star)
        tracemalloc.start()
        try:
            integrate_x(params, y_traj, eq.x_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_step_not_dividing_delay_rejected(self, p3):
        eq = positive_equilibrium(p3)
        flat = lambda t: np.full_like(t, eq.y_star)
        y_traj = synthetic_trajectory(flat, np.zeros_like, -p3.r, 50.0, p3.r / 64.5)
        with pytest.raises(PreconditionError, match="divides r"):
            integrate_x(p3, y_traj, 0.0)

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

    def test_simpson_increment_overflow_is_integration_error(self):
        # a flux near the double range overflows in the Simpson increment of the
        # step into y's one bump at t = 1.5, before the recursion sees it; that
        # must end like an overflow in the recursion, not in a numpy warning
        p = ModelParams(n=2, beta0=1e308, delta=0.1, k=1.5, r=1)
        values = np.zeros(11)
        values[5] = 1.0
        y_traj = Trajectory(t0=-1.0, dt=0.5, values=values, derivs=np.zeros(values.size))
        with pytest.raises(IntegrationError) as err:
            integrate_x(p, y_traj, 0.0)
        assert err.value.last_valid_time == 1.0
        with pytest.raises(IntegrationError) as err:
            periodic_x0(p, y_traj, 2.0)
        assert err.value.last_valid_time == 1.0


class TestIntegrateXBlocks:
    """integrate_x runs in blocks of max(_BLOCK_STEPS, m) steps and must equal the
    one-pass form bit for bit, with temporaries of one block."""

    @staticmethod
    def _assert_identical(params, y_traj, x0):
        x, ref = integrate_x(params, y_traj, x0), integrate_x_onepass(params, y_traj, x0)
        assert np.array_equal(x.values, ref.values)
        assert np.array_equal(x.derivs, ref.derivs)

    @pytest.mark.parametrize("steps", [_BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1,
                                       3 * _BLOCK_STEPS + 17])
    def test_block_edges_eigenmode(self, p3, steps):
        # the history's midpoints (t < 0) all fall in block 0
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.4), steps * p3.r / 64)
        assert y_traj.values.size - 1 - y_traj.delay_steps == steps
        self._assert_identical(p3, y_traj, 2.0)

    def test_constant_history(self, hopf_example):
        n, beta0, k, delta = hopf_example
        p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        eq = positive_equilibrium(p)
        y_traj = integrate_y(p, ConstantHistory(1.01 * eq.y_star), 2 * _BLOCK_STEPS * p.r / 64)
        self._assert_identical(p, y_traj, eq.x_star)

    def test_delay_longer_than_block(self, p3):
        # m = 5000 > _BLOCK_STEPS: the block grows to m steps
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.4), 3.0 * p3.r, dt=p3.r / 5000)
        assert y_traj.delay_steps == 5000 > _BLOCK_STEPS
        self._assert_identical(p3, y_traj, 1.0)

    def test_ensemble_run_size(self, p3):
        # the benchmark ensemble's runs: 40 delays at 32 steps, one block
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.4), 40.0 * p3.r, dt=p3.r / 32)
        assert y_traj.values.size - 1 - y_traj.delay_steps == 1280
        self._assert_identical(p3, y_traj, 1.0)

    def test_failure_time_is_global_step(self):
        # x starts at the largest double and barely decays (k near 2); a flux
        # bump in block 2 pushes it to inf there, at a global step
        p = ModelParams(n=2.0, beta0=2e306, delta=0.1, k=2.0 - 1e-12, r=1.0)
        m, bump = 64, 2 * _BLOCK_STEPS + 100
        values = np.zeros(m + 3 * _BLOCK_STEPS + 1)
        values[m + bump + 1] = 1.0
        y_traj = Trajectory(t0=-1.0, dt=1.0 / m, values=values, derivs=np.zeros(values.size))
        with pytest.raises(IntegrationError) as blocked:
            integrate_x(p, y_traj, sys.float_info.max)
        with pytest.raises(IntegrationError) as onepass:
            integrate_x_onepass(p, y_traj, sys.float_info.max)
        assert blocked.value.last_valid_time == onepass.value.last_valid_time == bump / m

    def test_peak_memory_is_output_plus_one_block(self, hopf_example):
        # 400,000 steps on the worked example's grid; the one-pass form peaked
        # at 19.2 MB here against 6.4 MB of output
        n, beta0, k, delta = hopf_example
        p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        m, steps = 64, 400_000
        t = -p.r + (p.r / m) * np.arange(m + steps + 1)
        y_traj = Trajectory(t0=-p.r, dt=p.r / m, values=1.0 + 0.1 * np.sin(t),
                            derivs=0.1 * np.cos(t))
        tracemalloc.start()
        try:
            x_traj = integrate_x(p, y_traj, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x_traj.values.size == steps + 1
        assert peak <= x_traj.values.nbytes + x_traj.derivs.nbytes + 1e6


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
        # y pinned at the equilibrium makes H vanish identically; the window
        # integral carries integrate_x's Simpson error, 5e-14 at r/256
        eq = positive_equilibrium(p3)
        y_traj = integrate_y(p3, ConstantHistory(eq.y_star), 30.0, dt=p3.r / 256)
        x0 = periodic_x0(p3, y_traj, 0.0)
        assert x0 == pytest.approx(eq.x_star, abs=1e-12)
        assert np.all(integrate_x(p3, y_traj, x0).values == x0)

    def test_periodicity_of_resulting_orbit(self, p3):
        # exactly periodic synthetic y: the x orbit from x0 must return to x0
        eq = positive_equilibrium(p3)
        dt = p3.r / 64.0
        T = 2048 * dt
        W = 2.0 * math.pi / T
        fn = lambda t: eq.y_star + 0.3 * np.sin(W * t)
        dfn = lambda t: 0.3 * W * np.cos(W * t)
        y_traj = synthetic_trajectory(fn, dfn, -p3.r, 2.0 * T, dt)
        x0 = periodic_x0(p3, y_traj, 0.0)
        x_traj = integrate_x(p3, y_traj, x0)
        assert abs(x_traj.value_at(T) - x0) < 1e-7
        assert abs(x_traj.value_at(2.0 * T) - x0) < 1e-7

    def test_simulated_cycle_pipeline(self, p3):
        # extract the attracting cycle, refine its return time, and compare the
        # window integral at an anchor with the converged x orbit itself
        eq = positive_equilibrium(p3)
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.55), 150000.0)
        est = cycle_estimate(y_traj, 100000.0)
        assert est.steady
        tw, _ = y_traj.window(140000.0, 149000.0)
        anchor = tw[np.argmax(np.abs(y_traj.derivative_at(tw)))]
        period = return_time(y_traj, anchor, est.period)
        assert abs(y_traj.value_at(anchor + period) - y_traj.value_at(anchor)) < 1e-6
        x_traj = integrate_x(p3, y_traj, eq.x_star)
        assert abs(x_traj.value_at(anchor) - periodic_x0(p3, y_traj, anchor)) < 1e-6

    def test_off_grid_or_out_of_span_rejected(self, p3):
        y_traj = integrate_y(p3, eigenmode_history(p3, 0.4), 50.0)
        dt = y_traj.dt
        for t0 in (0.5 * dt, 10.0 + 0.3 * dt, -dt, -p3.r, y_traj.t_end + dt, math.nan):
            with pytest.raises(PreconditionError, match="not a node"):
                periodic_x0(p3, y_traj, t0)
        periodic_x0(p3, y_traj, y_traj.t_end)  # the last node is a valid anchor
        other = ModelParams(n=p3.n, beta0=p3.beta0, delta=p3.delta, k=p3.k, r=1.01 * p3.r)
        with pytest.raises(PreconditionError, match="start at -r"):
            periodic_x0(other, y_traj, 0.0)


class TestWindowIntegralProperties:
    """periodic_x0's I(t0) = int_{t0-r}^{t0} e^(-gamma (t0-s)) g(y(s)) ds on a
    synthetic positive y = y2 (1 + a sin(W t + phi)) that repeats every
    `period` steps, over the sample_params distribution at m steps per delay."""

    m = 64

    @classmethod
    def _case(cls, seed, period, a, phi):
        p = sample_params(np.random.default_rng(seed))
        y2, dt = positive_equilibrium(p).y_star, p.r / cls.m
        W = 2.0 * math.pi / (period * dt)
        fn = lambda t: y2 * (1.0 + a * np.sin(W * t + phi))
        dfn = lambda t: y2 * a * W * np.cos(W * t + phi)
        return p, synthetic_trajectory(fn, dfn, -p.r, 2 * period * dt, dt)

    cases = dict(seed=st.integers(0, 2**32 - 1), period=st.integers(8, 600),
                 a=st.floats(0.0, 0.9), phi=st.floats(0.0, 2.0 * math.pi))

    @settings(max_examples=60, deadline=None)
    @given(**cases)
    def test_positive_and_below_flux_bound(self, seed, period, a, phi):
        # every weight is positive, so 0 < I <= max g times the quadrature of 1;
        # max g = beta0 (n-1)^(1-1/n)/n (the n = 1 supremum beta0 included)
        p, y_traj = self._case(seed, period, a, phi)
        m = self.m
        ones = _exp_simpson(p.gamma, y_traj.dt, np.ones(m + 1), np.ones(m), np.zeros(m + 1))[-1]
        assert ones == pytest.approx(-math.expm1(-p.gamma * p.r) / p.gamma, rel=1e-9)
        g_max = p.beta0 * (p.n - 1.0) ** (1.0 - 1.0 / p.n) / p.n
        for t0 in y_traj.times[m::max(1, period // 4)]:
            i = periodic_x0(p, y_traj, t0)
            assert 0.0 < i <= g_max * ones * (1.0 + 1e-12)  # rounding of the two sums

    @settings(max_examples=60, deadline=None)
    @given(offset=st.floats(-2.0, 2.0), **cases)
    def test_x_minus_window_integral_decays_exactly(self, seed, period, a, phi, offset):
        p, y_traj = self._case(seed, period, a, phi)
        i0 = periodic_x0(p, y_traj, 0.0)
        x0 = i0 + offset * max(1.0, i0)
        x_traj = integrate_x(p, y_traj, x0)
        for j in np.linspace(0, x_traj.values.size - 1, 9).astype(int):
            t, x = x_traj.times[j], x_traj.values[j]
            expected = (x0 - i0) * math.exp(-p.gamma * t)
            assert abs(x - periodic_x0(p, y_traj, t) - expected) <= 1e-10 * max(1.0, abs(x))

    @settings(max_examples=60, deadline=None)
    @given(**cases)
    def test_orbit_from_window_integral_is_periodic(self, seed, period, a, phi):
        p, y_traj = self._case(seed, period, a, phi)
        x0 = periodic_x0(p, y_traj, 0.0)
        x = integrate_x(p, y_traj, x0).values
        assert x[period] == pytest.approx(x0, rel=1e-9)
        assert x[2 * period] == pytest.approx(x0, rel=1e-9)


@pytest.fixture(scope="module")
def worked_cycle(hopf_example):
    """The r = 0.36 worked example settled on its cycle: params, y and x
    trajectories, a steep anchor node, and one period of y from the anchor in
    256 samples (the oracles' input)."""
    n, beta0, k, delta = hopf_example
    p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
    eq = positive_equilibrium(p)
    y_traj = integrate_y(p, ConstantHistory(1.01 * eq.y_star), 1000.0)
    est = cycle_estimate(y_traj, 500.0)
    assert est.steady
    tw, _ = y_traj.window(1000.0 - 3.0 * est.period, 1000.0 - 2.0 * est.period)
    anchor = tw[np.argmax(np.abs(y_traj.derivative_at(tw)))]
    ts = np.linspace(anchor, anchor + return_time(y_traj, anchor, est.period), 257)
    return p, y_traj, integrate_x(p, y_traj, eq.x_star), anchor, ts, y_traj.value_at(ts)


class TestPeriodicX0Fourier:
    def test_worked_example_cycle(self, worked_cycle):
        # the x orbit started at x2 has converged by the anchor (gamma = 1.46);
        # the Fourier oracle over one refined period agrees to 1.1e-14
        p, y_traj, x_traj, anchor, ts, ys = worked_cycle
        got = periodic_x0(p, y_traj, anchor)
        assert abs(got - x_traj.value_at(anchor)) < 1e-12
        assert abs(got - periodic_x0_fourier(p, ts, ys).x0) < 1e-12

    def test_matches_spline_reference(self, worked_cycle):
        # the spline-and-Simpson reference is off by 4.9e-10 at 256 samples
        p, y_traj, _, anchor, ts, ys = worked_cycle
        assert abs(periodic_x0(p, y_traj, anchor) - periodic_x0_reference(p, ts, ys).x0) < 1e-9

    def test_non_uniform_grid_rejected(self, p3):
        eq = positive_equilibrium(p3)
        t = 30.0 * np.linspace(0.0, 1.0, 512) ** 1.01
        y = eq.y_star + 0.1 * np.sin(2.0 * math.pi * t / 30.0)
        with pytest.raises(PreconditionError, match="uniform"):
            periodic_response(p3.gamma, t, y)

    def test_endpoint_mismatch_rejected(self, p3):
        t = np.linspace(0.0, 30.0, 512)
        with pytest.raises(PreconditionError, match="endpoint"):
            periodic_response(p3.gamma, t, np.cos(t))

    def test_import_loads_no_spline_or_quadrature(self, tmp_path):
        # a fresh interpreter runs both kernels, one x integration, one orbit
        # classification, an eigenmode history (one root search), a short
        # x-sim and a stability report with five roots; none of them may load
        # scipy at all
        code = (
            "import sys\n"
            "from cmldde import (ConstantHistory, ModelParams, _kernels, cli, eigenmode_history,\n"
            "                    integrate_x, integrate_y, positive_equilibrium)\n"
            "from cmldde.explorer import classify_orbit\n"
            "_kernels.warmup()\n"
            "p = ModelParams(n=12.0, beta0=1.77, delta=0.05, k=1.18074, r=0.36)\n"
            "eq = positive_equilibrium(p)\n"
            "y = integrate_y(p, ConstantHistory(1.01 * eq.y_star), 60.0)\n"
            "integrate_x(p, y, eq.x_star)\n"
            "classify_orbit(y, eq.y_star, 60.0)\n"
            "eigenmode_history(p, 0.05)\n"
            "params = ['--n', '12', '--beta0', '1.77', '--delta', '0.05', '--k', '1.18074',\n"
            "          '--r', '0.36']\n"
            "assert cli.main(['x-sim', *params, '--t-end', '20', '--out', sys.argv[1]]) == 0\n"
            "assert cli.main(['stability', *params, '--roots', '5', '--format', 'json',\n"
            "                 '--out', sys.argv[2]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cmldde.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "x.csv"),
                              str(tmp_path / "stability.json")],
                             capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"
        assert (tmp_path / "x.csv").stat().st_size > 0
        assert len(json.loads((tmp_path / "stability.json").read_text())["leading_roots"]) == 5


class TestConvergenceCheck:
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
