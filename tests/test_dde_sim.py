import io
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cmldde import (
    ConstantHistory,
    DomainError,
    EigenmodeHistory,
    IntegrationError,
    ModelParams,
    PreconditionError,
    Trajectory,
    eigenmode_history,
    integrate_y,
    leading_roots,
    positive_equilibrium,
)
from cmldde import _kernels, dde_sim
from conftest import HoledHistory, sample_params
from _oracles import dde_reference, rhs_y, write_csv_onepass


class TestHistories:
    def test_constant_rejects_negative(self):
        with pytest.raises(DomainError):
            ConstantHistory(-0.1)

    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_constant_rejects_non_finite(self, level):
        with pytest.raises(DomainError):
            ConstantHistory(level)

    @pytest.mark.parametrize("field", ["y_base", "c", "mu", "omega"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_eigenmode_rejects_non_finite(self, field, value):
        fields = {"y_base": 2.0, "c": 0.3, "mu": -0.05, "omega": 0.8, field: value}
        with pytest.raises(DomainError):
            EigenmodeHistory(**fields)

    def test_eigenmode_values(self):
        h = EigenmodeHistory(y_base=2.0, c=0.3, mu=-0.05, omega=0.8)
        assert h.value(0.0) == 2.3
        s = -1.7
        assert h.value(s) == pytest.approx(2.0 + 0.3 * np.exp(-0.05 * s) * np.cos(0.8 * s), rel=1e-15)
        assert h.derivative(s) == pytest.approx(
            0.3 * np.exp(-0.05 * s) * (-0.05 * np.cos(0.8 * s) - 0.8 * np.sin(0.8 * s)), rel=1e-13
        )

    def test_sampled_reproduces_cubic(self):
        # cubic Hermite interpolation is exact on cubics with exact derivatives
        poly = np.polynomial.Polynomial([0.4, -1.2, 0.7, 0.3])
        ts = np.linspace(-2.0, 0.0, 9)
        h = Trajectory(t0=-2.0, dt=0.25, values=poly(ts), derivs=poly.deriv()(ts))
        probe = np.linspace(-2.0, 0.0, 57)
        assert h.value(probe) == pytest.approx(poly(probe), abs=1e-13)
        assert h.derivative(probe) == pytest.approx(poly.deriv()(probe), abs=1e-12)

    def test_sampled_validation(self):
        with pytest.raises(DomainError):
            Trajectory(t0=0.0, dt=1.0, values=[1.0], derivs=[0.0])
        with pytest.raises(DomainError):
            Trajectory(t0=0.0, dt=0.0, values=[1.0, 1.0], derivs=[0.0, 0.0])
        good = {"t0": -1.0, "dt": 0.5, "values": [1.0, 1.0, 1.0], "derivs": [0.0, 0.0, 0.0]}
        for bad in ({"derivs": [0.0, 0.0]}, {"values": [[1.0, 1.0, 1.0]], "derivs": [[0.0] * 3]},
                    {"t0": math.nan}, {"t0": math.inf},
                    {"dt": -0.5}, {"dt": math.nan}, {"dt": math.inf}):
            with pytest.raises(DomainError):
                Trajectory(**{**good, **bad})

    def test_sampled_rejects_non_finite(self):
        ts = dict(t0=-1.0, dt=0.5)
        with pytest.raises(DomainError):
            Trajectory(**ts, values=[1.0, math.nan, 1.0], derivs=[0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            Trajectory(**ts, values=[1.0, math.inf, 1.0], derivs=[0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            Trajectory(**ts, values=[1.0, 1.0, 1.0], derivs=[0.0, math.inf, 0.0])

    @pytest.mark.parametrize("read, t", [("value_at", math.nan), ("derivative_at", [1.0, math.nan]),
                                         ("value_at", [math.nan, 0.5])])
    def test_nan_time_outside_the_span(self, read, t):
        # NaN fails every comparison, so it must fail the span check, before
        # the interpolation casts it to an index (which warns under -W error)
        traj = Trajectory(t0=0.0, dt=0.5, values=[1.0, 2.0, 3.0], derivs=[2.0, 2.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="outside the covered span"):
                getattr(traj, read)(t)


class TestIntegrateY:
    def test_equilibrium_preserved(self, p3):
        eq = positive_equilibrium(p3)
        traj = integrate_y(p3, ConstantHistory(eq.y_star), 200.0)
        assert np.abs(traj.values - eq.y_star).max() < 1e-10

    def test_zero_preserved(self, p3):
        traj = integrate_y(p3, ConstantHistory(0.0), 50.0)
        assert np.abs(traj.values).max() == 0.0

    def test_sustained_oscillation_past_threshold(self, hopf_example):
        n, beta0, k, delta = hopf_example
        p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        y2 = positive_equilibrium(p).y_star
        traj = integrate_y(p, ConstantHistory(1.01 * y2), 400.0)
        _, w1 = traj.window(200.0, 300.0)
        _, w2 = traj.window(300.0, 400.0)
        a1 = 0.5 * (w1.max() - w1.min())
        a2 = 0.5 * (w2.max() - w2.min())
        assert a2 > 0.01
        assert a2 > 0.95 * a1  # non-decaying

    def test_span_and_step_snapping(self, p3):
        traj = integrate_y(p3, ConstantHistory(1.0), 10.0, dt=3.0)
        # dt adjusted downward so r/dt is integral
        m = round(p3.r / traj.dt)
        assert m * traj.dt == pytest.approx(p3.r, rel=1e-15)
        assert traj.dt <= 3.0
        assert traj.times[0] == pytest.approx(-p3.r)
        assert traj.t_end >= 10.0 - 1e-9

    def test_input_validation(self, p3):
        with pytest.raises(DomainError):
            integrate_y(p3, ConstantHistory(1.0), 0.0)
        with pytest.raises(DomainError):
            integrate_y(p3, ConstantHistory(1.0), 10.0, dt=-0.1)

    @pytest.mark.parametrize("t_end, dt", [(np.nan, None), (np.inf, None), (10.0, np.nan),
                                           (10.0, np.inf), (np.inf, 1e-300)])
    def test_non_finite_times_rejected(self, p3, t_end, dt):
        with pytest.raises(DomainError):
            integrate_y(p3, ConstantHistory(1.0), t_end, dt)

    def test_node_cap(self, p3):
        # the cap holds before allocation, also where r/dt overflows
        dt = p3.r / 64
        steps = dde_sim.MAX_NODES - 64 - 1
        assert 64 + dde_sim._count_steps(steps * dt, dt) + 1 == dde_sim.MAX_NODES
        for t_end, step in ((steps * dt + dt, dt), (10.0, 1e-9), (10.0, 5e-324)):
            with pytest.raises(DomainError, match="grid nodes"):
                integrate_y(p3, ConstantHistory(1.0), t_end, step)

    def test_negative_initial_function_rejected(self, p3):
        # 3 at s = -r, where the feedback reads it first, and -1 at s = 0
        hist = EigenmodeHistory(1.0, -2.0, 0.0, math.pi / p3.r)
        assert hist.value(-p3.r) == pytest.approx(3.0) and hist.value(0.0) == -1.0
        with pytest.raises(DomainError, match="initial function must be >= 0"):
            integrate_y(p3, hist, 10.0)

    def test_non_finite_detected(self, p3):
        with pytest.raises(IntegrationError) as exc:
            integrate_y(p3, HoledHistory(p3.r), 30.0)
        assert np.isfinite(exc.value.last_valid_time)

    def test_derivative_overflow_at_zero(self):
        # delta * 5e307 overflows in the t = 0 derivative itself: the last node
        # with a finite value and derivative is t = -dt, and no warning is
        # printed (warnings are errors under this suite's settings)
        p = ModelParams(n=1, beta0=2.5, delta=8, k=1.5, r=1)
        with pytest.raises(IntegrationError) as exc:
            integrate_y(p, ConstantHistory(5e307), 5.0, dt=1.0)
        assert exc.value.last_valid_time == -1.0

    def test_power_overflow_at_zero(self, p3):
        # y(0)^2 = 1e400 raises in the first RK4 stage, before the first step:
        # the last node with a finite value and derivative is t = -dt
        if _kernels.USING_NUMBA:
            pytest.skip("compiled powers overflow to inf instead of raising")
        with pytest.raises(IntegrationError) as exc:
            integrate_y(p3, ConstantHistory(1e200), 10.0)
        assert exc.value.last_valid_time == -p3.r / 64

    def test_t0_derivative_is_the_first_rk4_stage(self):
        # derivs[m], y'(0+), is the kernel's first k1, bit for bit, spelled
        # here on Python floats from v = y(-r) and y = y(0)
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 50:
            p = sample_params(rng)
            try:
                hist = eigenmode_history(p, 0.05 * positive_equilibrium(p).y_star)
            except PreconditionError:  # real leading root
                continue
            traj = integrate_y(p, hist, p.r)
            m = traj.delay_steps
            v, y = float(traj.values[0]), float(traj.values[m])
            n, beta0, delta, k = float(p.n), float(p.beta0), float(p.delta), float(p.k)
            expected = (k * beta0) * v / (1 + v ** n) - (beta0 / (1 + y ** n) + delta) * y
            assert traj.derivs[m] == expected
            checked += 1

    def test_float_rhs_matches_numpy_bits(self):
        # rhs_y on Python floats gives numpy's bits
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = sample_params(rng)
            y_now, y_delayed = 10.0 ** rng.uniform(-6.0, 6.0, 2)
            a = rhs_y(float(y_now), float(y_delayed), p)
            b = rhs_y(np.float64(y_now), np.float64(y_delayed), p)
            assert type(a) is float
            assert np.float64(a).tobytes() == np.float64(b).tobytes()

    def test_integration_error_survives_pickling(self, p3):
        # process pools and caches pickle exceptions; the required
        # last_valid_time argument must travel with the message
        with pytest.raises(IntegrationError) as exc:
            integrate_y(p3, HoledHistory(p3.r), 30.0)
        for err in (IntegrationError("x", last_valid_time=1.5), exc.value):
            back = pickle.loads(pickle.dumps(err))
            assert type(back) is IntegrationError
            assert str(back) == str(err) and back.args == err.args
            assert back.last_valid_time == err.last_valid_time

    def test_matches_adaptive_reference(self, p3, hopf_example):
        cases = [
            (p3, eigenmode_history(p3, 0.3)),
        ]
        n, beta0, k, delta = hopf_example
        s3 = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        cases.append((s3, ConstantHistory(1.05 * positive_equilibrium(s3).y_star)))
        for params, hist in cases:
            t_end = 3.0 * params.r
            traj = integrate_y(params, hist, t_end)
            ref = dde_reference(params, hist, t_end)
            probes = np.linspace(0.05 * params.r, t_end - 0.05 * params.r, 120)
            err = max(abs(traj.value_at(t) - ref(t)) for t in probes)
            assert err < 1e-9

    def test_self_convergence_order(self, p3):
        # smooth on [0, r]: classical 4th-order error decay
        hist = eigenmode_history(p3, 0.3)
        end_values = {}
        for div in (8, 16, 64):
            traj = integrate_y(p3, hist, p3.r, dt=p3.r / div)
            end_values[div] = traj.value_at(p3.r)
        e_coarse = abs(end_values[8] - end_values[64])
        e_fine = abs(end_values[16] - end_values[64])
        assert e_coarse / e_fine >= 12.0

    def test_determinism_bitwise(self, p3):
        hist = eigenmode_history(p3, 0.41)
        a = integrate_y(p3, hist, 500.0)
        b = integrate_y(p3, hist, 500.0)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.derivs, b.derivs)

    def test_positivity_random_runs(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = sample_params(rng, n_range=(1.0, 12.0), r_range=(0.2, 10.0))
            y2 = positive_equilibrium(p).y_star
            level = rng.uniform(0.0, 3.0) * y2
            traj = integrate_y(p, ConstantHistory(level), 60.0 * p.r, dt=p.r / 32)
            assert traj.values.min() >= -1e-9

    def test_boundedness_random_runs(self):
        # envelope check away from the steep-feedback corner (n large, r large),
        # where transient spikes genuinely exceed ten times the reference level
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = sample_params(rng, n_range=(1.0, 5.0), r_range=(0.2, 10.0), delta_range=(0.01, 0.3))
            y2 = positive_equilibrium(p).y_star
            level = rng.uniform(0.2, 3.0) * y2
            traj = integrate_y(p, ConstantHistory(level), 100.0 * p.r, dt=p.r / 32)
            assert traj.values.max() < 10.0 * max(level, y2)


class TestTrajectory:
    def test_dense_output_continuity(self, p3):
        traj = integrate_y(p3, eigenmode_history(p3, 0.3), 40.0)
        t = traj.times
        nodes = t[(t > -p3.r) & (t < traj.t_end)][::7]
        eps = 1e-9
        left = traj.value_at(nodes - eps)
        right = traj.value_at(nodes + eps)
        exact = traj.value_at(nodes)
        assert np.abs(left - exact).max() < 1e-7
        assert np.abs(right - exact).max() < 1e-7

    def test_history_evaluated_exactly(self, p3):
        hist = eigenmode_history(p3, 0.25)
        traj = integrate_y(p3, hist, 20.0)
        s = np.linspace(-p3.r, 0.0, 23)
        assert traj.value_at(s) == pytest.approx(hist.value(s), abs=1e-15)

    def test_dense_output_contract(self):
        p = ModelParams(n=2, beta0=2.5, delta=0.0015, k=1.01, r=8.0)
        traj = integrate_y(p, eigenmode_history(p, 0.3), 40.0)
        m = traj.delay_steps
        assert traj.value_at(0.0) == traj.history.value(0.0)
        # at t = 0 the derivative is the solution's right-hand one, not the history's
        assert traj.derivative_at(0.0) == traj.derivs[m]
        assert traj.derivative_at(0.0) != traj.history.derivative(0.0)
        assert traj.derivative_at(-1e-9) == traj.history.derivative(-1e-9)

    def test_out_of_span_rejected(self, p3):
        traj = integrate_y(p3, ConstantHistory(1.0), 10.0)
        with pytest.raises(DomainError):
            traj.value_at(traj.t_end + 1.0)
        with pytest.raises(DomainError):
            traj.value_at(-p3.r - 1.0)

    def test_history_must_cover_delay(self, p3):
        # a sample on [-1, 0] is no initial function for r = 7.55
        ts = np.linspace(-1.0, 0.0, 5)
        short = Trajectory(t0=-1.0, dt=0.25, values=1.0 + ts, derivs=np.ones(5))
        with pytest.raises(DomainError, match="outside the covered span"):
            integrate_y(p3, short, 10.0)

    @pytest.mark.parametrize("case", ["p3", "worked_example"])
    def test_restart_from_last_delay_window(self, p3, hopf_example, case):
        # the last delay window of a run, as a history on [-r, 0], continues
        # that run: the restart matches one long run node for node
        if case == "p3":
            params, hist, t_half = p3, eigenmode_history(p3, 0.55), 2000.0
        else:
            n, beta0, k, delta = hopf_example
            params = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
            hist, t_half = eigenmode_history(params, 0.05), 100.0
        first = integrate_y(params, hist, t_half)
        m = first.delay_steps
        window = Trajectory(t0=-params.r, dt=first.dt, values=first.values[-m - 1:],
                            derivs=first.derivs[-m - 1:])
        second = integrate_y(params, window, t_half)
        full = integrate_y(params, hist, 2.0 * t_half)
        start = first.values.size - m - 1
        assert second.dt == full.dt and start + second.values.size <= full.values.size
        expected = full.values[start:start + second.values.size]
        assert np.max(np.abs(second.values - expected) / np.abs(expected)) <= 1e-12

    def test_csv_round_trip(self, p3, tmp_path):
        traj = integrate_y(p3, ConstantHistory(1.0), 5.0)
        out = tmp_path / "traj.csv"
        traj.write_csv(out, stride=4)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y,ydot"
        data = np.loadtxt(lines[1:], delimiter=",")
        assert data.shape[0] == traj.times[::4].size
        assert data[:, 0] == pytest.approx(traj.times[::4])
        assert data[:, 1] == pytest.approx(traj.values[::4], rel=1e-15)

    def test_csv_to_stream_matches_file(self, p3, tmp_path):
        traj = integrate_y(p3, ConstantHistory(1.0), 5.0)
        out = tmp_path / "traj.csv"
        traj.write_csv(str(out), labels=("t", "x", "xdot"), stride=3)
        stream = io.StringIO()
        traj.write_csv(stream, labels=("t", "x", "xdot"), stride=3)
        assert stream.getvalue() == out.read_text()

    def test_csv_stride_below_one_rejected(self, p3, tmp_path):
        traj = integrate_y(p3, ConstantHistory(1.0), 5.0)
        out = tmp_path / "traj.csv"
        with pytest.raises(DomainError):
            traj.write_csv(out, stride=0)
        assert not out.exists()

    @pytest.mark.parametrize("stride", [1.5, 2.0, "2", None])
    def test_csv_non_integer_stride_rejected(self, p3, tmp_path, stride):
        traj = integrate_y(p3, ConstantHistory(1.0), 5.0)
        out = tmp_path / "traj.csv"
        with pytest.raises(DomainError, match="integer >= 1"):
            traj.write_csv(out, stride=stride)
        assert not out.exists()

    @pytest.mark.parametrize("stride", [1, 3, 8, dde_sim._BLOCK_STEPS + 1, np.int64(3)])
    def test_csv_blocks_match_one_pass(self, p3, stride):
        # 13 blocks of rows at stride 1, rows on both sides of every block edge
        steps = 3 * dde_sim._BLOCK_STEPS + 17 - 64
        traj = integrate_y(p3, eigenmode_history(p3, 0.4), steps * p3.r / 64)
        assert traj.values.size == 3 * dde_sim._BLOCK_STEPS + 18
        blocked, onepass = io.StringIO(), io.StringIO()
        traj.write_csv(blocked, ("t", "y", "ydot"), stride)
        write_csv_onepass(traj, onepass, ("t", "y", "ydot"), stride)
        assert blocked.getvalue() == onepass.getvalue()

    def test_csv_peak_memory_is_one_block(self, tmp_path):
        # 400,000 steps: the whole time grid alone would take 3.2 MB
        n = 400_001
        traj = Trajectory(t0=-1.0, dt=1e-3, values=np.linspace(1.0, 2.0, n), derivs=np.ones(n))
        out = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            traj.write_csv(out, stride=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 1 + (n + 7) // 8
        assert peak < 1e6


class TestNodeViews:
    """Step midpoints and windows read from node slices, against the dense
    output and boolean-mask reads they replace."""

    @staticmethod
    def _trajectory(t0, dt, size, seed, with_history):
        rng = np.random.default_rng(seed)
        hist = EigenmodeHistory(y_base=1.0, c=0.3, mu=0.2, omega=2.5) if with_history else None
        return Trajectory(t0=t0, dt=dt, values=rng.normal(size=size),
                          derivs=rng.normal(size=size), history=hist)

    @settings(max_examples=400, deadline=None)
    @given(t0=st.floats(-1e3, 1e3), dt=st.floats(1e-4, 10.0), size=st.integers(2, 300),
           seed=st.integers(0, 2**32 - 1), with_history=st.booleans())
    @example(t0=-2.5, dt=1.0, size=6, seed=0, with_history=True)  # a midpoint at t = 0
    @example(t0=-7.55, dt=7.55 / 64, size=200, seed=1, with_history=True)  # integrate_y's grid
    def test_step_midpoints_equal_value_at(self, t0, dt, size, seed, with_history):
        traj = self._trajectory(t0, dt, size, seed, with_history)
        got = traj._step_midpoints()
        want = traj.value_at(t0 + dt * (np.arange(size - 1) + 0.5))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(t0=st.floats(-1e3, 1e3), dt=st.floats(1e-4, 10.0), size=st.integers(2, 300),
           with_history=st.booleans(), data=st.data())
    def test_step_midpoint_ranges_are_slices(self, t0, dt, size, with_history, data):
        traj = self._trajectory(t0, dt, size, 0, with_history)
        lo = data.draw(st.integers(0, size - 2))
        hi = data.draw(st.integers(lo + 1, size - 1))
        assert traj._step_midpoints(lo, hi).tobytes() == traj._step_midpoints()[lo:hi].tobytes()

    @settings(max_examples=600, deadline=None)
    @given(t0=st.floats(-1e3, 1e3), dt=st.floats(1e-4, 10.0), size=st.integers(2, 300),
           data=st.data())
    def test_window_equals_mask_selection(self, t0, dt, size, data):
        traj = self._trajectory(t0, dt, size, 0, False)
        t = t0 + dt * np.arange(size)
        node = st.sampled_from(t.tolist())
        bound = st.one_of(
            node,  # exactly on a node
            node.map(lambda v: math.nextafter(v, -math.inf)),
            node.map(lambda v: math.nextafter(v, math.inf)),
            st.floats(t[0] - 3.0 * dt, t[-1] + 3.0 * dt),  # in and just outside the span
            st.floats(allow_nan=True, allow_infinity=True),
        )
        lo, hi = data.draw(bound), data.draw(bound)  # reversed and empty windows included
        sel = (t >= lo) & (t <= hi)
        t_w, v_w = traj.window(lo, hi)
        assert t_w.dtype == v_w.dtype == np.float64
        assert t_w.tobytes() == t[sel].tobytes()
        assert v_w.tobytes() == traj.values[sel].tobytes()

    def test_window_values_are_a_view(self, p3):
        traj = integrate_y(p3, ConstantHistory(1.0), 50.0)
        _, v = traj.window(10.0, 20.0)
        assert v.size > 0 and np.shares_memory(v, traj.values)


class TestEigenmodeConstruction:
    def test_zero_amplitude_is_constant(self, p3):
        eq = positive_equilibrium(p3)
        h = eigenmode_history(p3, 0.0)
        s = np.linspace(-p3.r, 0.0, 7)
        assert h.value(s) == pytest.approx(np.full(7, eq.y_star), rel=1e-15)

    @pytest.mark.parametrize("c,expected", [(0.2, 4.15811), (0.55, 4.50811)])
    def test_value_at_zero(self, p3, c, expected):
        eq = positive_equilibrium(p3)
        h = eigenmode_history(p3, c)
        assert h.value(0.0) == pytest.approx(eq.y_star + c, abs=1e-12)
        assert h.value(0.0) == pytest.approx(expected, rel=1e-5)

    def test_built_from_leading_pair(self, p3):
        h = eigenmode_history(p3, 0.2)
        lead = leading_roots(p3, 1)[0]
        assert h.mu == lead.re and h.omega == lead.im

    def test_real_leading_root_rejected(self):
        # b1 = 0 collapses the spectrum to one real root
        p = ModelParams(n=3, beta0=3.0, delta=1.0, k=1.5, r=1.0)
        with pytest.raises(PreconditionError):
            eigenmode_history(p, 0.1)


class TestDerivativeSeries:
    """The phase-portrait series (traj.times, traj.derivs)."""

    def test_equilibrium_derivatives_vanish(self, p3):
        eq = positive_equilibrium(p3)
        traj = integrate_y(p3, ConstantHistory(eq.y_star), 50.0)
        assert np.abs(traj.derivs).max() < 1e-10

    def test_history_segment_is_analytic(self, p3):
        hist = eigenmode_history(p3, 0.3)
        traj = integrate_y(p3, hist, 20.0)
        t, d = traj.times, traj.derivs
        past = t < 0.0
        assert d[past] == pytest.approx(hist.derivative(t[past]), abs=1e-12)

    def test_oscillating_run_moves(self, hopf_example):
        n, beta0, k, delta = hopf_example
        p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        y2 = positive_equilibrium(p).y_star
        traj = integrate_y(p, ConstantHistory(1.01 * y2), 300.0)
        assert np.abs(traj.derivs).max() > 0.0
