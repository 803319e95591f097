"""The integrator kernels against independent scalar reference loops.

Each case runs the public integrators twice, once with the package kernels
and once with the reference loops of ``_oracles`` patched in, so both see
identical inputs by construction. The RK4 kernel must also match the
step-by-step loop bit for bit on finished and failed runs; that loop checks
every node's value, the kernel each delay interval's last derivative.
"""

import tracemalloc

import numpy as np
import pytest

from cmldde import (
    ConstantHistory,
    IntegrationError,
    ModelParams,
    PreconditionError,
    _kernels,
    eigenmode_history,
    integrate_x,
    integrate_y,
    positive_equilibrium,
)
from _oracles import (
    _rk4_delay_stepwise_impl,
    exp_scan_lfilter,
    exp_scan_reference,
    rk4_delay_reference,
    rk4_delay_stepwise,
)
from conftest import HoledHistory, sample_params


@pytest.fixture
def cases(p3, hopf_example):
    n, beta0, k, delta = hopf_example
    s3 = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
    return [
        (p3, eigenmode_history(p3, 0.41), 300.0 * p3.r),
        (s3, ConstantHistory(1.01 * positive_equilibrium(s3).y_star), 300.0 * s3.r),
    ]


def _y_matching_stepwise(params, hist, t_end, dt, monkeypatch):
    y_new = integrate_y(params, hist, t_end, dt)
    with monkeypatch.context() as mp:
        mp.setattr(_kernels, "rk4_delay", rk4_delay_stepwise)
        y_step = integrate_y(params, hist, t_end, dt)
    assert np.array_equal(y_new.values, y_step.values)
    assert np.array_equal(y_new.derivs, y_step.derivs)
    return y_new


def _y_with_reference(params, hist, t_end, dt, monkeypatch):
    y_new = _y_matching_stepwise(params, hist, t_end, dt, monkeypatch)
    with monkeypatch.context() as mp:
        mp.setattr(_kernels, "rk4_delay", rk4_delay_reference)
        y_ref = integrate_y(params, hist, t_end, dt)
    return y_new, y_ref


def test_y_and_x_match_reference_loops(cases, monkeypatch):
    for params, hist, t_end in cases:
        x0 = positive_equilibrium(params).x_star
        y_new, y_ref = _y_with_reference(params, hist, t_end, None, monkeypatch)
        x_new = integrate_x(params, y_new, x0)
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "exp_scan", exp_scan_reference)
            x_ref = integrate_x(params, y_ref, x0)
        np.testing.assert_allclose(y_new.values, y_ref.values, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(x_new.values, x_ref.values, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize(
    "steps_per_delay, delays, nsteps",
    [(1, 60.0, 60), (64, 10.0 / 64, 10), (64, 7.0 + 13.0 / 64, 7 * 64 + 13)],
    ids=["one_step_per_delay", "shorter_than_one_delay", "partial_last_delay"],
)
def test_delay_interval_edges_match_reference(steps_per_delay, delays, nsteps, hopf_example,
                                              monkeypatch):
    # the kernel steps one delay interval of m steps at a time: m = 1 (dt = r,
    # rings of length 1), a run shorter than one interval, and whole intervals
    # followed by a partial one
    n, beta0, k, delta = hopf_example
    params = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
    y_new, y_ref = _y_with_reference(params, eigenmode_history(params, 0.05), delays * params.r,
                                     params.r / steps_per_delay, monkeypatch)
    assert y_new.delay_steps == steps_per_delay
    assert y_new.values.size == steps_per_delay + nsteps + 1
    np.testing.assert_allclose(y_new.values, y_ref.values, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(y_new.derivs, y_ref.derivs, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize(
    "steps_per_delay, nsteps",
    [(1, 197), (2, 112 * 2 + 1), (3, 51 * 3 + 2), (32, 11 * 32 + 7), (64, 2 * 64 + 17),
     (8, 20 * 8 + 5)],
)
def test_block_edges_match_stepwise(steps_per_delay, nsteps, hopf_example, monkeypatch):
    # the kernel makes one pass per delay interval of m steps; each run ends
    # in a partial interval after whole ones, all but m = 1 inside an interval.
    # The reference's powers go through exp/log, so its derivatives differ in
    # the last bits, which near a zero of f is more than rtol: the atol scales
    # with max|f| (the largest gap was 4.4e-13 max|f|, at m = 1)
    n, beta0, k, delta = hopf_example
    params = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
    dt = params.r / steps_per_delay
    y_new, y_ref = _y_with_reference(params, eigenmode_history(params, 0.05), nsteps * dt, dt,
                                     monkeypatch)
    assert y_new.values.size == steps_per_delay + nsteps + 1
    np.testing.assert_allclose(y_new.values, y_ref.values, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(y_new.derivs, y_ref.derivs, rtol=1e-11,
                               atol=1e-11 * np.abs(y_ref.derivs).max())


def test_random_parameter_sets_match_stepwise(monkeypatch):
    rng = np.random.default_rng(15)
    for _ in range(20):
        params = sample_params(rng)
        y_star = positive_equilibrium(params).y_star
        try:
            hist = eigenmode_history(params, 0.05 * y_star)
        except PreconditionError:  # real leading root
            hist = ConstantHistory(1.3 * y_star)
        _y_matching_stepwise(params, hist, 20.0 * params.r, params.r / 32, monkeypatch)


def test_zero_history_stays_zero(p3, monkeypatch):
    # the clamped history seeds the delayed-flux rings: y = 0 is an
    # equilibrium, and every node and derivative stays exactly 0
    y_new, y_ref = _y_with_reference(p3, ConstantHistory(0.0), 40.0 * p3.r, None, monkeypatch)
    assert np.all(y_new.values == 0.0) and np.all(y_new.derivs == 0.0)
    np.testing.assert_array_equal(y_new.values, y_ref.values)


def test_first_non_finite_step_matches_reference(p3, monkeypatch):
    hist = HoledHistory(p3.r)
    with pytest.raises(IntegrationError) as new:
        integrate_y(p3, hist, 30.0)
    monkeypatch.setattr(_kernels, "rk4_delay", rk4_delay_reference)
    with pytest.raises(IntegrationError) as ref:
        integrate_y(p3, hist, 30.0)
    assert new.value.last_valid_time == ref.value.last_valid_time


def _kernel_inputs(m, nsteps, level):
    # history 1 with the t = 0 node at `level`; NaN beyond shows unwritten nodes
    y, f = np.full(m + nsteps + 1, np.nan), np.full(m + nsteps + 1, np.nan)
    y[: m + 1], f[: m + 1] = 1.0, 0.0
    y[m] = level
    return y, f, np.ones(m)


def _stepwise_overflows(y, f, hist_half, m, *args):
    try:
        _rk4_delay_stepwise_impl(memoryview(y.copy()), memoryview(f.copy()), hist_half.tolist(),
                                 [0.0] * m, [0.0] * m, m, *args)
    except OverflowError:
        return True
    return False


def _assert_fails_like_stepwise(y, f, hist_half, *args):
    y_ref, f_ref = y.copy(), f.copy()
    bad = rk4_delay_stepwise(y_ref, f_ref, hist_half, *args)
    assert _kernels.rk4_delay(y, f, hist_half, *args) == bad
    assert np.isfinite(y[: bad + 1]).all() and np.isfinite(f[: bad + 1]).all()
    assert np.array_equal(y[: bad + 1], y_ref[: bad + 1])
    assert np.array_equal(f[: bad + 1], f_ref[: bad + 1])
    return bad


@pytest.mark.parametrize("m", [1, 64])
@pytest.mark.parametrize("offset", [0, 32, 63], ids=["first", "middle", "last"])
@pytest.mark.parametrize("n, overflows", [(1.0, False), (2.0, True)],
                         ids=["non_finite_node", "overflow_error"])
def test_failing_step_at_block_edges(m, offset, n, overflows):
    # the first bad step falls at the first, middle or last step of the
    # second delay interval (m = 64) or is an interval of its own (m = 1).
    # n = 1 never overflows a power, so the node goes non-finite; at n = 2 a
    # power raises first. Either way the interval's earlier nodes must be in
    # place. dt = 1 and delta = 4 put RK4 far outside its stability region:
    # |y| grows about fivefold a step, so the t = 0 level sets the step that
    # fails
    if overflows and _kernels.USING_NUMBA:
        pytest.skip("compiled powers overflow to inf instead of raising")
    nsteps, target = 300, 64 + offset
    args = (m, nsteps, 1.0, n, 2.5, 4.0, 1.5)
    lo, hi = 0.0, 300.0  # log10 of the t = 0 level: a higher level fails sooner
    while True:
        assert hi - lo > 1e-9, "no t = 0 level fails at the target step"
        mid = 0.5 * (lo + hi)
        y, f, hist_half = _kernel_inputs(m, nsteps, 10.0 ** mid)
        bad = rk4_delay_stepwise(y, f, hist_half, *args) - m
        if bad == target:
            break
        lo, hi = (mid, hi) if bad > target else (lo, mid)
    y, f, hist_half = _kernel_inputs(m, nsteps, 10.0 ** mid)
    assert _stepwise_overflows(y, f, hist_half, *args) == overflows
    assert _assert_fails_like_stepwise(y, f, hist_half, *args) == m + target


@pytest.mark.parametrize("m, step", [(64, 0), (64, 32), (64, 63), (1, 0)])
def test_history_hole_at_block_edges(m, step, p3):
    # a NaN half-node sample spoils the ring slot that step `step` of the
    # first delay interval reads: its first, middle or last step at m = 64
    y, f, hist_half = _kernel_inputs(m, 200, 1.0)
    hist_half[step] = np.nan
    args = (m, 200, p3.r / m, p3.n, p3.beta0, p3.delta, p3.k)
    assert _assert_fails_like_stepwise(y, f, hist_half, *args) == m + step


def test_memory_stays_at_the_node_arrays(hopf_example):
    # each delay interval writes its nodes in place through two views: one
    # integrate_y call on the README x-sim run (40,000 steps) peaks within
    # 10 % of its two node arrays
    n, beta0, k, delta = hopf_example
    params = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
    hist = ConstantHistory(1.01 * positive_equilibrium(params).y_star)
    integrate_y(params, hist, 225.0)
    tracemalloc.start()
    try:
        traj = integrate_y(params, hist, 225.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.values.size == 40065
    assert peak <= 1.1 * (traj.values.nbytes + traj.derivs.nbytes)


def test_derivative_overflow_ends_the_run_before_the_value_does():
    # with n = 1 no power raises, and at |y| near 2.3e307 the loss term
    # delta*y overflows one node before y does: the run ends at the last node
    # whose value and derivative are both finite. The step-by-step loop checks
    # y alone and so reports the next node; up to the kernel's, they agree
    args = (1, 200, 1.0, 1.0, 2.5, 8.0, 1.5)
    y, f, hist_half = _kernel_inputs(1, 200, 6.486793534788508e+24)
    y[0] = y[1]  # a constant history at that level, as `simulate --level` gives
    y_ref, f_ref = y.copy(), f.copy()
    bad = _kernels.rk4_delay(y, f, hist_half, *args)
    assert rk4_delay_stepwise(y_ref, f_ref, hist_half, *args) == bad + 1
    assert np.isfinite(y[: bad + 2]).all() and not np.isfinite(f[bad + 1])
    assert np.isfinite(f[: bad + 1]).all()
    assert np.array_equal(y[: bad + 1], y_ref[: bad + 1])
    assert np.array_equal(f[: bad + 1], f_ref[: bad + 1])


def test_exp_scan_first_non_finite_step_matches_reference():
    rng = np.random.default_rng(7)
    incr = rng.normal(size=400)
    incr[137] = np.nan
    x_new, x_ref = np.empty(401), np.empty(401)
    x_new[0] = x_ref[0] = 0.3
    assert _kernels.exp_scan(x_new, incr, 0.97) == exp_scan_reference(x_ref, incr, 0.97) == 137
    np.testing.assert_array_equal(x_new[:138], x_ref[:138])


@pytest.mark.parametrize("decay", [1e-9, 0.37, 0.9993, 1.0 - 1e-12])
@pytest.mark.parametrize("size", [1, 2, 1280, 40000])
def test_exp_scan_equals_lfilter_bit_for_bit(size, decay):
    # the Python loop is the same first-order recursion as scipy's compiled
    # filter, in the same floating-point order
    rng = np.random.default_rng(size)
    incr = rng.normal(scale=1e-3, size=size)
    x_new, x_ref = np.empty(size + 1), np.empty(size + 1)
    x_new[0] = x_ref[0] = rng.uniform(0.5, 5.0)
    assert _kernels.exp_scan(x_new, incr, decay) == -1
    exp_scan_lfilter(x_ref, incr, decay)
    assert np.array_equal(x_new, x_ref)


def test_exp_scan_on_strided_views():
    # a strided incr (and x) is read in place, element for element
    rng = np.random.default_rng(3)
    incr = rng.normal(scale=1e-3, size=3 * 500)[::3]
    x_new = np.empty(2 * 501)[::2]
    x_ref = np.empty(501)
    x_new[0] = x_ref[0] = 1.7
    assert _kernels.exp_scan(x_new, incr, 0.93) == exp_scan_reference(x_ref, incr.copy(), 0.93)
    assert np.array_equal(x_new, x_ref)


def test_overflow_reports_the_failing_step():
    # an absurdly coarse step (dt = r) makes the scheme grow without bound;
    # the kernel stops at the first step whose result, or one of its Hill
    # powers, is not a finite double, with all earlier nodes intact
    params = ModelParams(n=2.0, beta0=2.5, delta=0.3, k=1.5, r=20.0)
    args = (1, 200, 20.0, params.n, params.beta0, params.delta, params.k)
    y, f = np.full(202, 1.0), np.zeros(202)
    y_ref, f_ref = y.copy(), f.copy()
    bad = _kernels.rk4_delay(y, f, np.ones(1), *args)
    with np.errstate(over="ignore", invalid="ignore"):
        bad_ref = rk4_delay_reference(y_ref, f_ref, np.ones(1), *args)
    assert 0 < bad <= bad_ref
    assert np.all(np.isfinite(y[: bad + 1]))
    np.testing.assert_allclose(y[: bad + 1], y_ref[: bad + 1], rtol=1e-11, atol=0.0)
