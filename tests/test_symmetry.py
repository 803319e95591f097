"""Time-rescaling covariance, bit for bit.

Mapping t -> t/a and (beta0, delta, r) -> (a beta0, a delta, r/a), with n and k
fixed, maps solutions to solutions: y_a(t) = y(a t). For a = 2^j every product
and quotient with a is exact in binary floating point, so each layer below must
be covariant to the last bit: rates scale by a, delays and times by 1/a, and
states and verdicts are invariant. Random runs stay within 30 r, and initial
data stay clear of the subnormal range, where scaling by a rounds; the probe
drivers run at the worked example with a = 2^-1 and 2^1, and the span slacks
of dense output and the orbit classifier at a = 2^-40 and 2^40.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmldde import (
    ConstantHistory,
    DomainError,
    ModelParams,
    PreconditionError,
    b1_coefficient,
    classify_orbit,
    classify_positive,
    criticality_probe,
    hopf_delay,
    hopf_omega,
    integrate_x,
    integrate_y,
    leading_roots,
    periodic_x0,
    positive_equilibrium,
    surface_grid,
    zone_classify,
)
from conftest import sample_params

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SCALES = st.integers(min_value=-3, max_value=3).map(lambda j: 2.0**j)
#: 0 or far above the subnormal range, as are the derivatives they give
LEVELS = st.one_of(st.just(0.0), st.floats(1e-100, 3.0))


def _pair(seed, a):
    p = sample_params(np.random.default_rng(seed))
    return p, ModelParams(n=p.n, beta0=a * p.beta0, delta=a * p.delta, k=p.k, r=p.r / a)


def _outcome(func, *args):
    try:
        return func(*args)
    except Exception as exc:  # compared by class: both scales must raise alike
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, a=SCALES)
def test_linearization_rates_scale(seed, a):
    p, q = _pair(seed, a)
    lin_p, lin_q = b1_coefficient(p), b1_coefficient(q)
    assert (lin_q.b1, lin_q.sum_db1, lin_q.k_b1) == (a * lin_p.b1, a * lin_p.sum_db1,
                                                     a * lin_p.k_b1)
    assert q.gamma == a * p.gamma


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, a=SCALES)
def test_hopf_threshold_scales(seed, a):
    p, q = _pair(seed, a)
    for func, power in ((hopf_delay, -1), (hopf_omega, 1)):
        at_p = _outcome(func, p.n, p.beta0, p.k, p.delta)
        at_q = _outcome(func, q.n, q.beta0, q.k, q.delta)
        if isinstance(at_p, type):
            assert at_q is at_p
        else:
            assert at_q == at_p * a**power


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, a=SCALES, k_span=st.floats(0.01, 0.9), d_span=st.floats(1.1, 20.0),
       resolution=st.tuples(st.integers(2, 12), st.integers(2, 12)))
def test_surface_grid_scales(seed, a, k_span, d_span, resolution):
    p, q = _pair(seed, a)
    k_range = (p.k - k_span / 2, min(2.0, p.k + k_span / 2))
    at_p = surface_grid(p.n, p.beta0, k_range, (p.delta / d_span, p.delta * d_span), resolution)
    at_q = surface_grid(q.n, q.beta0, k_range, (q.delta / d_span, q.delta * d_span), resolution)
    assert np.array_equal(at_q.delta, a * at_p.delta)
    assert np.array_equal(at_q.r_hopf, at_p.r_hopf / a, equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, a=SCALES)
def test_classifier_invariant(seed, a):
    p, q = _pair(seed, a)
    at_p, at_q = _outcome(classify_positive, p), _outcome(classify_positive, q)
    if isinstance(at_p, type):
        assert at_q is at_p
    else:
        assert (at_q.state, at_q.source) == (at_p.state, at_p.source)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, a=SCALES)
def test_leading_roots_scale(seed, a):
    p, q = _pair(seed, a)
    at_p, at_q = _outcome(leading_roots, p, 3), _outcome(leading_roots, q, 3)
    if isinstance(at_p, type):
        assert at_q is at_p
        return
    assert len(at_q) == len(at_p)
    for root_p, root_q in zip(at_p, at_q):
        assert (root_q.re, root_q.im) == (a * root_p.re, a * root_p.im)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, a=SCALES)
def test_orbit_class_covariant(seed, a):
    # 30 delays from 1.3 y*: the same kind and cycle amplitude, the period / a
    p, q = _pair(seed, a)
    y_star = positive_equilibrium(p).y_star
    history, horizon = ConstantHistory(1.3 * y_star), 30.0 * p.r
    at_p = classify_orbit(integrate_y(p, history, horizon), y_star, horizon)
    at_q = classify_orbit(integrate_y(q, history, horizon / a), y_star, horizon / a)
    assert at_q.kind is at_p.kind
    if at_p.cycle is None:
        assert at_q.cycle is None
    else:
        period = None if at_p.cycle.period is None else at_p.cycle.period / a
        assert at_q.cycle == dataclasses.replace(at_p.cycle, period=period)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, a=SCALES, level=LEVELS, delays=st.floats(0.5, 10.0), x0=LEVELS)
def test_runs_covariant(seed, a, level, delays, x0):
    # y values, x values and periodic_x0 are invariant; derivatives scale by a
    p, q = _pair(seed, a)
    y_p = integrate_y(p, ConstantHistory(level), delays * p.r)
    y_q = integrate_y(q, ConstantHistory(level), delays * p.r / a)
    assert np.array_equal(y_q.values, y_p.values)
    assert np.array_equal(y_q.derivs, a * y_p.derivs)
    x_p, x_q = integrate_x(p, y_p, x0), integrate_x(q, y_q, x0)
    assert np.array_equal(x_q.values, x_p.values)
    assert np.array_equal(x_q.derivs, a * x_p.derivs)
    assert periodic_x0(q, y_q, y_q.t_end) == periodic_x0(p, y_p, y_p.t_end)


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_criticality_covariant(hopf_example, a):
    # offsets and horizon scale by 1/a with the delay: the probes are the same
    # runs, so verdict, amplitudes and kinds agree and only the slope scales
    n, beta0, k, delta = hopf_example
    offsets, horizon = [-0.01, 0.004, 0.008, 0.012], 400.0
    p = criticality_probe(n, beta0, k, delta, offsets, horizon)
    q = criticality_probe(n, a * beta0, k, a * delta, [o / a for o in offsets], horizon / a)
    assert p.verdict.value == "supercritical" and q.verdict is p.verdict
    assert q.points == tuple(dataclasses.replace(pt, offset=pt.offset / a) for pt in p.points)
    assert q.r_hopf * a == p.r_hopf
    assert q.slope == a * p.slope
    assert (q.intercept, q.r_squared) == (p.intercept, p.r_squared)


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_zone_covariant(hopf_example, a):
    # a horizon of 60 leaves growing and undecided probes whose cycle periods
    # scale by 1/a and whose amplitudes and kinds agree
    n, beta0, k, delta = hopf_example
    p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
    q = ModelParams(n=n, beta0=a * beta0, delta=a * delta, k=k, r=p.r / a)
    zp = zone_classify(p, [0.005, 0.1, 0.2], 60.0)
    zq = zone_classify(q, [0.005, 0.1, 0.2], 60.0 / a)
    assert (zq.zone, zq.equilibrium_state) == (zp.zone, zp.equilibrium_state)
    assert all(pr.orbit.cycle.period is not None for pr in zp.probes)
    rescaled = []
    for pr in zp.probes:
        cycle = dataclasses.replace(pr.orbit.cycle, period=pr.orbit.cycle.period / a)
        rescaled.append(dataclasses.replace(pr, orbit=dataclasses.replace(pr.orbit, cycle=cycle)))
    assert zq.probes == tuple(rescaled)


@pytest.mark.parametrize("j", [-40, 0, 40])
def test_span_slack_scales(hopf_example, j):
    # the evaluation and horizon slacks are relative: 5e-10 t_end past either
    # end of [-r, t_end] is covered at every scale, 2e-9 t_end is not, even at
    # t_end = 1.6e-12
    n, beta0, k, delta = hopf_example
    a = 2.0**j
    p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
    q = ModelParams(n=n, beta0=a * beta0, delta=a * delta, k=k, r=p.r / a)
    y_star = positive_equilibrium(p).y_star
    y_p = integrate_y(p, ConstantHistory(1.01 * y_star), 5.0 * p.r)
    y_q = integrate_y(q, ConstantHistory(1.01 * y_star), 5.0 * p.r / a)
    t0, t_end = y_p.t0, y_p.t_end
    inside = np.array([t0 - 5e-10 * t_end, 0.0, t_end, t_end * (1.0 + 5e-10)])
    assert np.array_equal(y_q.value_at(inside / a), y_p.value_at(inside))
    for t in (t0 - 2e-9 * t_end, t_end * (1.0 + 2e-9), 500.0 * t_end):
        with pytest.raises(DomainError, match="outside the covered span"):
            y_q.value_at(t / a)
    horizon = t_end * (1.0 + 5e-10)
    kind = classify_orbit(y_p, y_star, horizon).kind
    assert classify_orbit(y_q, y_star, horizon / a).kind is kind
    for horizon in (t_end * (1.0 + 2e-9), 500.0 * t_end):
        with pytest.raises(PreconditionError, match="does not cover"):
            classify_orbit(y_q, y_star, horizon / a)
