import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import lambertw, wrightomega

from cmldde import (
    ConditioningError,
    ModelParams,
    PreconditionError,
    RootNotFoundError,
    StabilityState,
    VerdictSource,
    b1_coefficient,
    characteristic_residual,
    classify_positive,
    classify_trivial,
    hopf_delay,
    hopf_point,
    leading_roots,
)
from cmldde.linear_analysis import MAX_ROOTS, _omega0, _wright_omega
from conftest import sample_params
from _oracles import (
    leading_roots_reference,
    leading_roots_wrightomega_reference,
    omega0_reference,
)

EPS = 2.0**-52


def params_with_ratio(ratio, n=2.0, beta0=2.0, k=1.5, r=1.0):
    return ModelParams(n=n, beta0=beta0, delta=beta0 * (k - 1.0) / ratio, k=k, r=r)


class TestClassifyTrivial:
    def test_stable_below_one(self):
        v = classify_trivial(params_with_ratio(0.5))
        assert v.state is StabilityState.ASYMPTOTICALLY_STABLE
        assert v.source is VerdictSource.P2_1

    def test_marginal_at_one(self):
        v = classify_trivial(params_with_ratio(1.0))
        assert v.state is StabilityState.MARGINALLY_STABLE
        assert v.source is VerdictSource.P2_2

    def test_unstable_above_one(self):
        v = classify_trivial(params_with_ratio(2.0))
        assert v.state is StabilityState.UNSTABLE
        assert v.source is VerdictSource.P2_3


class TestOmega0:
    def test_quarter_period_when_sum_vanishes(self):
        # delta + b1 = 0 exactly at these dyadic parameters
        p = ModelParams(n=2, beta0=1.0, delta=0.125, k=1.5, r=3.0)
        assert b1_coefficient(p).sum_db1 == 0.0
        w = _omega0(b1_coefficient(p).sum_db1, p.r)
        assert w == pytest.approx(math.pi / (2.0 * 3.0), rel=1e-12)

    def test_reference_point(self, p3):
        w0 = _omega0(b1_coefficient(p3).sum_db1, p3.r)
        oracle = omega0_reference(b1_coefficient(p3).sum_db1, p3.r)
        assert w0 == pytest.approx(oracle, abs=1e-12)
        assert abs(w0 - 0.0277) < 1e-4
        lin = b1_coefficient(p3)
        assert abs(w0 * math.cos(w0 * p3.r) + lin.sum_db1 * math.sin(w0 * p3.r)) < 1e-12

    def test_large_positive_sum_pushes_root_to_pi(self):
        # w cot(w r) = -s with s -> +inf drives the root toward pi/r from below
        w = _omega0(1000.0, 1.0)
        assert 0.99 * math.pi < w < math.pi

    def test_no_root_when_bracket_misses(self):
        # s < 0 with r > 1/|s| leaves no root in (0, pi/r)
        with pytest.raises(RootNotFoundError):
            _omega0(-5.0, 1.0)

    def test_long_delay(self):
        # u = omega r solves u cot u = -a, a = (delta + b1) r, so for large a
        # u = pi a/(1 + a) up to O(a^-3); an absolute bracket offset of 1e-9
        # would exceed the whole interval (0, pi/r) = (0, 3.1e-9)
        s, r = 0.3, 1e9
        a = s * r
        w = _omega0(s, r)
        assert 0.0 < w < math.pi / r
        assert w == pytest.approx(math.pi * a / ((1.0 + a) * r), rel=1e-12)

    def test_long_delay_classifies(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 50:
            p = sample_params(rng)
            if b1_coefficient(p).sum_db1 <= 0.0:
                continue
            p = ModelParams(n=p.n, beta0=p.beta0, delta=p.delta, k=p.k, r=1e9)
            verdict = classify_positive(p)
            if "omega0" in verdict.detail:
                assert 0.0 < verdict.detail["omega0"] * p.r < math.pi
            checked += 1

    def test_subnormal_delay(self):
        # u = omega r stays near pi/2 for tiny (delta + b1) r; omega = u/r is
        # finite at r = 1e-308 and past the double range at r = 5e-324
        w = _omega0(0.3, 1e-308)
        assert w * 1e-308 == pytest.approx(math.pi / 2.0, rel=1e-12)
        with pytest.raises(ConditioningError):
            _omega0(0.3, 5e-324)

    def test_residual_and_interval_randomized(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(200):
            s = rng.uniform(-2.0, 3.0)
            r = rng.uniform(0.1, 10.0)
            if s < 0.0 and r >= 1.0 / abs(s):
                continue
            w = _omega0(s, r)
            assert 0.0 < w < math.pi / r
            assert abs(w * math.cos(w * r) + s * math.sin(w * r)) < 1e-12
            checked += 1
        assert checked > 100


class TestClassifyPositive:
    def test_positive_slope_always_stable(self):
        # n = 1 forces b1 > 0
        p = ModelParams(n=1, beta0=2.0, delta=0.1, k=1.5, r=4.0)
        assert b1_coefficient(p).b1 > 0.0
        v = classify_positive(p)
        assert v.state is StabilityState.ASYMPTOTICALLY_STABLE
        assert v.source is VerdictSource.P2_6

    def test_reference_point_window(self, p3):
        v = classify_positive(p3)
        assert v.state is StabilityState.ASYMPTOTICALLY_STABLE
        assert v.source is VerdictSource.P2_4
        assert "omega0" in v.detail

    def test_threshold_crossing(self, hopf_example):
        n, beta0, k, delta = hopf_example
        before = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.3558)
        after = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=0.36)
        vb = classify_positive(before)
        assert vb.state is StabilityState.ASYMPTOTICALLY_STABLE
        va = classify_positive(after)
        assert va.state is StabilityState.UNSTABLE
        assert va.source is VerdictSource.HOPF_EXCEEDED
        assert va.detail["r_hopf"] == pytest.approx(0.3559114, rel=1e-5)

    def test_delay_independent_branch(self):
        # b1 < 0 but delta + b1 dominates |k b1|: stable for any delay
        p = ModelParams(n=2, beta0=1.0, delta=0.099, k=1.2, r=50.0)
        lin = b1_coefficient(p)
        assert lin.b1 < 0.0 and lin.sum_db1 > abs(lin.k_b1)
        v = classify_positive(p)
        assert v.state is StabilityState.ASYMPTOTICALLY_STABLE
        assert v.source is VerdictSource.P2_5

    def test_short_delay_branch_and_its_loss(self):
        base = dict(n=2, beta0=1.0, delta=0.085, k=1.2)
        lin = b1_coefficient(ModelParams(r=1.0, **base))
        assert lin.b1 < 0.0 and 0.0 < lin.sum_db1 < abs(lin.k_b1)
        r_h = hopf_delay(2, 1.0, 1.2, 0.085)
        v_in = classify_positive(ModelParams(r=0.5 * r_h, **base))
        assert v_in.state is StabilityState.ASYMPTOTICALLY_STABLE
        assert v_in.source is VerdictSource.P2_5
        v_out = classify_positive(ModelParams(r=1.05 * r_h, **base))
        assert v_out.state is StabilityState.UNSTABLE
        assert v_out.source is VerdictSource.HOPF_EXCEEDED

    def test_vanishing_crossing_frequency(self):
        # (k b1)^2 and (delta + b1)^2 underflow to 0, so r_H = theta/omega_H is undefined
        p = ModelParams(n=2, beta0=1e300, delta=1e-300, k=1.5, r=1e300)
        with pytest.raises(ConditioningError):
            classify_positive(p)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = sample_params(rng)
            v = classify_positive(p)
            for s in (0.5, 2.0):
                q = ModelParams(n=p.n, beta0=p.beta0 * s, delta=p.delta * s, k=p.k, r=p.r / s)
                assert classify_positive(q).state is v.state


def assert_omega_matches_scipy(zs, rel=1e-13):
    for z, expected in zip(zs, wrightomega(zs)):
        w = _wright_omega(complex(z))
        assert abs(w - expected) <= rel * abs(expected), (z, w, expected)


class TestWrightOmega:
    def test_theta_lines_match_scipy(self):
        # the lines leading_roots evaluates: Im z = j pi, Re z = log|z_Lambert|
        rng = np.random.default_rng(917)
        for j in range(-2, 61):
            x = np.concatenate([rng.uniform(-800.0, 800.0, 800), rng.uniform(-3.0, 3.0, 200)])
            assert_omega_matches_scipy(x + 1j * math.pi * j)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_branch_point_disc_matches_scipy(self, sign):
        rng = np.random.default_rng(36)
        radius = 0.1 * np.sqrt(rng.uniform(0.0, 1.0, 5000))
        zs = complex(-1.0, sign * math.pi) + radius * np.exp(1j * rng.uniform(-math.pi, math.pi, 5000))
        assert_omega_matches_scipy(zs)

    def test_cut_gives_the_real_pair(self):
        # on Im z = +/-pi, Re z <= -1 the two sides hold W0(-e^x) and W-1(-e^x);
        # which side holds which changes at x = -2 in scipy, so compare the sets
        rng = np.random.default_rng(4320)
        for x in np.concatenate([rng.uniform(-800.0, -1.0, 500), rng.uniform(-2.5, -1.0, 500),
                                 [-1.0, -2.0, -745.5]]):
            pair = sorted((_wright_omega(complex(x, s * math.pi)) for s in (1.0, -1.0)),
                          key=lambda w: w.real)
            expected = sorted((complex(wrightomega(complex(x, s * math.pi))) for s in (1.0, -1.0)),
                              key=lambda w: w.real)
            for w, e in zip(pair, expected):
                assert abs(w.imag) <= 1e-14 * abs(w), (x, w)
                assert abs(w - e) <= 1e-13 * abs(e), (x, w, e)
            lo, hi = pair
            assert lo.real <= -1.0 <= hi.real <= 0.0
            if x >= -700.0:  # W0(-e^x) is a normal double
                for w in pair:
                    # w e^w = -e^x, written as log(-w) + w = x
                    assert abs(math.log(-w.real) + w.real - x) <= 8 * EPS * (1.0 + abs(x))

    def test_underflow_returns_the_limit(self):
        # between the cuts e^z underflows past Re z = -745: omega -> 0, as in scipy
        for x in (-745.2, -800.0, -1e5, -1e300):
            for y in (0.0, 1.0, -3.0, math.pi):
                assert _wright_omega(complex(x, y)) == 0.0 == wrightomega(complex(x, y))

    def test_large_arguments_match_scipy(self):
        zs = np.array([1e19, 1e21 + 3j, -1e25 + 4j, 3 - 1e200j, -1e200 - math.pi * 1j,
                       1e300 + 1e300j, 2e102 + 1j])
        assert_omega_matches_scipy(zs)

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(-700.0, 1e4), st.floats(-1e5, 1e5))
    def test_residual(self, x, y):
        # omega + Log omega = z off the cut lines, where omega is negative real
        # and the sign of its zero imaginary part picks the side of Log;
        # Re z >= -700 keeps omega a normal double
        assume(not (x <= -1.0 and abs(y) == math.pi))
        z = complex(x, y)
        w = _wright_omega(z)
        assert abs(w + cmath.log(w) - z) <= 8 * EPS * (1.0 + abs(z)), (z, w)


class TestLeadingRoots:
    def test_degenerate_slope_collapses(self):
        p = ModelParams(n=3, beta0=3.0, delta=1.0, k=1.5, r=1.0)
        assert b1_coefficient(p).b1 == 0.0
        roots = leading_roots(p, 3)
        assert len(roots) == 1
        assert roots[0].re == pytest.approx(-1.0, rel=1e-14)
        assert roots[0].im == 0.0

    def test_pure_imaginary_pair_at_threshold(self, hopf_example):
        hp = hopf_point(*hopf_example)
        lead = leading_roots(hp.params, 1)[0]
        assert abs(lead.re) < 1e-8
        assert lead.im == pytest.approx(hp.omega_h, abs=1e-8)

    def test_reference_point_pair(self, p3):
        lead = leading_roots(p3, 1)[0]
        assert lead.re < 0.0
        assert lead.im > 0.0
        # consistent with the stability verdict there
        assert classify_positive(p3).state is StabilityState.ASYMPTOTICALLY_STABLE

    def test_residuals_order_and_dedup(self, p3):
        roots = leading_roots(p3, 5)
        assert len(roots) == 5
        res = [characteristic_residual(p3, z.value) for z in roots]
        assert max(res) < 1e-10
        reals = [z.re for z in roots]
        assert reals == sorted(reals, reverse=True)
        assert all(z.im >= 0.0 for z in roots)
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                assert abs(a.value - b.value) > 1e-8

    def test_matches_wrightomega_reference(self):
        rng = np.random.default_rng(1996)
        for _ in range(2000):
            p = sample_params(rng)
            for count in (1, 2, 5, 50):
                new = leading_roots(p, count)
                old = leading_roots_wrightomega_reference(p, count)
                assert len(new) == len(old), (p, count)
                for a, b in zip(new, old):
                    assert abs(a.value - b.value) <= 1e-13 * abs(b.value), (p, count, a, b)

    def test_top_roots_match_sweep(self):
        # the sweep finds nothing left of its window at re = -5/r, so it may return one root
        rng = np.random.default_rng(8)
        compared = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(500):
                p = sample_params(rng)
                new = leading_roots(p, 2)
                old = leading_roots_reference(p, 2)
                assert len(new) == 2 and len(old) >= 1
                for a, b in zip(new, old):
                    assert abs(a.value - b.value) <= 1e-10 * abs(b.value), (p, a, b)
                    compared += 1
        assert compared > 900

    def test_every_sweep_root_is_listed(self):
        # the sweep may skip roots, so look for its count in a longer list
        rng = np.random.default_rng(1403)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(200):
                p = sample_params(rng)
                new = [z.value for z in leading_roots(p, 10)]
                for z in leading_roots_reference(p, 5):
                    assert min(abs(z.value - v) for v in new) <= 1e-10 * abs(z.value), (p, z)

    def test_root_skipped_by_sweep_is_found(self):
        p = ModelParams(n=1.0790094525784482, beta0=1.8721969765571127,
                        delta=0.11283317746481168, k=1.8438711773088858, r=8.567231256341959)
        skipped = complex(-0.9989924334225, 2.3412963525054)
        assert min(abs(z.value - skipped) for z in leading_roots_reference(p, 5)) > 0.1
        roots = leading_roots(p, 5)
        found = min(roots, key=lambda z: abs(z.value - skipped))
        assert abs(found.value - skipped) < 1e-12
        assert relative_residual(p, found.value) < 1e-12
        assert roots.index(found) == 4

    def test_overflowing_z_matches_sweep(self):
        # (delta + b1) r = 1083: z = k b1 r e^((delta + b1) r) overflows a double
        p = ModelParams(n=1.5, beta0=2.0, delta=0.3, k=1.9, r=5000.0)
        lin = b1_coefficient(p)
        assert lin.sum_db1 * p.r > 1000.0
        new = leading_roots(p, 3)
        old = leading_roots_reference(p, 3)
        for a, b in zip(new, old):
            assert abs(a.value - b.value) <= 1e-10 * abs(b.value)
            assert relative_residual(p, a.value) < 1e-12
        assert new[0].re == pytest.approx(-6.2674e-5, rel=1e-4)
        assert new[0].im == pytest.approx(6.2774e-4, rel=1e-4)

    def test_underflowing_z(self):
        # (delta + b1) r = -800: z underflows to 0 and the rightmost root is -(delta + b1)
        base = dict(n=3.0, beta0=2.0, delta=0.05, k=1.5)
        s_sum = b1_coefficient(ModelParams(r=1.0, **base)).sum_db1
        p = ModelParams(r=800.0 / abs(s_sum), **base)
        lin = b1_coefficient(p)
        assert lin.k_b1 * p.r * math.exp(lin.sum_db1 * p.r) == 0.0
        roots = leading_roots(p, 4)
        assert len(roots) == 4
        assert roots[0].re == -lin.sum_db1 and roots[0].im == 0.0
        for z in roots:
            assert math.isfinite(z.re) and math.isfinite(z.im)
            assert relative_residual(p, z.value) < 1e-12

    def test_next_to_double_real_root(self):
        # z = k b1 r e^((delta + b1) r) = -1/e: the two real roots meet
        base = dict(n=2, beta0=1.0, delta=0.085, k=1.2)
        lin = b1_coefficient(ModelParams(r=1.0, **base))
        s_sum, k_b1 = lin.sum_db1, lin.k_b1
        assert s_sum > 0.0 > k_b1
        # r e^(s r) = 1/(e |k b1|) is solved by the principal Lambert W branch
        r0 = lambertw(s_sum / (math.e * abs(k_b1))).real / s_sum
        for step in range(-6, 7):
            p = ModelParams(r=r0 * (1.0 + 2e-16 * step), **base)
            roots = leading_roots(p, 3)
            assert len(roots) == 3
            for z in roots:
                assert relative_residual(p, z.value) < 1e-12, (step, z)
            assert abs(roots[0].value + s_sum + 1.0 / p.r) < 1e-7

    def test_count_bounds(self, p3):
        with pytest.raises(PreconditionError):
            leading_roots(p3, 0)
        with pytest.raises(PreconditionError):
            leading_roots(p3, MAX_ROOTS + 1)
        assert len(leading_roots(p3, 50)) == 50

    def test_count_numpy_integer(self, p3):
        assert leading_roots(p3, np.int64(3)) == leading_roots(p3, 3)

    @pytest.mark.parametrize("count", [2.0, "2", None])
    def test_count_non_integer(self, p3, count):
        with pytest.raises(PreconditionError, match="count must be an integer"):
            leading_roots(p3, count)

    def test_agreement_with_classifier(self):
        # decisive classifier verdicts must match the spectrum sign
        rng = np.random.default_rng(42)
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(200):
                p = sample_params(rng)
                v = classify_positive(p)
                roots = leading_roots(p, 1)
                if not roots:
                    continue
                top = roots[0].re
                checked += 1
                if v.state is StabilityState.ASYMPTOTICALLY_STABLE:
                    assert top < -1e-9, (p, top)
                elif v.state is StabilityState.UNSTABLE:
                    assert top > 1e-9, (p, top)
        assert checked >= 200

    def test_classifier_never_contradicts_spectrum(self):
        # dense version of the check above: the rightmost root decides stability
        rng = np.random.default_rng(2024)
        decided = 0
        for _ in range(10_000):
            p = sample_params(rng)
            v = classify_positive(p)
            top = leading_roots(p, 1)[0].re
            if v.state is StabilityState.ASYMPTOTICALLY_STABLE:
                assert top < -1e-9, (p, top)
                decided += 1
            elif v.state is StabilityState.UNSTABLE:
                assert top > 1e-9, (p, top)
                decided += 1
        assert decided > 5_000


def relative_residual(p, lam):
    """Residual of the characteristic equation over the size of its terms."""
    lin = b1_coefficient(p)
    scale = abs(lam) + abs(lin.sum_db1) + abs(lin.k_b1 * cmath.exp(-lam * p.r))
    return characteristic_residual(p, lam) / scale
