import math

import numpy as np
import pytest

from cmldde import (
    ConditioningError,
    DomainError,
    EquilibriumKind,
    ModelParams,
    PreconditionError,
    b1_coefficient,
    b1_value,
    equilibria,
    feedback,
    gamma_of,
    positive_equilibrium,
    rhs_x,
    rhs_y,
)
from conftest import sample_params


class TestGammaOf:
    def test_k_one(self):
        assert gamma_of(1.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_reference_point(self):
        # direct evaluation of ln(2/1.01)/7.55
        assert gamma_of(1.01, 7.55) == pytest.approx(0.09048964896778507, rel=1e-14)

    def test_boundary_k2_exact_zero(self):
        assert gamma_of(2.0, 3.0) == 0.0

    @pytest.mark.parametrize("k,r", [(0.0, 1.0), (-0.5, 1.0), (2.5, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, k, r):
        with pytest.raises(DomainError):
            gamma_of(k, r)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = rng.uniform(0.05, 2.0)
            r = rng.uniform(0.01, 50.0)
            assert 2.0 * math.exp(-gamma_of(k, r) * r) == pytest.approx(k, rel=1e-14)


class TestFeedback:
    def test_zero(self):
        assert feedback(0.0, 2.5, 2.0) == 0.0

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 7.3, 12.0])
    def test_half_max_at_one(self, n):
        assert feedback(1.0, 2.5, n) == pytest.approx(1.25, rel=1e-14)

    def test_reference_value(self):
        # evaluated at the bistable-zone resting level
        got = feedback(3.95811, 2.5, 2.0)
        assert got == pytest.approx(2.5 * 3.95811 / (1.0 + 3.95811**2), rel=1e-12)
        assert got == pytest.approx(0.593716, rel=1e-5)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            feedback(-0.1, 2.5, 2.0)

    def test_vectorized(self):
        y = np.array([0.0, 1.0, 2.0])
        out = feedback(y, 1.0, 2.0)
        assert out == pytest.approx([0.0, 0.5, 0.4])


class TestRhs:
    def test_equilibrium_is_fixed_point(self, p3):
        eq = positive_equilibrium(p3)
        assert abs(rhs_y(eq.y_star, eq.y_star, p3)) < 1e-12
        assert abs(rhs_x(eq.x_star, eq.y_star, eq.y_star, p3)) < 1e-12

    def test_origin(self, p3):
        assert rhs_y(0.0, 0.0, p3) == 0.0
        assert rhs_x(0.0, 0.0, 0.0, p3) == 0.0

    def test_rhs_y_pure_delayed_drive(self, p3):
        # y_now = 0 kills the loss term; remaining drive is k beta0 / 2 at y_delayed = 1
        assert rhs_y(0.0, 1.0, p3) == pytest.approx(1.01 * 2.5 / 2.0, rel=1e-14)
        assert rhs_y(0.0, 1.0, p3) == pytest.approx(1.2625, rel=1e-12)

    def test_rhs_x_at_zero_x(self, p3):
        eq = positive_equilibrium(p3)
        expected = (1.0 - p3.k / 2.0) * feedback(eq.y_star, p3.beta0, p3.n)
        got = rhs_x(0.0, eq.y_star, eq.y_star, p3)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(p3.gamma * eq.x_star, rel=1e-12)


class TestEquilibria:
    def test_reference_point_values(self, p3):
        eqs = equilibria(p3)
        assert eqs[0].kind is EquilibriumKind.TRIVIAL
        assert eqs[0].x_star == 0.0 and eqs[0].y_star == 0.0
        pos = eqs[1]
        assert pos.y_star == pytest.approx(3.95811, rel=1e-5)
        assert pos.x_star == pytest.approx(3.24777, rel=1e-3)

    def test_collapse_at_unit_ratio(self):
        # beta0 (k-1)/delta == 1 exactly: positive branch collapses onto trivial
        p = ModelParams(n=2, beta0=2.0, delta=1.0, k=1.5, r=1.0)
        assert p.renewal_ratio == 1.0
        assert len(equilibria(p)) == 1

    def test_below_threshold_only_trivial(self):
        p = ModelParams(n=2, beta0=1.0, delta=1.0, k=1.5, r=1.0)
        assert p.renewal_ratio == 0.5
        assert len(equilibria(p)) == 1
        with pytest.raises(PreconditionError):
            positive_equilibrium(p)

    def test_overflowing_level_rejected(self):
        # renewal ratio 5e599 overflows: y2 = inf, x2 = nan
        p = ModelParams(n=2, beta0=1e300, delta=1e-300, k=1.5, r=1e300)
        with pytest.raises(ConditioningError):
            equilibria(p)

    def test_degenerate_k2_guarded(self):
        p = ModelParams(n=2, beta0=2.0, delta=0.5, k=2.0, r=1.0)
        assert p.gamma == 0.0
        with pytest.raises(PreconditionError):
            equilibria(p)


class TestB1:
    def test_vanishing_bracket(self):
        # beta0 (k-1)/delta = n/(n-1) makes the slope zero (n = 3 here)
        p = ModelParams(n=3, beta0=3.0, delta=1.0, k=1.5, r=1.0)
        assert b1_coefficient(p).b1 == 0.0

    def test_reference_point(self, p3):
        lin = b1_coefficient(p3)
        assert lin.b1 == pytest.approx(0.15 * (0.12 - 1.0), rel=1e-12)
        assert lin.b1 == pytest.approx(-0.132, rel=1e-12)
        assert lin.sum_db1 == pytest.approx(p3.delta + lin.b1, rel=1e-15)
        assert lin.k_b1 == pytest.approx(p3.k * lin.b1, rel=1e-15)

    def test_threshold_example_point(self, hopf_example):
        n, beta0, k, delta = hopf_example
        p = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=1.0)
        expected = (delta / (k - 1.0)) * (n * delta / (beta0 * (k - 1.0)) - n + 1.0)
        assert b1_coefficient(p).b1 == pytest.approx(expected, rel=1e-14)
        assert b1_coefficient(p).b1 == pytest.approx(-2.5241981, rel=1e-6)

    def test_overflow_rejected(self):
        # (delta/(k-1)) (n delta/(beta0 (k-1)) - n + 1) = 2e300 * (-8e9) overflows
        with pytest.raises(ConditioningError):
            b1_value(1e10, 1e301, 1.5, 1e300)

    def test_requires_positive_equilibrium(self):
        p = ModelParams(n=2, beta0=1.0, delta=1.0, k=1.5, r=1.0)
        with pytest.raises(PreconditionError):
            b1_coefficient(p)


class TestProperties:
    def test_b1_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = sample_params(rng)
            y2 = positive_equilibrium(p).y_star
            h = 1e-6 * (1.0 + y2)
            fd = (feedback(y2 + h, p.beta0, p.n) - feedback(y2 - h, p.beta0, p.n)) / (2.0 * h)
            assert b1_coefficient(p).b1 == pytest.approx(fd, rel=1e-8)

    def test_equilibrium_zeros_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = sample_params(rng)
            eq = positive_equilibrium(p)
            assert abs(rhs_y(eq.y_star, eq.y_star, p)) < 1e-12
            assert abs(rhs_x(eq.x_star, eq.y_star, eq.y_star, p)) < 1e-12

    def test_defining_relation(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = sample_params(rng)
            y2 = positive_equilibrium(p).y_star
            lhs = (p.beta0 / (1.0 + y2**p.n) + p.delta) * y2
            rhs = p.k * feedback(y2, p.beta0, p.n)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_params_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = sample_params(rng)
            assert p.gamma > 0.0
            assert 2.0 * math.exp(-p.gamma * p.r) == pytest.approx(p.k, rel=1e-14)
        assert ModelParams(n=1, beta0=1, delta=1, k=2.0, r=2.0).gamma == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0.0, beta0=1, delta=1, k=1.5, r=1),
            dict(n=2, beta0=0.0, delta=1, k=1.5, r=1),
            dict(n=2, beta0=1, delta=-1.0, k=1.5, r=1),
            dict(n=2, beta0=1, delta=1, k=2.1, r=1),
            dict(n=2, beta0=1, delta=1, k=1.5, r=0.0),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(DomainError):
            ModelParams(**kwargs)
