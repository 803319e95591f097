import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

from cmldde import (
    BautinRow,
    ConditioningError,
    DomainError,
    NoHopfError,
    PreconditionError,
    b1_value,
    characteristic_residual,
    hopf_delay,
    hopf_omega,
    hopf_point,
    load_bautin_table,
    surface_grid,
    verify_table,
)


class TestHopfDelay:
    def test_worked_example(self, hopf_example):
        assert hopf_delay(*hopf_example) == pytest.approx(0.3559114, rel=1e-5)

    def test_table_spot_values(self):
        assert hopf_delay(2, 0.5, 1.1, 0.0045705962) == pytest.approx(26.125314, rel=1e-4)
        assert hopf_delay(2, 0.5, 1.9, 0.0383566021) == pytest.approx(24.075039, rel=1e-4)

    def test_n1_never_crosses(self):
        for beta0 in (0.5, 1.0, 2.5):
            for k in (1.1, 1.5, 1.9):
                with pytest.raises(NoHopfError):
                    hopf_delay(1.0, beta0, k, beta0 * (k - 1.0) / 5.0)

    def test_vanishing_crossing_frequency(self):
        # b1 = -2e-300: the squares under omega_H underflow to 0
        with pytest.raises(ConditioningError):
            hopf_delay(2, 1e300, 1.5, 1e-300)

    @pytest.mark.parametrize("func", [hopf_delay, hopf_omega, hopf_point])
    def test_numpy_scalar_parameters(self, func):
        # the same overflow as with Python floats: ConditioningError, no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError):
                func(2, 1e300, np.float64(1.5), np.float64(1e-300))

    def test_dominant_sum_never_crosses(self):
        # b1 < 0 but |delta + b1| >= |k b1|
        assert b1_value(2, 1.0, 1.2, 0.099) < 0.0
        with pytest.raises(NoHopfError):
            hopf_delay(2, 1.0, 1.2, 0.099)

    def test_no_positive_equilibrium(self):
        with pytest.raises(PreconditionError):
            hopf_delay(2, 1.0, 1.1, 0.5)

    @pytest.mark.parametrize("func", [hopf_delay, hopf_omega, hopf_point])
    @pytest.mark.parametrize("args, message", [
        ((2, 0.5, 2.2, 0.01), "amplification k"),
        ((2, 2.5, 1.5, -0.01), "delta must be positive"),
        ((0.0, 0.5, 1.1, 0.01), "n must be positive"),
        ((2, math.inf, 1.1, 0.01), "beta0 must be positive"),
    ], ids=["k-above-2", "negative-delta", "zero-n", "infinite-beta0"])
    def test_outside_model_domain(self, func, args, message):
        # the domain ModelParams enforces, not the positive equilibrium, is blamed
        with pytest.raises(DomainError, match=message):
            func(*args)


class TestHopfOmega:
    def test_direct_evaluations(self, hopf_example):
        def radical(n, beta0, k, delta):
            b1 = b1_value(n, beta0, k, delta)
            return math.sqrt((k * b1) ** 2 - (delta + b1) ** 2)

        args = (2, 0.5, 1.1, 0.0045705962)
        assert hopf_omega(*args) == pytest.approx(radical(*args), rel=1e-14)
        assert hopf_omega(*args) == pytest.approx(0.0247687, rel=1e-5)
        assert hopf_omega(*hopf_example) == pytest.approx(radical(*hopf_example), rel=1e-14)
        assert hopf_omega(*hopf_example) == pytest.approx(1.6617031, rel=1e-6)

    def test_degenerate_radical(self):
        with pytest.raises(NoHopfError):
            hopf_omega(2, 1.0, 1.2, 0.099)


class TestHopfPoint:
    def test_invariants_across_table(self):
        for row in load_bautin_table():
            hp = hopf_point(row.n, row.beta0, row.k, row.delta)
            b1 = b1_value(row.n, row.beta0, row.k, row.delta)
            s, kb = row.delta + b1, row.k * b1
            assert hp.omega_h**2 + s**2 == pytest.approx(kb**2, rel=1e-10)
            assert hp.params.r * hp.omega_h == pytest.approx(math.acos(s / kb), rel=1e-10)
            # crossing pair sits on the characteristic variety
            assert characteristic_residual(hp.params, 1j * hp.omega_h) < 1e-10


class TestSurfaceGrid:
    def test_matches_table_cells(self):
        surf = surface_grid(2, 0.5, (1.1, 1.9), (0.0045705962, 0.0383566021), 9)
        assert surf.r_hopf[0, 0] == pytest.approx(26.125314, rel=1e-4)
        assert surf.r_hopf[8, 8] == pytest.approx(24.075039, rel=1e-4)

    def test_all_absent_region(self):
        surf = surface_grid(1, 0.5, (1.1, 1.2), (0.01, 0.02), 2)
        assert np.isnan(surf.r_hopf).all()

    def test_resolution_and_range_validation(self):
        with pytest.raises(PreconditionError):
            surface_grid(2, 0.5, (1.1, 1.9), (0.01, 0.02), 1)
        with pytest.raises(PreconditionError):
            surface_grid(2, 0.5, (1.9, 1.1), (0.01, 0.02), 4)

    @pytest.mark.parametrize("k_range, delta_range, message", [
        ((2.2, 2.5), (0.01, 0.02), "amplification k"),
        ((1.1, 2.5), (0.01, 0.02), "amplification k"),
        ((1.1, 1.9), (0.0, 0.02), "delta must be positive"),
        ((1.1, 1.9), (0.01, math.inf), "delta must be positive"),
    ], ids=["k-above-2", "k-max-above-2", "zero-delta-min", "infinite-delta-max"])
    def test_range_outside_model_domain(self, k_range, delta_range, message):
        with pytest.raises(DomainError, match=message):
            surface_grid(2, 0.5, k_range, delta_range, 2)

    @pytest.mark.parametrize("resolution", [np.int64(5), (np.int64(5), 5), np.array([5, 5])])
    def test_numpy_integer_resolution(self, resolution):
        expected = surface_grid(2, 0.5, (1.1, 1.9), (0.01, 0.02), 5).r_hopf
        got = surface_grid(2, 0.5, (1.1, 1.9), (0.01, 0.02), resolution).r_hopf
        assert np.array_equal(got, expected, equal_nan=True)

    @pytest.mark.parametrize("resolution", [5.0, (5, 5.0), "5", None, (5, 5, 5), (5,)])
    def test_non_integer_resolution(self, resolution):
        # the package's own error, not a TypeError or ValueError from unpacking
        with pytest.raises(PreconditionError, match="must be integers"):
            surface_grid(2, 0.5, (1.1, 1.9), (0.01, 0.02), resolution)

    def test_matches_per_cell_threshold(self):
        # random grids crossing the existence, b1 = 0 and |ratio| = 1 boundaries,
        # against hopf_delay cell by cell: the same NaN cells and values within
        # 4 ulps. Fixed cases: the README grid; b1 < 0 without a positive
        # equilibrium (n < 1, k < 1); (k b1)^2 and (delta + b1)^2 underflowing;
        # (k b1)^2 overflowing while (delta + b1)^2 does not (omega_H = inf)
        rng = np.random.default_rng(12)
        cases = [(2.0, 2.5, (1.01, 1.98), (0.001, 0.12), 60),
                 (0.5, 1.0, (0.5, 1.9), (0.01, 1.0), 30),
                 (2.0, 1e300, (1.5, 1.6), (1e-300, 3e-300), (7, 9)),
                 (1000.0, 1e160, (1.8, 1.95), (5e150, 2e151), (9, 7)),
                 (1.0, 0.5, (1.1, 1.2), (0.01, 0.02), 3)]
        for _ in range(40):
            k_lo = rng.uniform(0.5, 1.9)
            d_lo = rng.uniform(0.001, 0.2)
            cases.append((rng.uniform(1.0, 12.0), rng.uniform(0.3, 2.5),
                          (k_lo, rng.uniform(k_lo, 2.0)), (d_lo, d_lo + rng.uniform(0.001, 0.5)),
                          tuple(int(v) for v in rng.integers(2, 40, 2))))
        nan_cells = finite_cells = 0
        for n, beta0, k_range, delta_range, res in cases:
            surf = surface_grid(n, beta0, k_range, delta_range, res)
            expected = np.full(surf.r_hopf.shape, np.nan)
            for i, k in enumerate(surf.k):
                for j, d in enumerate(surf.delta):
                    try:
                        expected[i, j] = hopf_delay(n, beta0, float(k), float(d))
                    except (NoHopfError, PreconditionError, ConditioningError):
                        pass
            finite = np.isfinite(expected)
            np.testing.assert_array_equal(np.isfinite(surf.r_hopf), finite)
            got, want = surf.r_hopf[finite], expected[finite]
            assert (np.abs(got - want) <= 4 * np.spacing(want)).all()
            nan_cells += (~finite).sum()
            finite_cells += finite.sum()
        assert nan_cells > 1000 and finite_cells > 5000

    def test_cell_cap(self):
        # 4097 x 4096 is one row past 2**24 cells: rejected before allocating
        started = time.perf_counter()
        with pytest.raises(PreconditionError, match="cells"):
            surface_grid(2, 0.5, (1.1, 1.9), (0.01, 0.02), (4097, 4096))
        assert time.perf_counter() - started < 1.0


class TestTables:
    def test_table_loads_complete(self):
        rows = load_bautin_table()
        assert len(rows) == 36
        assert all(row.l2 < 0.0 for row in rows)
        assert sorted({row.beta0 for row in rows}) == [0.5, 1.0, 1.5, 2.0]

    def test_all_rows_verify_at_1e4(self):
        checks = verify_table(load_bautin_table(), rel_tol=1e-4)
        assert all(c.passed for c in checks)

    def test_row_outside_model_domain(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("n,beta0,k,delta,r,l2\n2,0.5,1.1,0.0045705962,26.125314,-0.021\n"
                         "2,0.5,2.5,0.01,1,0\n")
        with pytest.raises(DomainError, match="table.csv line 3: amplification k"):
            load_bautin_table(table)

    def test_corrupted_row_detected(self):
        row = load_bautin_table()[0]
        bad = BautinRow(**{**dataclasses.asdict(row), "r": row.r * 1.01})
        checks = verify_table([row, bad], rel_tol=1e-4)
        assert checks[0].passed and not checks[1].passed

    def test_tables_carry_finite_precision(self):
        # ~8 digit entries cannot all survive a 1e-9 gate
        checks = verify_table(load_bautin_table(), rel_tol=1e-9)
        assert any(not c.passed for c in checks)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_rejected(self, rel_tol):
        with pytest.raises(PreconditionError):
            verify_table(load_bautin_table(), rel_tol=rel_tol)

    def test_scaling_homogeneity(self):
        for row in load_bautin_table()[::5]:
            r0 = hopf_delay(row.n, row.beta0, row.k, row.delta)
            w0 = hopf_omega(row.n, row.beta0, row.k, row.delta)
            for s in (0.5, 2.0):
                assert hopf_delay(row.n, row.beta0 * s, row.k, row.delta * s) == pytest.approx(
                    r0 / s, rel=1e-12
                )
                assert hopf_omega(row.n, row.beta0 * s, row.k, row.delta * s) == pytest.approx(
                    w0 * s, rel=1e-12
                )

    def test_rescaled_tables_agree_across_beta0(self):
        # the four table blocks are exact rescalings of one another
        rows = load_bautin_table()
        base = [r for r in rows if r.beta0 == 0.5]
        for beta0 in (1.0, 1.5, 2.0):
            block = [r for r in rows if r.beta0 == beta0]
            s = beta0 / 0.5
            for a, b in zip(base, block):
                assert b.delta == pytest.approx(a.delta * s, rel=2e-8)
                assert b.r == pytest.approx(a.r / s, rel=2e-7)
