import contextlib
import csv
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cmldde.cli import _PARAM_KEYS, RunConfig, main

P3 = ["--n", "2", "--beta0", "2.5", "--delta", "0.0015", "--k", "1.01", "--r", "7.55"]
SEC3 = ["--n", "12", "--beta0", "1.77", "--delta", "0.05", "--k", "1.18074"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestEquilibria:
    def test_reference_point_table(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert main(["equilibria", *P3, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0]["kind"] == "trivial"
        pos = rows[1]
        assert float(pos["x"]) == pytest.approx(3.24777, rel=1e-3)
        assert float(pos["y"]) == pytest.approx(3.95811, rel=1e-5)

    def test_no_positive_branch(self, tmp_path):
        out = tmp_path / "eq.csv"
        args = ["equilibria", "--n", "2", "--beta0", "2.5", "--delta", "0.0015",
                "--k", "1.0", "--r", "7.55", "--out", str(out)]
        assert main(args) == 0
        rows = read_csv(out)
        assert len(rows) == 1 and rows[0]["kind"] == "trivial"

    def test_invalid_k_usage_error(self):
        args = ["equilibria", "--n", "2", "--beta0", "2.5", "--delta", "0.0015",
                "--k", "2.5", "--r", "7.55"]
        assert main(args) == 2

    def test_missing_param_usage_error(self):
        assert main(["equilibria", "--n", "2"]) == 2

    @pytest.mark.parametrize("key,value", [("n", "nan"), ("beta0", "inf"), ("delta", "nan"),
                                           ("r", "nan"), ("r", "inf")])
    def test_non_finite_parameter_usage_error(self, key, value, capsys):
        args = ["equilibria", "--n", "2", "--beta0", "2.5", "--delta", "0.0015",
                "--k", "1.01", "--r", "0.3"]
        args[args.index("--" + key) + 1] = value
        assert main(args) == 2
        assert "finite" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "eq.json"
        assert main(["equilibria", *P3, "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data[1]["stability"] == "asymptotically stable"


class TestStability:
    def test_reports_roots(self, tmp_path):
        out = tmp_path / "st.json"
        assert main(["stability", *P3, "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["positive"]["source"] == "P2.4"
        assert data["leading_roots"][0]["re"] < 0.0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_delay_usage_error(self, value):
        args = ["stability", "--n", "2", "--beta0", "2.5", "--delta", "0.0015",
                "--k", "1.01", "--r", value]
        assert main(args) == 2


class TestHopfSurface:
    def test_table_cell(self, tmp_path):
        out = tmp_path / "surf.csv"
        args = ["hopf-surface", "--n", "2", "--beta0", "0.5",
                "--k-min", "1.1", "--k-max", "1.9",
                "--delta-min", "0.0045705962", "--delta-max", "0.0383566021",
                "--resolution", "9", "--out", str(out)]
        assert main(args) == 0
        rows = read_csv(out)
        assert len(rows) == 81
        first = rows[0]
        assert float(first["r_hopf"]) == pytest.approx(26.125314, rel=1e-4)

    def test_all_absent(self, tmp_path):
        out = tmp_path / "surf.csv"
        args = ["hopf-surface", "--n", "1", "--beta0", "0.5",
                "--k-min", "1.1", "--k-max", "1.2",
                "--delta-min", "0.01", "--delta-max", "0.02",
                "--resolution", "2", "--out", str(out)]
        assert main(args) == 0
        rows = read_csv(out)
        assert all(row["r_hopf"] == "" for row in rows)

    def test_resolution_one_rejected(self):
        args = ["hopf-surface", "--n", "2", "--beta0", "0.5",
                "--k-min", "1.1", "--k-max", "1.9",
                "--delta-min", "0.01", "--delta-max", "0.02", "--resolution", "1"]
        assert main(args) == 2


class TestSimulate:
    def test_decaying_series_before_threshold(self, tmp_path):
        out = tmp_path / "y.csv"
        args = ["simulate", *SEC3, "--r", "0.3558", "--t-end", "2000",
                "--stride", "16", "--out", str(out)]
        assert main(args) == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["t", "y", "ydot"]
        t = np.array([float(r["t"]) for r in rows])
        y = np.array([float(r["y"]) for r in rows])
        y2 = 1.1508552964377718
        early = np.abs(y[(t > 0) & (t < 500)] - y2).max()
        late = np.abs(y[t > 1500] - y2).max()
        assert late < 0.2 * early

    def test_sustained_series_after_threshold(self, tmp_path):
        out = tmp_path / "y.csv"
        args = ["simulate", *SEC3, "--r", "0.36", "--t-end", "2000",
                "--stride", "16", "--out", str(out)]
        assert main(args) == 0
        rows = read_csv(out)
        t = np.array([float(r["t"]) for r in rows])
        y = np.array([float(r["y"]) for r in rows])
        tail = y[t > 1500]
        assert 0.5 * (tail.max() - tail.min()) > 0.02

    def test_zero_t_end_usage_error(self):
        assert main(["simulate", *SEC3, "--r", "0.36", "--t-end", "0"]) == 2

    @pytest.mark.parametrize("flag, value", [("--t-end", "nan"), ("--t-end", "inf"),
                                             ("--dt", "nan"), ("--dt", "inf")])
    def test_non_finite_time_usage_error(self, flag, value):
        assert main(["simulate", *SEC3, "--r", "0.36", flag, value]) == 2

    def test_node_cap_usage_error(self, tmp_path, capsys):
        # 7.2e10 nodes would be needed: rejected before anything is allocated
        out = tmp_path / "y.csv"
        started = time.perf_counter()
        code = main(["simulate", *SEC3, "--r", "0.36", "--dt", "1e-9", "--out", str(out)])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert "grid nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_stride_usage_error(self, tmp_path):
        out = tmp_path / "y.csv"
        args = ["simulate", *SEC3, "--r", "0.36", "--t-end", "10", "--stride", "0",
                "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()

    def test_stdout_matches_file(self, tmp_path, capsys):
        out = tmp_path / "y.csv"
        args = ["simulate", *SEC3, "--r", "0.36", "--t-end", "10", "--stride", "3"]
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_blowup_is_numerical_failure(self, tmp_path):
        # an absurdly coarse step destabilizes the explicit scheme
        out = tmp_path / "y.csv"
        args = ["simulate", "--n", "2", "--beta0", "2.5", "--delta", "0.3",
                "--k", "1.5", "--r", "20", "--dt", "20", "--t-end", "4000",
                "--out", str(out)]
        assert main(args) == 4

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", *P3, "--history", "eigenmode", "--c", "0.41",
                "--t-end", "500", "--stride", "8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestXSim:
    def test_series_written(self, tmp_path):
        out = tmp_path / "x.csv"
        args = ["x-sim", *SEC3, "--r", "0.3558", "--t-end", "500",
                "--stride", "8", "--out", str(out)]
        assert main(args) == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["t", "x", "xdot"]
        assert len(rows) > 100


class TestVerifyTables:
    def test_default_all_pass(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["verify-tables", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 36
        assert all(row["pass"] == "true" for row in rows)

    def test_tight_tolerance_exposes_rounding(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["verify-tables", "--rel-tol", "1e-9", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert any(row["pass"] == "false" for row in rows)

    def test_missing_table_file_io_error(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["verify-tables", "--tables", str(missing)]) == 3


class TestBistability:
    def test_coarse_bracket(self, tmp_path):
        out = tmp_path / "scan.json"
        amps = tmp_path / "amps.csv"
        args = ["bistability", *P3, "--c-lo", "0.2", "--c-hi", "0.55",
                "--tol", "0.1", "--horizon", "150000",
                "--amplitudes-csv", str(amps), "--out", str(out)]
        assert main(args) == 0
        data = json.loads(out.read_text())
        assert 0.2 <= data["bracket"]["c_converge"] < data["bracket"]["c_escape"] <= 0.55
        rows = read_csv(amps)
        assert list(rows[0]) == ["c", "amplitude_tail"]

    def test_inverted_bracket_usage_error(self):
        args = ["bistability", *P3, "--c-lo", "0.55", "--c-hi", "0.2",
                "--tol", "0.1", "--horizon", "1000"]
        assert main(args) == 2


class TestCriticality:
    def test_supercritical_verdict(self, tmp_path):
        out = tmp_path / "crit.json"
        args = ["criticality", *SEC3, "--horizon", "5000", "--out", str(out)]
        assert main(args) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "supercritical"
        assert data["fit"]["r_squared"] >= 0.9

    def test_no_threshold_usage_error(self):
        args = ["criticality", "--n", "1", "--beta0", "2", "--delta", "0.1",
                "--k", "1.5", "--horizon", "100"]
        assert main(args) == 2


class TestZone:
    def test_zone1(self, tmp_path):
        out = tmp_path / "zone.json"
        args = ["zone", *P3[:-2], "--r", "7.0", "--c-values", "0.2,0.55",
                "--horizon", "60000", "--out", str(out)]
        assert main(args) == 0
        data = json.loads(out.read_text())
        assert data["zone"] == "zone1"


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(
            command="simulate",
            params={"n": 2.0, "beta0": 2.5, "delta": 0.0015, "k": 1.01, "r": 7.55},
            options={"history": "eigenmode", "c": 0.41, "t_end": 500.0,
                     "dt": None, "stride": 8, "level": None},
            out="y.csv",
            fmt="csv",
        )
        wire = json.dumps(cfg.to_dict(), sort_keys=True)
        assert RunConfig.from_dict(json.loads(wire)) == cfg


_EXTREME = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 5e-324, 0.0, -0.0]


def _param_value():
    return st.one_of(
        st.sampled_from(_EXTREME),
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(allow_nan=True, allow_infinity=True),
    )


def _values(*values):
    return dict(zip(_PARAM_KEYS, values))


class TestArbitraryParameters:
    """Any parameter values end in a documented exit code, never in a traceback."""

    @settings(max_examples=300, deadline=None)
    @example("equilibria", _values(1e300, 1e300, 1e-300, 1.5, 1e300), "csv")  # y2 overflows
    @example("stability", _values(2.0, 1e300, 1e-300, 1.5, 1e300), "csv")  # r_H divides by 0
    @example("stability", _values(1e300, 1e300, 1e-300, 2.0, 5e-324), "csv")  # cos(inf)
    @example("stability", _values(1e300, 1e300, 1e8, 2.0, 1e300), "csv")  # b1 is NaN
    @example("stability", _values(1.5, 2.0, 0.3, 1.9, 5000.0), "json")  # z overflows
    @given(
        command=st.sampled_from(["stability", "equilibria"]),
        values=st.fixed_dictionaries({key: _param_value() for key in _PARAM_KEYS}),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_exit_code_documented(self, command, values, fmt):
        argv = [command, "--format", fmt]
        for key, value in values.items():
            argv += [f"--{key}", repr(value)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            text = out.getvalue()
            if fmt == "json":
                numbers = _json_numbers(json.loads(text))
            else:
                cells = [c for line in text.splitlines()[1:] for c in line.split(",")]
                numbers = [float(c) for c in cells if _is_number(c)]
            assert all(math.isfinite(x) for x in numbers), (argv, text)


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _json_numbers(node):
    # json.loads reads NaN and Infinity as floats
    if isinstance(node, dict):
        return [x for v in node.values() for x in _json_numbers(v)]
    if isinstance(node, list):
        return [x for v in node for x in _json_numbers(v)]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [float(node)]
    return []
