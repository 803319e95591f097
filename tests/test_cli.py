import contextlib
import csv
import io
import json
import math
import pathlib
import shlex
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cmldde.cli import _PARAM_KEYS, build_parser, main

P3 = ["--n", "2", "--beta0", "2.5", "--delta", "0.0015", "--k", "1.01", "--r", "7.55"]
SEC3 = ["--n", "12", "--beta0", "1.77", "--delta", "0.05", "--k", "1.18074"]


SURFACE = ["--k-min", "1.1", "--k-max", "1.9", "--delta-min", "0.01", "--delta-max", "0.02",
           "--resolution", "3"]
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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

    def test_rows_streamed(self, tmp_path):
        # 10,000 cells: a list of all rows holds about 1.7 MB before the first
        # write; streamed rows keep the peak near the 80 kB r_hopf array
        out = tmp_path / "surf.csv"
        args = ["hopf-surface", "--n", "2", "--beta0", "2.5", "--k-min", "1.01",
                "--k-max", "1.9", "--delta-min", "0.001", "--delta-max", "0.1",
                "--resolution", "100", "--out", str(out)]
        tracemalloc.start()
        try:
            code = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(read_csv(out)) == 10000
        assert peak < 1_000_000

    def test_cell_cap_usage_error(self, tmp_path, capsys):
        out = tmp_path / "surf.csv"
        args = ["hopf-surface", "--n", "2", "--beta0", "0.5", *SURFACE[:-1], "4097",
                "--out", str(out)]
        started = time.perf_counter()
        code = main(args)
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert "cells" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--k-min", "2.2", "amplification k must be in (0, 2]"),
        ("--delta-min", "0", "delta must be positive and finite"),
    ], ids=["k-above-2", "zero-delta-min"])
    def test_range_outside_model_domain(self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "surf.csv"
        args = ["hopf-surface", "--n", "2", "--beta0", "0.5", *SURFACE, "--out", str(out)]
        if flag == "--k-min":
            args[args.index("--k-max") + 1] = "2.5"
        args[args.index(flag) + 1] = value
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    def test_negative_initial_function_usage_error(self, tmp_path, capsys):
        out = tmp_path / "y.csv"
        args = ["simulate", *P3, "--history", "eigenmode", "--c", "-5", "--out", str(out)]
        assert main(args) == 2
        assert "initial function must be >= 0 on [-r, 0]" in capsys.readouterr().err
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

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n", "line 2: missing column n, beta0, k, delta, r, l2"),
        ("n,beta0,k,delta,r\n2,0.5,1.1,0.0045705962,26.125314\n", "line 2: missing column l2"),
        ("n,beta0,k,delta,r,l2\n2,0.5,1.1,0.0045705962,26.125314,-0.021\n"
         "2,0.5,1.2,abc,25.751524,-0.0151\n", "line 3: could not convert"),
        ("n,beta0,k,delta,r,l2\n2,0.5,1.1,inf,26.125314,-0.021\n", "line 2: non-finite"),
        ("n,beta0,k,delta,r,l2\n2,0.5,1.1,0.0045705962,0,-0.021\n", "line 2: r must be > 0"),
        ("n,beta0,k,delta,r,l2\n2,0.5,2.5,0.01,1,0\n", "line 2: amplification k"),
    ], ids=["no-columns", "no-l2", "non-numeric", "non-finite", "zero-delay", "k-above-2"])
    def test_malformed_table_usage_error(self, text, message, tmp_path, capsys):
        table, out = tmp_path / "table.csv", tmp_path / "report.csv"
        table.write_text(text)
        assert main(["verify-tables", "--tables", str(table), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_tolerance_usage_error(self, value, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["verify-tables", "--rel-tol", value, "--out", str(out)]) == 2
        assert not out.exists()


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

    def test_nan_tolerance_usage_error(self):
        args = ["bistability", *P3, "--c-lo", "0.2", "--c-hi", "0.55",
                "--tol", "nan", "--horizon", "1000"]
        assert main(args) == 2


class TestCriticality:
    def test_supercritical_verdict(self, tmp_path):
        out = tmp_path / "crit.json"
        args = ["criticality", *SEC3, "--horizon", "5000", "--out", str(out)]
        assert main(args) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "supercritical"
        assert data["fit"]["r_squared"] >= 0.9
        assert data["inputs"] == {
            "command": "criticality",
            "params": {"n": 12.0, "beta0": 1.77, "delta": 0.05, "k": 1.18074},
            "options": {"offsets": [-0.0001, 0.0004, 0.0008, 0.0012], "horizon": 5000.0,
                        "dt": None},
            "out": str(out),
            "fmt": "csv",
        }

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
        assert data["inputs"] == {
            "command": "zone",
            "params": {"n": 2.0, "beta0": 2.5, "delta": 0.0015, "k": 1.01, "r": 7.0},
            "options": {"c_values": [0.2, 0.55], "horizon": 60000.0, "dt": None},
            "out": str(out),
            "fmt": "csv",
        }


_MODEL_COMMANDS = {
    "equilibria": ([*P3], []),
    "stability": ([*P3], []),
    "hopf-surface": (["--n", "2", "--beta0", "0.5"], SURFACE),
    "simulate": ([*P3], ["--t-end", "10"]),
    "x-sim": ([*P3], ["--t-end", "10"]),
    "bistability": ([*P3], ["--c-lo", "0.2", "--c-hi", "0.55", "--horizon", "1000"]),
    "criticality": ([*SEC3], ["--horizon", "100"]),
    "zone": ([*P3], ["--horizon", "100"]),
}


@pytest.mark.parametrize(
    "command, key",
    [(command, argv[i][2:]) for command, (argv, _) in _MODEL_COMMANDS.items()
     for i in range(0, len(argv), 2)],
)
def test_missing_parameter_usage_error(command, key, tmp_path, capsys):
    params, rest = _MODEL_COMMANDS[command]
    i = params.index("--" + key)
    out = tmp_path / "out"
    assert main([command, *params[:i], *params[i + 2:], *rest, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "required" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", *P3, "--level", "nan", "--t-end", "10"],
    ["simulate", *P3, "--level", "inf", "--t-end", "10"],
    ["simulate", *P3, "--history", "eigenmode", "--c", "nan", "--t-end", "10"],
    ["zone", *P3, "--c-values", "nan", "--horizon", "100"],
    ["x-sim", *P3, "--x0", "nan", "--t-end", "10"],
])
def test_non_finite_initial_data_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err
    assert not out.exists()


def _readme_commands():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cmldde ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(_MODEL_COMMANDS) | {"verify-tables"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


# bistability, criticality and zone run to long horizons; their own tests
# above cover them at shorter ones
_FAST_README = ("equilibria", "stability", "hopf-surface", "simulate", "x-sim", "verify-tables")


@pytest.mark.parametrize("command", _FAST_README)
def test_readme_command_runs(command, tmp_path, capsys):
    argv = next(argv for argv in _readme_commands() if argv[0] == command)
    out = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        out = argv[i] = str(tmp_path / argv[i])
    assert main(argv) == 0
    text = capsys.readouterr().out if out is None else pathlib.Path(out).read_text()
    if "json" in argv:
        assert all(math.isfinite(x) for x in _json_numbers(json.loads(text)))
        return
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        for column, cell in row.items():
            assert cell != "" or column == "r_hopf", (column, row)
            assert not _is_number(cell) or math.isfinite(float(cell)), (column, row)
    opts = dict(zip(argv[1::2], argv[2::2]))
    if command == "hopf-surface":
        assert len(rows) == 3600
    elif command in ("simulate", "x-sim"):
        # 64 steps per delay; y also stores the 64 history steps on [-r, 0]
        steps = math.ceil(float(opts["--t-end"]) / (float(opts["--r"]) / 64))
        nodes = steps + 1 + (64 if command == "simulate" else 0)
        assert len(rows) == math.ceil(nodes / int(opts["--stride"]))


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
    @example("stability", _values(1e-300, 16.374190495784227, 2.0, 2.0, 5e-324), "csv")  # lambda/r
    @given(
        command=st.sampled_from(["stability", "equilibria"]),
        values=st.fixed_dictionaries({key: _param_value() for key in _PARAM_KEYS}),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_exit_code_documented(self, command, values, fmt):
        argv = [command, "--format", fmt]
        # one --flag=value token: argparse reads a separate "-1e-3" as a flag
        argv += [f"--{key}={value!r}" for key, value in values.items()]
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
