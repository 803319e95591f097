"""Command-line front end: every analysis as a subcommand with CSV/JSON output.

Each subcommand reads the argparse namespace directly, so every flag's default
and required status is declared once, in build_parser. It returns its result
as data, (header, rows, payload), and main hands that to one writer, _write;
only simulate and x-sim stream their own output (and bistability writes its
--amplitudes-csv). Each subcommand imports the layers it uses when it runs,
so those that integrate nothing never load dde_sim, x_solver or explorer.
Output is data only; plotting is left to external tools.
The JSON of bistability, criticality and zone, which have no CSV form (header
None), opens with an "inputs" block: the command, the model parameters, every
other flag under "options", the --out path, and "fmt" (always "csv" for these
JSON-only commands). Exit codes: 0 on success, 2 for usage or
parameter-domain errors (a missing or malformed flag gets argparse's usage
message; non-finite or negative initial data, an oversized hopf-surface grid
and a bad tolerance are domain errors), 3 for I/O, 4 for numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import Iterable

from . import __version__
from .errors import DomainError, NoHopfError, PreconditionError

USAGE_ERROR, IO_ERROR, NUMERIC_ERROR = 2, 3, 4

_PARAM_KEYS = ("n", "beta0", "delta", "k", "r")


def _model_params(args: argparse.Namespace) -> ModelParams:
    from .model import ModelParams

    return ModelParams(**{key: getattr(args, key) for key in _PARAM_KEYS})


def _inputs(args: argparse.Namespace) -> dict:
    """The run's flags as recorded in the "inputs" block of the JSON outputs."""
    options = dict(vars(args))
    del options["func"]
    params = {key: options.pop(key) for key in _PARAM_KEYS if key in options}
    return {
        "command": options.pop("command"),
        "params": params,
        "out": options.pop("out"),
        "fmt": options.pop("fmt", "csv"),
        "options": options,
    }


def _emit_rows(fh, header: list[str], rows: Iterable[list]):
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _write(args: argparse.Namespace, header, rows, payload) -> None:
    """Write a subcommand's result to --out or stdout: the CSV header and rows, or
    the JSON payload with --format json. A command with no CSV form (header None)
    writes its payload as JSON, led by the inputs block."""
    import json

    if header is None:
        payload = {"inputs": _inputs(args), **payload}
    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w", newline="\n")) as fh:
        if header is None or getattr(args, "fmt", "csv") == "json":
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            _emit_rows(fh, header, rows)


def _records(header: list[str], records: list[dict]):
    # each record is keyed by the CSV header; the JSON is the list of records
    return header, [[rec[h] for h in header] for rec in records], records


def _orbit_payload(orbit) -> dict:
    out = {"kind": orbit.kind.value}
    if orbit.cycle is not None:
        out["cycle"] = {
            "amplitude": orbit.cycle.amplitude,
            "period": orbit.cycle.period,
            "steady": orbit.cycle.steady,
        }
    return out


def _history(args: argparse.Namespace, params: ModelParams):
    from .dde_sim import ConstantHistory, eigenmode_history
    from .model import positive_equilibrium

    if args.history == "constant":
        level = args.level
        if level is None:
            level = 1.01 * positive_equilibrium(params).y_star if params.has_positive_equilibrium else 1.0
        return ConstantHistory(level)
    if args.c is None:
        raise DomainError("--c is required with --history eigenmode")
    return eigenmode_history(params, args.c)


def cmd_equilibria(args: argparse.Namespace):
    from .linear_analysis import classify_positive, classify_trivial
    from .model import EquilibriumKind, equilibria

    params = _model_params(args)
    records = []
    for eq in equilibria(params):
        verdict = (
            classify_trivial(params)
            if eq.kind is EquilibriumKind.TRIVIAL
            else classify_positive(params)
        )
        records.append(
            {
                "kind": eq.kind.value,
                "x": eq.x_star,
                "y": eq.y_star,
                "stability": verdict.state.value,
                "source": verdict.source.value,
            }
        )
    return _records(["kind", "x", "y", "stability", "source"], records)


def cmd_stability(args: argparse.Namespace):
    from .linear_analysis import classify_positive, classify_trivial, leading_roots

    params = _model_params(args)
    trivial = classify_trivial(params)
    rows = [["trivial", trivial.state.value, trivial.source.value, None, None]]
    payload = {
        "trivial": {"state": trivial.state.value, "source": trivial.source.value},
        "positive": None,
        "leading_roots": [],
    }
    if params.has_positive_equilibrium:
        pos = classify_positive(params)
        rows.append(["positive", pos.state.value, pos.source.value, None, None])
        payload["positive"] = {
            "state": pos.state.value,
            "source": pos.source.value,
            "detail": pos.detail,
        }
        if args.roots:
            for root in leading_roots(params, args.roots):
                rows.append(["root", None, None, root.re, root.im])
                payload["leading_roots"].append({"re": root.re, "im": root.im})
    return ["item", "state", "source", "re", "im"], rows, payload


def cmd_hopf_surface(args: argparse.Namespace):
    from .hopf import surface_grid

    surface = surface_grid(
        args.n,
        args.beta0,
        (args.k_min, args.k_max),
        (args.delta_min, args.delta_max),
        args.resolution,
    )
    rows = (
        [float(k), float(d), None if math.isnan(r_h) else float(r_h)]
        for k, r_row in zip(surface.k, surface.r_hopf)
        for d, r_h in zip(surface.delta, r_row)
    )
    return ["k", "delta", "r_hopf"], rows, None


def cmd_simulate(args: argparse.Namespace) -> None:
    """simulate streams the y trajectory to --out; x-sim integrates x along it and
    streams that. Returns None: there is nothing left for _write."""
    from .dde_sim import integrate_y

    params = _model_params(args)
    t_end = 200.0 * params.r if args.t_end is None else args.t_end
    traj = integrate_y(params, _history(args, params), t_end, args.dt)
    labels = ("t", "y", "ydot")
    if args.command == "x-sim":
        from .model import positive_equilibrium
        from .x_solver import integrate_x

        x0 = args.x0
        if x0 is None:
            x0 = positive_equilibrium(params).x_star if params.has_positive_equilibrium else 0.0
        traj, labels = integrate_x(params, traj, x0), ("t", "x", "xdot")
    # write_csv opens a path itself and checks the stride before it does
    traj.write_csv(sys.stdout if args.out is None else args.out, labels, args.stride)


def cmd_verify_tables(args: argparse.Namespace):
    from .hopf import load_bautin_table, verify_table

    records = [
        {
            "n": c.row.n,
            "beta0": c.row.beta0,
            "k": c.row.k,
            "delta": c.row.delta,
            "r_paper": c.row.r,
            "r_computed": c.r_computed,
            "rel_err": c.rel_err,
            "pass": c.passed,
        }
        for c in verify_table(load_bautin_table(args.tables), args.rel_tol)
    ]
    return _records(["n", "beta0", "k", "delta", "r_paper", "r_computed", "rel_err", "pass"],
                    records)


def cmd_bistability(args: argparse.Namespace):
    from .explorer import bistability_scan

    params = _model_params(args)
    result = bistability_scan(params, args.c_lo, args.c_hi, args.tol, args.horizon, args.dt)
    if args.amplitudes_csv:
        with open(args.amplitudes_csv, "w", newline="\n") as fh:
            rows = [[p.c, p.orbit.tail_amplitude] for p in sorted(result.probes, key=lambda p: p.c)]
            _emit_rows(fh, ["c", "amplitude_tail"], rows)
    return None, None, {
        "bracket": {"c_converge": result.c_converge, "c_escape": result.c_escape},
        "probes": [{"c": p.c, "orbit": _orbit_payload(p.orbit)} for p in result.probes],
        "elapsed_seconds": result.elapsed,
    }


def cmd_criticality(args: argparse.Namespace):
    from .explorer import criticality_probe

    report = criticality_probe(
        args.n, args.beta0, args.k, args.delta, args.offsets, args.horizon, args.dt
    )
    return None, None, {
        "verdict": report.verdict.value,
        "r_hopf": report.r_hopf,
        "points": [
            {"offset": p.offset, "amplitude": p.amplitude, "kind": p.kind.value}
            for p in report.points
        ],
        "fit": {"slope": report.slope, "intercept": report.intercept, "r_squared": report.r_squared},
    }


def cmd_zone(args: argparse.Namespace):
    from .explorer import zone_classify

    params = _model_params(args)
    report = zone_classify(params, args.c_values, args.horizon, args.dt)
    return None, None, {
        "zone": report.zone.value,
        "equilibrium_state": report.equilibrium_state.value,
        "probes": [{"c": p.c, "orbit": _orbit_payload(p.orbit)} for p in report.probes],
    }


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _add_param_flags(parser, keys=_PARAM_KEYS):
    for key in keys:
        parser.add_argument(f"--{key}", type=float, required=True)


def _add_out_flags(parser, formats=("csv", "json")):
    parser.add_argument("--out", help="output path (default: stdout)")
    if formats:
        parser.add_argument("--format", dest="fmt", choices=formats, default=formats[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmldde",
        description="Equilibria, stability, bifurcation boundaries and simulation "
        "of the two-compartment blood-cell delay model.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibria", help="equilibria and their stability verdicts")
    _add_param_flags(p)
    _add_out_flags(p)
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("stability", help="stability classification and leading roots")
    _add_param_flags(p)
    p.add_argument("--roots", type=int, default=2, help="number of leading roots to report")
    _add_out_flags(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("hopf-surface", help="critical delay on a (k, delta) grid")
    _add_param_flags(p, keys=("n", "beta0"))
    p.add_argument("--k-min", type=float, required=True)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--delta-min", type=float, required=True)
    p.add_argument("--delta-max", type=float, required=True)
    p.add_argument("--resolution", type=int, required=True)
    _add_out_flags(p, formats=())
    p.set_defaults(func=cmd_hopf_surface)

    for name, var in (("simulate", "y"), ("x-sim", "x")):
        p = sub.add_parser(name, help=f"integrate and dump the {var} trajectory as CSV")
        _add_param_flags(p)
        p.add_argument("--history", choices=("constant", "eigenmode"), default="constant")
        p.add_argument("--level", type=float, help="constant history level")
        p.add_argument("--c", type=float, help="eigenmode history amplitude")
        p.add_argument("--t-end", dest="t_end", type=float)
        p.add_argument("--dt", type=float)
        p.add_argument("--stride", type=int, default=1)
        if name == "x-sim":
            p.add_argument("--x0", type=float)
        _add_out_flags(p, formats=())
        p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-tables", help="recompute the shipped codimension-two table")
    p.add_argument("--tables", help="override the packaged table CSV")
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-4)
    _add_out_flags(p)
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("bistability", help="bisect the basin boundary amplitude c*")
    _add_param_flags(p)
    p.add_argument("--c-lo", dest="c_lo", type=float, required=True)
    p.add_argument("--c-hi", dest="c_hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=0.002)
    p.add_argument("--horizon", type=float, default=200000.0)
    p.add_argument("--dt", type=float)
    p.add_argument("--amplitudes-csv", dest="amplitudes_csv")
    _add_out_flags(p, formats=())
    p.set_defaults(func=cmd_bistability)

    p = sub.add_parser("criticality", help="probe sub/supercritical onset at the threshold")
    _add_param_flags(p, keys=("n", "beta0", "delta", "k"))
    p.add_argument(
        "--offsets", type=_float_list, default=[-0.0001, 0.0004, 0.0008, 0.0012],
        help="comma-separated delay offsets from the critical value",
    )
    p.add_argument("--horizon", type=float, default=5000.0)
    p.add_argument("--dt", type=float)
    _add_out_flags(p, formats=())
    p.set_defaults(func=cmd_criticality)

    p = sub.add_parser("zone", help="qualitative zone around degenerate criticality")
    _add_param_flags(p)
    p.add_argument("--c-values", dest="c_values", type=_float_list, default=[0.2, 0.55])
    p.add_argument("--horizon", type=float, default=150000.0)
    p.add_argument("--dt", type=float)
    _add_out_flags(p, formats=())
    p.set_defaults(func=cmd_zone)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        result = args.func(args)
        if result is not None:
            _write(args, *result)
        return 0
    except (DomainError, PreconditionError, NoHopfError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR
    except (RuntimeError, ArithmeticError, ValueError) as exc:
        # plain ValueError is a math domain error, e.g. from a quantity past the double range
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
