"""Command-line front end: every analysis as a subcommand with CSV/JSON output.

Output is data only; plotting is left to external tools. Exit codes: 0 on
success, 2 for usage or parameter-domain errors, 3 for I/O errors, 4 for
numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .errors import (
    ConditioningError,
    DomainError,
    IntegrationError,
    NoHopfError,
    PreconditionError,
    RootNotFoundError,
)
from .model import ModelParams, equilibria, positive_equilibrium, EquilibriumKind
from .linear_analysis import classify_positive, classify_trivial, leading_roots
from .hopf import load_bautin_table, surface_grid, verify_table
from .dde_sim import ConstantHistory, eigenmode_history, integrate_y
from .x_solver import integrate_x
from .explorer import (
    OrbitKind,
    bistability_scan,
    criticality_probe,
    zone_classify,
)

USAGE_ERROR, IO_ERROR, NUMERIC_ERROR = 2, 3, 4


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand run depends on; serializes losslessly."""

    command: str
    params: dict
    options: dict
    out: Optional[str]
    fmt: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**data)


_PARAM_KEYS = ("n", "beta0", "delta", "k", "r")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    ns = vars(args)
    params = {key: ns[key] for key in _PARAM_KEYS if key in ns and ns[key] is not None}
    skip = set(_PARAM_KEYS) | {"command", "out", "fmt", "func"}
    options = {key: val for key, val in ns.items() if key not in skip}
    return RunConfig(
        command=args.command,
        params=params,
        options=options,
        out=ns.get("out"),
        fmt=ns.get("fmt", "csv"),
    )


def _model_params(cfg: RunConfig) -> ModelParams:
    missing = [key for key in _PARAM_KEYS if key not in cfg.params]
    if missing:
        raise DomainError(f"missing required parameters: {', '.join('--' + m for m in missing)}")
    return ModelParams(**cfg.params)


@contextlib.contextmanager
def _open_out(path: Optional[str]):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as fh:
            yield fh


def _out_target(cfg: RunConfig):
    # a path for Trajectory.write_csv to open, or stdout
    return sys.stdout if cfg.out is None else cfg.out


def _emit_rows(fh, header: list[str], rows: list[list]):
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


def _emit(cfg: RunConfig, header, rows, payload):
    with _open_out(cfg.out) as fh:
        if cfg.fmt == "json":
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            _emit_rows(fh, header, rows)


def _orbit_payload(orbit) -> dict:
    out = {"kind": orbit.kind.value}
    if orbit.cycle is not None:
        out["cycle"] = {
            "amplitude": orbit.cycle.amplitude,
            "period": orbit.cycle.period,
            "steady": orbit.cycle.steady,
        }
    return out


def _history_from_options(cfg: RunConfig, params: ModelParams):
    kind = cfg.options.get("history", "constant")
    if kind == "constant":
        level = cfg.options.get("level")
        if level is None:
            level = 1.01 * positive_equilibrium(params).y_star if params.has_positive_equilibrium else 1.0
        return ConstantHistory(level)
    if kind == "eigenmode":
        c = cfg.options.get("c")
        if c is None:
            raise DomainError("--c is required with --history eigenmode")
        return eigenmode_history(params, c)
    raise DomainError(f"unknown history kind {kind!r}")


def cmd_equilibria(cfg: RunConfig) -> int:
    params = _model_params(cfg)
    rows, payload = [], []
    for eq in equilibria(params):
        verdict = (
            classify_trivial(params)
            if eq.kind is EquilibriumKind.TRIVIAL
            else classify_positive(params)
        )
        rows.append([eq.kind.value, eq.x_star, eq.y_star, verdict.state.value, verdict.source.value])
        payload.append(
            {
                "kind": eq.kind.value,
                "x": eq.x_star,
                "y": eq.y_star,
                "stability": verdict.state.value,
                "source": verdict.source.value,
            }
        )
    _emit(cfg, ["kind", "x", "y", "stability", "source"], rows, payload)
    return 0


def cmd_stability(cfg: RunConfig) -> int:
    params = _model_params(cfg)
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
        count = cfg.options.get("roots", 2)
        if count:
            for root in leading_roots(params, count):
                rows.append(["root", None, None, root.re, root.im])
                payload["leading_roots"].append({"re": root.re, "im": root.im})
    _emit(cfg, ["item", "state", "source", "re", "im"], rows, payload)
    return 0


def cmd_hopf_surface(cfg: RunConfig) -> int:
    opt = cfg.options
    for key in ("n", "beta0"):
        if key not in cfg.params:
            raise DomainError(f"--{key} is required")
    surface = surface_grid(
        cfg.params["n"],
        cfg.params["beta0"],
        (opt["k_min"], opt["k_max"]),
        (opt["delta_min"], opt["delta_max"]),
        opt["resolution"],
    )
    rows = []
    for i, k in enumerate(surface.k):
        for j, d in enumerate(surface.delta):
            r_h = surface.r_hopf[i, j]
            rows.append([float(k), float(d), None if math.isnan(r_h) else float(r_h)])
    with _open_out(cfg.out) as fh:
        _emit_rows(fh, ["k", "delta", "r_hopf"], rows)
    return 0


def _resolve_t_end(cfg: RunConfig, params: ModelParams) -> float:
    t_end = cfg.options.get("t_end")
    return 200.0 * params.r if t_end is None else t_end


def cmd_simulate(cfg: RunConfig) -> int:
    params = _model_params(cfg)
    history = _history_from_options(cfg, params)
    traj = integrate_y(params, history, _resolve_t_end(cfg, params), cfg.options.get("dt"))
    traj.write_csv(_out_target(cfg), ("t", "y", "ydot"), cfg.options.get("stride", 1))
    return 0


def cmd_x_sim(cfg: RunConfig) -> int:
    params = _model_params(cfg)
    history = _history_from_options(cfg, params)
    y_traj = integrate_y(params, history, _resolve_t_end(cfg, params), cfg.options.get("dt"))
    x0 = cfg.options.get("x0")
    if x0 is None:
        x0 = positive_equilibrium(params).x_star if params.has_positive_equilibrium else 0.0
    x_traj = integrate_x(params, y_traj, x0)
    x_traj.write_csv(_out_target(cfg), ("t", "x", "xdot"), cfg.options.get("stride", 1))
    return 0


def cmd_verify_tables(cfg: RunConfig) -> int:
    rows_data = load_bautin_table(cfg.options.get("tables"))
    checks = verify_table(rows_data, cfg.options.get("rel_tol", 1e-4))
    rows, payload = [], []
    for c in checks:
        rows.append(
            [c.row.n, c.row.beta0, c.row.k, c.row.delta, c.row.r, c.r_computed, c.rel_err, c.passed]
        )
        payload.append(
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
        )
    _emit(cfg, ["n", "beta0", "k", "delta", "r_paper", "r_computed", "rel_err", "pass"], rows, payload)
    return 0


def cmd_bistability(cfg: RunConfig) -> int:
    params = _model_params(cfg)
    opt = cfg.options
    result = bistability_scan(
        params, opt["c_lo"], opt["c_hi"], opt["tol"], opt["horizon"], opt.get("dt")
    )
    payload = {
        "inputs": cfg.to_dict(),
        "bracket": {"c_converge": result.c_converge, "c_escape": result.c_escape},
        "probes": [{"c": p.c, "orbit": _orbit_payload(p.orbit)} for p in result.probes],
        "elapsed_seconds": result.elapsed,
    }
    with _open_out(cfg.out) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    amp_csv = opt.get("amplitudes_csv")
    if amp_csv:
        with open(amp_csv, "w", newline="\n") as fh:
            rows = []
            for p in sorted(result.probes, key=lambda p: p.c):
                amp = p.orbit.cycle.amplitude if p.orbit.cycle is not None else 0.0
                if p.orbit.kind is OrbitKind.CONVERGES_TO_EQUILIBRIUM:
                    amp = 0.0
                rows.append([p.c, amp])
            _emit_rows(fh, ["c", "amplitude_tail"], rows)
    return 0


def cmd_criticality(cfg: RunConfig) -> int:
    for key in ("n", "beta0", "delta", "k"):
        if key not in cfg.params:
            raise DomainError(f"--{key} is required")
    opt = cfg.options
    report = criticality_probe(
        cfg.params["n"],
        cfg.params["beta0"],
        cfg.params["k"],
        cfg.params["delta"],
        opt["offsets"],
        opt["horizon"],
        opt.get("dt"),
    )
    payload = {
        "inputs": cfg.to_dict(),
        "verdict": report.verdict.value,
        "r_hopf": report.r_hopf,
        "points": [
            {"offset": p.offset, "amplitude": p.amplitude, "kind": p.kind.value}
            for p in report.points
        ],
        "fit": {"slope": report.slope, "intercept": report.intercept, "r_squared": report.r_squared},
    }
    with _open_out(cfg.out) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_zone(cfg: RunConfig) -> int:
    params = _model_params(cfg)
    opt = cfg.options
    report = zone_classify(params, opt["c_values"], opt["horizon"], opt.get("dt"))
    payload = {
        "inputs": cfg.to_dict(),
        "zone": report.zone.value,
        "equilibrium_state": report.equilibrium_state.value,
        "probes": [{"c": p.c, "orbit": _orbit_payload(p.orbit)} for p in report.probes],
    }
    with _open_out(cfg.out) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _add_param_flags(parser, keys=_PARAM_KEYS):
    for key in keys:
        parser.add_argument(f"--{key}", type=float)


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

    for name, func, labels in (("simulate", cmd_simulate, "y"), ("x-sim", cmd_x_sim, "x")):
        p = sub.add_parser(name, help=f"integrate and dump the {labels} trajectory as CSV")
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
        p.set_defaults(func=func)

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
    cfg = _config_from_args(args)
    try:
        return args.func(cfg)
    except (DomainError, PreconditionError, NoHopfError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR
    except (IntegrationError, RootNotFoundError, ConditioningError, RuntimeError,
            ArithmeticError, ValueError) as exc:
        # plain ValueError is a math domain error, e.g. from a quantity past the double range
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
