"""Delay thresholds for oscillatory instability and codimension-two reference data.

For b1 < 0 the positive equilibrium loses stability when the delay reaches

    r_H = arccos((delta + b1)/(k b1)) / sqrt((k b1)^2 - (delta + b1)^2),

at which point a conjugate root pair sits at +/- i omega_H with
omega_H = sqrt((k b1)^2 - (delta + b1)^2). This module evaluates that
boundary pointwise and on grids, and ships the tabulated codimension-two
(degenerate-criticality) points used as golden data by the verification
command.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConditioningError, DomainError, NoHopfError, PreconditionError
from .model import ModelParams, b1_value, check_rates

# surface_grid rejects larger grids before allocating; matches dde_sim.MAX_NODES
MAX_SURFACE_CELLS = 2**24


@dataclass(frozen=True)
class HopfPoint:
    """Parameters pinned at the instability boundary, with the crossing frequency."""

    params: ModelParams
    omega_h: float


@dataclass(frozen=True)
class BautinRow:
    """One tabulated codimension-two record; l2 is reference data only."""

    n: float
    beta0: float
    k: float
    delta: float
    r: float
    l2: float


@dataclass(frozen=True)
class TableCheck:
    row: BautinRow
    r_computed: float
    rel_err: float
    passed: bool


@dataclass(frozen=True)
class HopfSurface:
    """r_H sampled on a (k, delta) grid; NaN cells mark points with no threshold."""

    n: float
    beta0: float
    k: np.ndarray
    delta: np.ndarray
    r_hopf: np.ndarray  # shape (len(k), len(delta))


def _crossing_frequency(s_sum: float, k_b1: float) -> float:
    """omega_H = sqrt((k b1)^2 - (delta + b1)^2) for s_sum = delta + b1 and k_b1 = k b1.

    Raises ConditioningError when the squares overflow, underflow or cancel so
    far that omega_H is not a normal positive double. A normal omega_H keeps
    r_H = theta/omega_H finite for every theta in [0, pi].
    """
    omega_h = math.sqrt(k_b1 * k_b1 - s_sum * s_sum)
    if not sys.float_info.min <= omega_h < math.inf:
        raise ConditioningError(
            f"crossing frequency omega_H = {omega_h} is not a normal positive double"
        )
    return omega_h


def _threshold_pieces(n: float, beta0: float, k: float, delta: float) -> tuple[float, float]:
    """(arccos term, radical omega_H); raises DomainError outside the model's
    parameter domain, NoHopfError when undefined and ConditioningError when
    omega_H is out of range."""
    check_rates(n, beta0, delta, k)
    b1 = b1_value(n, beta0, k, delta)
    if b1 >= 0.0:
        raise NoHopfError(f"b1 = {b1:.6g} >= 0: no delay-induced instability")
    s_sum = delta + b1
    k_b1 = k * b1
    ratio = s_sum / k_b1
    if not (-1.0 < ratio < 1.0):
        raise NoHopfError(
            f"(delta + b1)/(k b1) = {ratio:.6g} outside (-1, 1): no crossing frequency"
        )
    return math.acos(ratio), _crossing_frequency(s_sum, k_b1)


def hopf_delay(n: float, beta0: float, k: float, delta: float) -> float:
    """Critical delay r_H at which the positive equilibrium loses stability."""
    theta, omega_h = _threshold_pieces(n, beta0, k, delta)
    return theta / omega_h


def hopf_omega(n: float, beta0: float, k: float, delta: float) -> float:
    """Crossing frequency omega_H at the critical delay."""
    return _threshold_pieces(n, beta0, k, delta)[1]


def hopf_point(n: float, beta0: float, k: float, delta: float) -> HopfPoint:
    """ModelParams pinned exactly at the critical delay, with omega_H attached."""
    theta, omega_h = _threshold_pieces(n, beta0, k, delta)
    params = ModelParams(n=n, beta0=beta0, delta=delta, k=k, r=theta / omega_h)
    return HopfPoint(params=params, omega_h=omega_h)


def surface_grid(
    n: float,
    beta0: float,
    k_range: tuple[float, float],
    delta_range: tuple[float, float],
    resolution: int | tuple[int, int],
) -> HopfSurface:
    """Evaluate the critical delay on a Cartesian (k, delta) grid.

    Cells where no threshold exists (no positive equilibrium, b1 >= 0, or no
    crossing frequency) are NaN; they trace the domain boundary of the surface.
    Cells whose threshold lies outside the double range are NaN as well.
    Range endpoints outside the model's parameter domain raise DomainError.
    """
    nk, nd = (resolution, resolution) if isinstance(resolution, int) else resolution
    if nk < 2 or nd < 2:
        raise PreconditionError("grid resolution must be >= 2 per axis")
    if nk * nd > MAX_SURFACE_CELLS:
        raise PreconditionError(f"a {nk} x {nd} grid exceeds {MAX_SURFACE_CELLS} cells")
    for k, delta in zip(k_range, delta_range):
        check_rates(n, beta0, delta, k)
    if not (k_range[0] < k_range[1]) or not (delta_range[0] < delta_range[1]):
        raise PreconditionError("empty parameter range")
    ks = np.linspace(k_range[0], k_range[1], nk)
    ds = np.linspace(delta_range[0], delta_range[1], nd)
    grid = np.full((nk, nd), np.nan)
    for i, k in enumerate(ks):
        for j, d in enumerate(ds):
            try:
                grid[i, j] = hopf_delay(n, beta0, k, d)
            except (NoHopfError, PreconditionError, ConditioningError):
                pass
    return HopfSurface(n=n, beta0=beta0, k=ks, delta=ds, r_hopf=grid)


def load_bautin_table(path=None) -> list[BautinRow]:
    """Tabulated codimension-two points (packaged data unless a path is given).

    A missing column, a non-numeric or non-finite value, parameters outside
    the model's domain, or r <= 0 raises DomainError naming the line.
    """
    packaged = resources.files("cmldde") / "data" / "bautin_points_n2.csv"
    source = packaged if path is None else Path(path)
    reader = csv.DictReader(source.read_text().splitlines())
    columns = [f.name for f in fields(BautinRow)]
    rows = []
    for rec in reader:
        where = f"{source.name} line {reader.line_num}"
        missing = [c for c in columns if rec.get(c) is None]
        if missing:
            raise DomainError(f"{where}: missing column {', '.join(missing)}")
        try:
            values = [float(rec[c]) for c in columns]
            if not all(map(math.isfinite, values)):
                raise DomainError("non-finite value")
            row = BautinRow(*values)
            check_rates(row.n, row.beta0, row.delta, row.k)
            if row.r <= 0.0:
                raise DomainError(f"r must be > 0, got {row.r:g}")
        except ValueError as exc:  # DomainError included
            raise DomainError(f"{where}: {exc}") from None
        rows.append(row)
    return rows


def verify_table(rows: list[BautinRow], rel_tol: float = 1e-4) -> list[TableCheck]:
    """Recompute the critical delay for every row and compare to the tabulated r."""
    if not 0.0 <= rel_tol < math.inf:
        raise PreconditionError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    out = []
    for row in rows:
        r_c = hopf_delay(row.n, row.beta0, row.k, row.delta)
        err = abs(r_c - row.r) / abs(row.r)
        out.append(TableCheck(row=row, r_computed=r_c, rel_err=err, passed=err <= rel_tol))
    return out
