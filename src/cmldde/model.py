"""Core two-compartment delay model: parameters, feedback, right-hand sides.

The resting-cell density y obeys a scalar delay equation driven by a
Hill-type re-entry flux; the proliferating-cell density x is forced linearly
by y and does not feed back. Everything downstream (stability classification,
bifurcation boundaries, simulation) builds on the functions here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConditioningError, DomainError, PreconditionError


def _check_k(k: float) -> None:
    if not (0.0 < k <= 2.0):
        raise DomainError(f"amplification k must be in (0, 2], got {k}")


def check_rates(n: float, beta0: float, delta: float, k: float) -> None:
    """The model's parameter domain apart from the delay: DomainError unless
    n, beta0 and delta are positive and finite and 0 < k <= 2."""
    for name, value in (("n", n), ("beta0", beta0), ("delta", delta)):
        if not (0.0 < value < math.inf):
            raise DomainError(f"{name} must be positive and finite, got {value}")
    _check_k(k)


def gamma_of(k: float, r: float) -> float:
    """Apoptosis rate implied by amplification k and delay r.

    The amplification of one division cycle is k = 2 e^(-gamma r), so
    gamma = ln(2/k)/r. Exactly zero when k = 2.
    """
    _check_k(k)
    if not (0.0 < r < math.inf):
        raise DomainError(f"delay r must be positive and finite, got {r}")
    return math.log(2.0 / k) / r


def hill_pow(y, n: float):
    """y**n for y > 0 and 0 otherwise (NaN too), the RK4 kernel's clamped power;
    a scalar gives a Python float, inf where the power overflows."""
    if np.ndim(y):
        return np.fmax(y, 0.0) ** n
    try:
        return float(y) ** n if y > 0.0 else 0.0
    except OverflowError:
        return math.inf


@dataclass(frozen=True, kw_only=True)
class ModelParams:
    """Validated parameter set of the model.

    gamma is never free: it is derived from (k, r) through k = 2 e^(-gamma r)
    at construction and satisfies the relation to machine precision.
    """

    n: float
    beta0: float
    delta: float
    k: float
    r: float
    gamma: float = field(init=False)

    def __post_init__(self):
        check_rates(self.n, self.beta0, self.delta, self.k)
        object.__setattr__(self, "gamma", gamma_of(self.k, self.r))

    @property
    def renewal_ratio(self) -> float:
        """beta0 (k - 1) / delta; a positive equilibrium exists iff > 1."""
        return self.beta0 * (self.k - 1.0) / self.delta

    @property
    def has_positive_equilibrium(self) -> bool:
        return self.renewal_ratio > 1.0


class EquilibriumKind(Enum):
    TRIVIAL = "trivial"
    POSITIVE = "positive"


@dataclass(frozen=True)
class Equilibrium:
    x_star: float
    y_star: float
    kind: EquilibriumKind


@dataclass(frozen=True)
class LinearizationData:
    """Slope of the feedback flux at the positive equilibrium and derived sums."""

    b1: float
    sum_db1: float  # delta + b1
    k_b1: float  # k * b1


def feedback(y, beta0: float, n: float):
    """Re-entry flux beta0 y / (1 + y^n). Vectorized over y."""
    if np.any(np.asarray(y) < 0.0):
        raise DomainError("feedback requires y >= 0")
    return beta0 * y / (1.0 + hill_pow(y, n))


def rhs_y(y_now, y_delayed, params: ModelParams):
    """Right-hand side of the resting-cell equation."""
    loss = (params.beta0 / (1.0 + hill_pow(y_now, params.n)) + params.delta) * y_now
    return -loss + params.k * feedback(y_delayed, params.beta0, params.n)


def rhs_x(x_now, y_now, y_delayed, params: ModelParams):
    """Right-hand side of the proliferating-cell equation (forced, linear in x)."""
    return -params.gamma * x_now + forcing(y_now, y_delayed, params)


def forcing(y_now, y_delayed, params: ModelParams):
    """The y-dependent forcing of the x equation: feedback(y) - (k/2) feedback(y_delayed)."""
    return feedback(y_now, params.beta0, params.n) - 0.5 * params.k * feedback(
        y_delayed, params.beta0, params.n
    )


def equilibria(params: ModelParams) -> list[Equilibrium]:
    """All equilibria: the trivial one, plus the positive one when it exists.

    The positive branch requires beta0 (k - 1)/delta > 1 (strict); its resting
    level is y2 = (beta0 (k-1)/delta - 1)^(1/n) and the proliferating level is
    x2 = (2 - k)/(2 gamma) * feedback(y2). Raises ConditioningError when y2 or
    x2 lies outside the double range.
    """
    out = [Equilibrium(0.0, 0.0, EquilibriumKind.TRIVIAL)]
    if params.has_positive_equilibrium:
        if params.gamma == 0.0:
            raise PreconditionError(
                "degenerate positive equilibrium: k = 2 gives gamma = 0 and an "
                "undefined proliferating level"
            )
        y2 = hill_pow(params.renewal_ratio - 1.0, 1.0 / params.n)
        x2 = (2.0 - params.k) / (2.0 * params.gamma) * feedback(y2, params.beta0, params.n)
        if not (math.isfinite(y2) and math.isfinite(x2)):
            raise ConditioningError(f"positive equilibrium (x2, y2) = ({x2}, {y2}) is not finite")
        out.append(Equilibrium(x2, y2, EquilibriumKind.POSITIVE))
    return out


def positive_equilibrium(params: ModelParams) -> Equilibrium:
    """The positive equilibrium, or PreconditionError if it does not exist."""
    for eq in equilibria(params):
        if eq.kind is EquilibriumKind.POSITIVE:
            return eq
    raise PreconditionError(
        f"no positive equilibrium: beta0 (k-1)/delta = {params.renewal_ratio:.6g} <= 1"
    )


def b1_value(n: float, beta0: float, k: float, delta: float) -> float:
    """Feedback slope at the positive equilibrium, in closed form.

    b1 = (delta/(k-1)) [n delta / (beta0 (k-1)) - n + 1]; valid whenever the
    positive equilibrium exists; ConditioningError when it is not finite.
    """
    if beta0 * (k - 1.0) / delta <= 1.0:
        raise PreconditionError("b1 is defined only when the positive equilibrium exists")
    b1 = (delta / (k - 1.0)) * (n * delta / (beta0 * (k - 1.0)) - n + 1.0)
    if not math.isfinite(b1):
        raise ConditioningError(f"feedback slope b1 = {b1} is not finite")
    return b1


def b1_coefficient(params: ModelParams) -> LinearizationData:
    """Linearization data at the positive equilibrium; ConditioningError when not finite."""
    b1 = b1_value(params.n, params.beta0, params.k, params.delta)
    lin = LinearizationData(b1=b1, sum_db1=params.delta + b1, k_b1=params.k * b1)
    if not (math.isfinite(lin.sum_db1) and math.isfinite(lin.k_b1)):
        raise ConditioningError(f"delta + b1 = {lin.sum_db1} or k b1 = {lin.k_b1} is not finite")
    return lin
