"""The benchmark's three seeded workloads and the checks on their results.

Each workload draws its inputs from the seed once; an operation (op) is one
callable in `ops`, and one pass over all ops is a batch. The runner repeats
the same batch, so every batch does identical work. `check(i, result)` runs
outside the timed region and returns the problems it found in op i's result
(empty when correct). Calls into cmldde go through module attributes at call
time, so a traced run sees them.

- spectrum: linear analysis of random parameter sets; no integration at all.
  `leading_roots` does about 97% of the work, so root-finding or classifier
  changes show here and kernel changes should not.
- ensemble: many short integrations, where per-call costs (history sampling,
  allocation, one root search per run, Trajectory construction) weigh as
  much as the RK4 steps. A change that trades per-call overhead for per-step
  speed moves this workload and onset in opposite directions.
- onset: time to a verdict on one problem: a supercritical-onset probe and
  the README's simulate and x-sim examples through the CLI. A few long
  integrations, with most time in the RK4 kernel.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np

import cmldde as cm
import cmldde.cli  # noqa: F401  (bound here so a traced run can wrap cli.main)
from cmldde.errors import NoHopfError, PreconditionError

# the sweep's "confirmed only k roots" warning is counted by the tracer instead
warnings.filterwarnings("ignore", message="root sweep confirmed only")

#: (n, beta0, k, delta) of the worked supercritical-threshold example
WORKED_EXAMPLE = (12.0, 1.77, 1.18074, 0.05)
R_HOPF = 0.3559114


def draw_params(rng, r_range=(0.1, 20.0)):
    """Keyword arguments of a random ModelParams with a positive equilibrium.

    The distribution and draw order of `sample_params` in tests/conftest.py.
    """
    while True:
        n, beta0, delta, k, r = (rng.uniform(1.0, 12.0), rng.uniform(0.3, 2.5),
                                 rng.uniform(0.002, 0.3), rng.uniform(1.02, 1.98),
                                 rng.uniform(*r_range))
        if beta0 * (k - 1.0) / delta > 1.0:
            return {"n": n, "beta0": beta0, "delta": delta, "k": k, "r": r}


class Spectrum:
    SETS = 200
    RESOLUTION = 60

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.sets = [draw_params(rng) for _ in range(self.SETS)]
        # the README's hopf-surface example, with seeded upper corners
        self.surface = (2.0, 2.5, (1.01, rng.uniform(1.8, 1.98)),
                        (0.001, rng.uniform(0.08, 0.12)), self.RESOLUTION)
        self.ops = [lambda raw=raw: self._set(raw) for raw in self.sets]
        self.ops += [self._tables, lambda: cm.surface_grid(*self.surface)]
        self.stats = {"sets": self.SETS, "surface_cells": self.RESOLUTION ** 2}

    @staticmethod
    def _set(raw):
        p = cm.ModelParams(**raw)
        eqs = cm.equilibria(p)
        cm.classify_trivial(p)
        verdict = cm.classify_positive(p)
        roots = cm.leading_roots(p, 2)
        try:
            cm.hopf_delay(p.n, p.beta0, p.k, p.delta)
            cm.hopf_omega(p.n, p.beta0, p.k, p.delta)
        except NoHopfError:
            pass  # no threshold is an answer, not a failure
        return p, eqs, verdict, roots

    @staticmethod
    def _tables():
        return cm.verify_table(cm.load_bautin_table()), cm.hopf_delay(*WORKED_EXAMPLE)

    def check(self, i, out):
        if i < self.SETS:
            return _check_set(*out)
        if i == self.SETS:
            checks, r_h = out
            problems = [] if len(checks) == 36 and all(c.passed for c in checks) else [
                f"table: {sum(c.passed for c in checks)} of {len(checks)} rows pass"]
            if abs(r_h - R_HOPF) / R_HOPF >= 1e-5:
                problems.append(f"r_H = {r_h!r}, expected {R_HOPF}")
            return problems
        finite = out.r_hopf[np.isfinite(out.r_hopf)]
        if out.r_hopf.shape != (self.RESOLUTION,) * 2 or finite.size == 0 or finite.min() <= 0:
            return [f"surface: shape {out.r_hopf.shape}, {finite.size} finite cells"]
        return []


def _check_set(p, eqs, verdict, roots):
    problems = [] if len(eqs) == 2 else ["positive equilibrium missing"]
    lin = cm.b1_coefficient(p)
    for root in roots:
        lam = root.value
        scale = abs(lam) + abs(lin.sum_db1) + abs(lin.k_b1 * cmath.exp(-lam * p.r))
        res = cm.characteristic_residual(p, lam)
        if not res <= 1e-10 * scale:
            problems.append(f"root {lam}: residual {res:.3g} over scale {scale:.3g}")
    if roots:
        top = roots[0].re
        state = verdict.state
        if state is cm.StabilityState.ASYMPTOTICALLY_STABLE and not top < -1e-9:
            problems.append(f"stable verdict with Re lambda0 = {top:.3g}")
        if state is cm.StabilityState.UNSTABLE and not top > 1e-9:
            problems.append(f"unstable verdict with Re lambda0 = {top:.3g}")
    return problems


class Ensemble:
    SETS = 100
    DELAYS = 40  # integration span per set, in delays
    STEPS_PER_DELAY = 32
    ORACLE_DELAYS = 2  # prefix compared against the DOP853 reference
    ORACLE_FLOOR = 1e-8  # oracle accuracy, relative to 1 + |y|
    ORACLE_SLACK = 2.0  # allowed error over RK4's own estimate (about 1.07 asymptotically)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        params = [draw_params(rng, r_range=(0.2, 10.0)) for _ in range(self.SETS)]
        # eigenmode amplitude and constant level, both relative to y*
        self.sets = [(raw, rng.uniform(0.02, 0.1), rng.uniform(0.5, 2.0)) for raw in params]
        self.ops = [lambda s=s: self._set(*s) for s in self.sets]
        self.stats = {"sets": self.SETS, "real_leading_root": 0}
        self._seen = set()  # ops checked once already

    def _set(self, raw, c_rel, level_rel):
        p = cm.ModelParams(**raw)
        eq = cm.positive_equilibrium(p)
        try:
            hist = cm.eigenmode_history(p, c_rel * eq.y_star)
        except PreconditionError:  # real leading root: the eigenmode family is undefined
            hist = cm.ConstantHistory(level_rel * eq.y_star)
        t_end = self.DELAYS * p.r
        y = cm.integrate_y(p, hist, t_end, dt=p.r / self.STEPS_PER_DELAY)
        x = cm.integrate_x(p, y, eq.x_star)
        orbit = cm.classify_orbit(y, eq.y_star, t_end)
        return p, eq, hist, y, x, orbit

    def check(self, i, out):
        p, eq, hist, y, x, _ = out
        problems = []
        if i not in self._seen:
            self._seen.add(i)
            self.stats["real_leading_root"] += isinstance(hist, cm.ConstantHistory)
            if i == 0:
                problems += self._oracle(p, hist, y)
        if y.values.min() < -1e-9:
            problems.append(f"min y = {y.values.min():.3g}")
        # x(t; a) - x(t; b) = (a - b) e^(-gamma t) for any y trajectory
        xb = cm.integrate_x(p, y, eq.x_star + 1.0)
        dev = np.abs(x.values - xb.values + np.exp(-p.gamma * x.times)).max()
        if not dev <= 1e-10:
            problems.append(f"contraction identity off by {dev:.3g}")
        return problems

    def _oracle(self, p, hist, y):
        """The trajectory matches DOP853 on a prefix within RK4's own error estimate.

        The estimate is the distance to the same run at dt/2, which for a
        fourth-order method is about 15/16 of the error at dt; a wrong
        solution agrees with itself but not with the oracle.
        """
        tests = Path(__file__).resolve().parent.parent / "tests"
        sys.path.insert(0, str(tests))
        try:
            from _oracles import dde_reference
        finally:
            sys.path.remove(str(tests))
        span = self.ORACLE_DELAYS * p.r
        ref = dde_reference(p, hist, span)
        t, v = y.window(0.0, span)
        fine = cm.integrate_y(p, hist, span, dt=0.5 * y.dt)
        scale = 1.0 + np.abs(v)
        error = float(np.max(np.abs([ref(float(ti)) for ti in t] - v) / scale))
        estimate = float(np.max(np.abs(fine.value_at(t) - v) / scale))
        if error <= self.ORACLE_SLACK * estimate + self.ORACLE_FLOOR:
            return []
        return [f"DOP853 oracle: error {error:.3g}, RK4 estimate {estimate:.3g}"]


class Onset:
    OFFSETS = (-0.01, 0.004, 0.008, 0.012)  # around r_H, scaled by a seeded factor
    HORIZON = 400.0
    CLI_R = 0.36
    CLI_DELAYS = 625  # t_end = 225
    CLI_STEPS_PER_DELAY = 64  # the CLI's default dt = r/64
    CLI_STRIDE = 8

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.9, 1.1)
        self.offsets = [o * scale for o in self.OFFSETS]
        level = rng.uniform(1.1, 1.2)  # constant history near y* = 1.151
        n, beta0, k, delta = WORKED_EXAMPLE
        args = ["--n", repr(n), "--beta0", repr(beta0), "--delta", repr(delta),
                "--k", repr(k), "--r", repr(self.CLI_R), "--level", repr(level),
                "--t-end", repr(self.CLI_DELAYS * self.CLI_R),
                "--stride", str(self.CLI_STRIDE)]
        self.y_csv, self.x_csv = workdir / "y.csv", workdir / "x.csv"
        self.commands = (["simulate", *args, "--out", str(self.y_csv)],
                         ["x-sim", *args, "--out", str(self.x_csv)])
        self.ops = [self._verdict]
        self.stats = {"offsets": self.offsets, "level": level}
        self._digest = None

    def _verdict(self):
        report = cm.criticality_probe(*WORKED_EXAMPLE, self.offsets, self.HORIZON)
        codes = [cm.cli.main(argv) for argv in self.commands]
        return report, codes

    def check(self, i, out):
        report, codes = out
        problems = []
        if not (report.verdict is cm.Criticality.SUPERCRITICAL
                and report.r_squared >= 0.9 and report.slope > 0.0):
            problems.append(f"verdict {report.verdict.value}, R^2 {report.r_squared}, "
                            f"slope {report.slope}")
        if codes != [0, 0]:
            return problems + [f"CLI exit codes {codes}"]
        steps = self.CLI_DELAYS * self.CLI_STEPS_PER_DELAY
        digest = hashlib.sha256()
        for path, nodes in ((self.y_csv, self.CLI_STEPS_PER_DELAY + steps + 1),
                            (self.x_csv, steps + 1)):
            data = path.read_bytes()
            digest.update(data)
            rows = data.count(b"\n") - 1
            if rows != math.ceil(nodes / self.CLI_STRIDE):
                problems.append(f"{path.name}: {rows} rows, expected "
                                f"{math.ceil(nodes / self.CLI_STRIDE)}")
        if self._digest is None:
            self._digest = digest.hexdigest()
        elif digest.hexdigest() != self._digest:
            problems.append("CSV output differs from the first batch")
        return problems


WORKLOADS = {"spectrum": Spectrum, "ensemble": Ensemble, "onset": Onset}
