"""Span tracer for the benchmark's traced runs, installed from outside cmldde.

The tracer wraps the public functions of each layer module at every
module-level binding that refers to them (``integrate_y`` is also bound in
``explorer`` and ``cli``, ``leading_roots`` in ``dde_sim``, and every public
name in the ``cmldde`` package itself), plus the dense-output methods of
``Trajectory``. Each call records a span (name, start, end, parent) and a few
counts in memory; self time is derived from the spans afterwards. A listed
function that no longer exists is reported as absent.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: traced functions per layer module; "Class.method" names a method
LAYERS = {
    "model": ("gamma_of", "hill_pow", "feedback", "rhs_y", "rhs_x", "forcing",
              "equilibria", "positive_equilibrium", "b1_value", "b1_coefficient"),
    "linear_analysis": ("classify_trivial", "omega0", "classify_positive",
                        "characteristic_residual", "leading_roots"),
    "hopf": ("hopf_delay", "hopf_omega", "hopf_point", "surface_grid",
             "load_bautin_table", "verify_table"),
    "dde_sim": ("integrate_y", "eigenmode_history", "derivative_series",
                "Trajectory.value_at", "Trajectory.derivative_at"),
    "_kernels": ("rk4_delay", "exp_scan"),
    "x_solver": ("integrate_x", "forcing_trace", "periodic_response", "periodic_x0",
                 "resample_period", "convergence_check"),
    "explorer": ("classify_orbit", "cycle_estimate", "refine_period", "bistability_scan",
                 "criticality_probe", "zone_classify"),
    # the subcommand bodies stay inside main's self time: parsing and CSV output
    "cli": ("main",),
}


def _out_path(argv):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _requested(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


#: counts taken from a successful call's arguments and result, per span name
COUNTERS = {
    "linear_analysis.leading_roots": lambda a, kw, out: {
        # the sweep warns exactly when it returns fewer roots than requested
        "short": len(out) < _requested(a, kw, 1, "count")},
    "linear_analysis.classify_positive": lambda a, kw, out: {
        "undetermined": out.state.value == "undetermined"},
    "hopf.surface_grid": lambda a, kw, out: {"cells": out.r_hopf.size},
    "dde_sim.integrate_y": lambda a, kw, out: {
        "steps": out.values.size - 1 - out.delay_steps},
    "dde_sim.value_at": lambda a, kw, out: {"points": np.size(_requested(a, kw, 1, "t"))},
    "x_solver.integrate_x": lambda a, kw, out: {"steps": out.values.size - 1},
    "explorer.classify_orbit": lambda a, kw, out: {
        "decisive": out.kind.value != "indeterminate"},
    "cli.main": lambda a, kw, out: {
        "bytes_written": os.path.getsize(p) if (p := _out_path(list(a[0]))) else 0},
}

#: (metric, unit, better) of the traced run, as listed in BENCHMARK.json;
#: "kernels." names the _kernels module (metric names cannot start with "_")
PER_LAYER = (
    ("linear_analysis.leading_roots.calls", "count", "lower"),
    ("linear_analysis.leading_roots.self_s", "s", "lower"),
    ("linear_analysis.leading_roots.short", "count", "lower"),
    ("linear_analysis.classify_positive.calls", "count", "lower"),
    ("linear_analysis.classify_positive.self_s", "s", "lower"),
    ("linear_analysis.undetermined_ratio", "ratio", "lower"),
    ("model.equilibria.calls", "count", "lower"),
    ("model.equilibria.self_s", "s", "lower"),
    ("hopf.hopf_delay.calls", "count", "lower"),
    ("hopf.surface_grid.self_s", "s", "lower"),
    ("hopf.surface_grid.cells", "count", "higher"),
    ("kernels.rk4_delay.self_s", "s", "lower"),
    ("dde_sim.steps", "count", "lower"),
    ("kernels.us_per_step", "us", "lower"),
    ("dde_sim.integrate_y.self_s", "s", "lower"),
    ("dde_sim.eigenmode_history.self_s", "s", "lower"),
    ("dde_sim.value_at.calls", "count", "lower"),
    ("dde_sim.value_at.points", "count", "lower"),
    ("dde_sim.value_at.self_s", "s", "lower"),
    ("x_solver.integrate_x.calls", "count", "lower"),
    ("x_solver.integrate_x.self_s", "s", "lower"),
    ("kernels.exp_scan.self_s", "s", "lower"),
    ("x_solver.steps", "count", "lower"),
    ("explorer.classify_orbit.calls", "count", "lower"),
    ("explorer.classify_orbit.self_s", "s", "lower"),
    ("explorer.criticality_probe.self_s", "s", "lower"),
    ("explorer.steps_per_verdict", "count", "lower"),
    ("explorer.decisive_ratio", "ratio", "higher"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """In-memory spans and counts around the layer functions of cmldde."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.absent = []
        self.active = True
        self._stack = [-1]
        self._patched = []  # (owner, attribute, original) for uninstall

    def call(self, name, fn):
        """Run fn() under a span of its own (the benchmark's operation span)."""
        return self._wrap(name, fn)()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, inc in counter(args, kwargs, out).items():
                    self.counts[f"{name}.{key}"] += inc
            return out

        return traced

    def install(self):
        """Wrap every listed function at each binding in the loaded cmldde modules."""
        self.absent = []
        wrappers = {}  # id of the original function -> its wrapper
        for mod_name, names in LAYERS.items():
            try:
                mod = importlib.import_module(f"cmldde.{mod_name}")
            except ModuleNotFoundError:
                mod = None
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = vars(owner).get(attr) if owner is not None else None
                span = f"{mod_name}.{attr}"
                if fn is None:
                    self.absent.append(span)
                    continue
                wrapper = self._wrap(span, fn)
                if owner_name:
                    self._patch(owner, attr, fn, wrapper)
                else:
                    wrappers[id(fn)] = wrapper
        modules = [m for name, m in sys.modules.items()
                   if name == "cmldde" or name.startswith("cmldde.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patch(mod, attr, val, wrappers[id(val)])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_totals(self):
        """{span name: [calls, self seconds]} from the recorded spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            row = totals[name]
            row[0] += 1
            row[1] += end - start - child[i]
        return dict(totals)

    def metrics(self, batches, overhead_s):
        """PER_LAYER values per traced batch (ratios and rates as measured)."""
        totals = self.layer_totals()
        c = self.counts

        def calls(span):
            return totals.get(span, (0, 0.0))[0]

        def self_s(span):
            return totals.get(span, (0, 0.0))[1]

        steps = c["dde_sim.integrate_y.steps"]
        orbits = calls("explorer.classify_orbit")
        derived = {
            "linear_analysis.leading_roots.short":
                c["linear_analysis.leading_roots.short"] / batches,
            "linear_analysis.undetermined_ratio": _ratio(
                c["linear_analysis.classify_positive.undetermined"],
                calls("linear_analysis.classify_positive")),
            "hopf.surface_grid.cells": c["hopf.surface_grid.cells"] / batches,
            "dde_sim.steps": steps / batches,
            "kernels.us_per_step": 1e6 * _ratio(self_s("_kernels.rk4_delay"), steps),
            "dde_sim.value_at.points": c["dde_sim.value_at.points"] / batches,
            "x_solver.steps": c["x_solver.integrate_x.steps"] / batches,
            "explorer.steps_per_verdict": _ratio(steps, orbits),
            "explorer.decisive_ratio": _ratio(c["explorer.classify_orbit.decisive"], orbits),
            "cli.bytes_written": c["cli.main.bytes_written"] / batches,
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in derived:
                value = derived[name]
            else:
                stem, _, field = name.rpartition(".")
                span = "_" + stem if stem.startswith("kernels.") else stem
                value = (calls(span) if field == "calls" else self_s(span)) / batches
            out[name] = {"value": float(value), "unit": unit}
        return out

    def write(self, path):
        """Dump spans, counts and absent functions as gzipped JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[index[n], start, end, parent] for n, start, end, parent in self.spans],
            "counts": dict(self.counts),
            "absent": self.absent,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
