"""cmldde benchmark: one seeded workload per run, every result checked.

    python3 bench/run.py --workload spectrum|ensemble|onset --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One client runs the workload's batch of operations closed-loop
(each op starts when the previous one ends) for at least S seconds of
measured time, checks every result outside the timed region, and prints a
summary followed, on the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time of a
fresh interpreter, batch wall time, per-op latency, peak memory. --trace 1
alternates untraced batches with batches under the span tracer, and reports
the per-layer metrics plus the tracing overhead. Results, metadata
and spans are also written to bench/out/.

Seeds: 8 is the development seed (29 of its first 60 ensemble sets have a
real leading root); confirm a later claim on seed 1403 as well, which was not used
while writing this benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEV_SEED = 8
SETUP_REPEATS = 4
MIN_BATCHES = 3  # untraced run: wall_s averages at least 3 batches
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_CODE = "import cmldde; from cmldde import _kernels; _kernels.warmup()"

NPROC = len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Limit BLAS threads to the core count; must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= NPROC:
            os.environ[var] = str(NPROC)


def time_setup():
    """Seconds for one fresh interpreter to import cmldde and warm up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_batch(workload, tracer=None):
    """Run every op once, then check the results with the tracer paused.

    Returns (wall seconds, op latencies, failed ops, problems).
    """
    results, latencies = [], []
    batch_start = time.perf_counter()
    for op in workload.ops:
        start = time.perf_counter()
        try:
            out = op() if tracer is None else tracer.call("bench.op", op)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        latencies.append(time.perf_counter() - start)
        results.append(out)
    wall = time.perf_counter() - batch_start
    if tracer is not None:
        tracer.active = False
    problems = []
    for i, out in enumerate(results):
        found = ([f"{type(out).__name__}: {out}"] if isinstance(out, Exception)
                 else workload.check(i, out))
        if found:
            problems.append(f"op {i}: " + "; ".join(found))
    if tracer is not None:
        tracer.active = True
    return wall, latencies, len(problems), problems


def tail_percentile(samples):
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if samples * (100.0 - pct) >= 1000.0 - 1e-9:
            return pct
    return 100.0  # too few samples for any percentile: report the maximum


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def metadata(args):
    import numpy
    import scipy

    from cmldde import _kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": "numba" if _kernels.USING_NUMBA else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("spectrum", "ensemble", "onset"))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cmldde" / "__init__.py").is_file():
        print(f"error: no cmldde sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import tracing
    import workloads

    meta = metadata(args)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if len(workload.ops) > 1:
            workload.ops[0]()  # warm-up, untimed
        walls, traced, latencies, failed, problems, setups = [], [], [], 0, [], []
        tracer = tracing.Tracer() if args.trace else None
        # untraced and traced batches alternate, so drift cannot pose as overhead
        min_batches = 1 if tracer else MIN_BATCHES
        # start another round only while half a round's time is left, so a
        # run measures close to --seconds
        while len(walls) < min_batches or (
                (sum(walls) + sum(traced)) * (1.0 + 0.5 / len(walls)) < args.seconds):
            # set-up samples are spread over the run, between batches, so
            # that their median spans the host's phases like wall_s does
            share = (sum(walls) + sum(traced)) / args.seconds
            if tracer is None and len(setups) <= (SETUP_REPEATS - 1) * share:
                setups.append(time_setup())
            wall, lat, bad, found = run_batch(workload)
            walls.append(wall)
            latencies.append(lat)
            failed += bad
            problems += found
            if tracer is not None:
                tracer.install()
                try:
                    wall, _, bad, found = run_batch(workload, tracer)
                finally:
                    tracer.uninstall()
                traced.append(wall)
                failed += bad
                problems += found
        attempted = (len(walls) + len(traced)) * len(workload.ops)
        if tracer is None:
            setups += [time_setup() for _ in range(SETUP_REPEATS - len(setups))]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # each op's latency is its mean over the repeated batches, which
            # evens out the host's slow and fast phases; the percentiles are
            # taken over the ops of the batch
            op_ms = 1e3 * np.mean(latencies, axis=0)
            pct = tail_percentile(op_ms.size)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                # the host's speed drifts in phases of tens of seconds; a
                # median of batch times picks whichever phase held most of the
                # run, the mean weights each phase by how long it lasted
                "wall_s": (statistics.fmean(walls), "s"),
                "op_p50_ms": (float(np.percentile(op_ms, 50)), "ms"),
                "op_tail_ms": (float(np.percentile(op_ms, pct)), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            meta.update(tail_percentile=pct, tail_samples=op_ms.size,
                        tail_beyond=round(op_ms.size * (100.0 - pct) / 100.0, 2))
        else:
            overhead = statistics.fmean(traced) - statistics.fmean(walls)
            metrics = tracer.metrics(len(traced), overhead)
            busy = sum(traced)
            meta.update(traced_batches=len(traced), absent=tracer.absent, layer_share={
                name: row[1] / busy
                for name, row in sorted(tracer.layer_totals().items(),
                                        key=lambda kv: -kv[1][1])})
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta.update(batches=len(walls), ops_per_batch=len(workload.ops),
                fail_frac=failed / attempted, problems=problems[:20], **workload.stats)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"meta": meta, "result": result}, indent=2) + "\n")

    for line in problems[:20]:
        print("FAILED " + line, file=sys.stderr)
    print("meta " + json.dumps(meta))
    print(f"{args.workload} fail_frac {meta['fail_frac']:.4g} ({failed}/{attempted} ops)")
    for key, m in metrics.items():
        print(f"{args.workload} {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
