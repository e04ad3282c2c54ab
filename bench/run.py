#!/usr/bin/env python3
"""nlqsim benchmark: seeded task lists run through the public API, each
result checked against an independent reference.

    python3 bench/run.py --workload {qubit,search,orient} --seed N --seconds S --trace {0,1}

Load is a closed loop: one process, one client, one BLAS/OpenMP thread;
each task starts when the previous one returns.  Set-up (import, input
generation, a warm-up on the short task list) is timed on its own.  Then
whole passes over the task list run for about ``--seconds``.  Times are
reported in reference seconds, rescaled by a calibration kernel run
between tasks (see speed.py); the raw seconds are printed too.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
traced ones.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
WARMUP_SEED = 0
GAUGE_KERNELS = 5  # calibration kernels on each side of an import probe
IMPORT_PROBE = "import time; t = time.perf_counter(); import nlqsim; print(time.perf_counter() - t)"


def declared_units():
    """Each metric's unit, as BENCHMARK.json at the checkout's root declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def load_program():
    """Import nlqsim from this checkout's src/, or exit non-zero if it is not there."""
    if not (SRC / "nlqsim" / "__init__.py").is_file():
        sys.exit(f"bench: no nlqsim package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nlqsim
    if Path(nlqsim.__file__).resolve().parent != SRC / "nlqsim":
        sys.exit(f"bench: imported nlqsim from {nlqsim.__file__}, not from {SRC}")


def import_seconds():
    """Time to import nlqsim in a fresh interpreter, in reference seconds:
    the raw time over the median of the GAUGE_KERNELS kernels run on each
    side of it (one kernel on each side is too few to gauge 0.7 s)."""
    import speed
    kernels = [speed.kernel_seconds() for _ in range(GAUGE_KERNELS)]
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    kernels += [speed.kernel_seconds() for _ in range(GAUGE_KERNELS)]
    return float(out.stdout.split()[-1]) * speed.REF_S / statistics.median(kernels)


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_pass(tasks, tracer=None):
    """One closed-loop pass: (results, raw seconds per task, reference-second
    factor per task)."""
    import execute
    import speed
    ctx, results, lat = {}, [], []
    kernels = [speed.kernel_seconds()]
    for i, task in enumerate(tasks):
        t0 = perf_counter()
        if tracer is None:
            results.append(execute.run_task(task, ctx))
        else:
            results.append(tracer.span(i, execute.run_task, task, ctx))
        lat.append(perf_counter() - t0)
        kernels.append(speed.kernel_seconds())
    return results, lat, speed.factors(kernels)


def ref_seconds(run):
    """A pass's time to finish every task, in reference seconds."""
    return sum(t * f for t, f in zip(run[1], run[2]))


def same(a, b):
    """Bit-identical results (NaN equal to NaN)."""
    import numpy as np
    if a.keys() != b.keys():
        return False
    for k in a:
        x, y = a[k], b[k]
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(x, y, equal_nan=True):
                return False
        elif not (x == y or (x != x and y != y)):
            return False
    return True


def set_up(workload, seed, smoke):
    """Import, generate the inputs and warm up on the short task list,
    SETUP_REPEATS times; the median, in reference seconds.  Each part is
    rescaled by the kernels nearest to it.  The warm-up list is that of
    WARMUP_SEED, so that set-up time does not move with ``seed``."""
    import speed
    import workloads
    times = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        k0 = speed.kernel_seconds()
        t0 = perf_counter()
        tasks = workloads.build(workload, seed, smoke=smoke)
        short = workloads.build(workload, WARMUP_SEED, smoke=True)
        built = (perf_counter() - t0) * speed.factors([k0, speed.kernel_seconds()])[0]
        times.append(imported + built + ref_seconds(run_pass(short)))
    return tasks, statistics.median(times)


def measure(tasks, seconds, trace):
    """Whole passes for about ``seconds`` (at least one of each kind): a pass
    starts while it is expected to end no later than half a pass after the
    deadline."""
    import tracing
    tracer = tracing.Tracer() if trace else None
    plain, traced = [], []
    deadline = perf_counter() + seconds
    last = 0.0
    while not plain or (trace and not traced) or perf_counter() + 0.5 * last < deadline:
        t0 = perf_counter()
        if trace and len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                res, lat, scale = run_pass(tasks, tracer)
            finally:
                tracer.uninstall()
            traced.append((res, lat, scale, tracer.counts.copy(), tracer.summary(scale)))
        else:
            plain.append(run_pass(tasks))
        last = perf_counter() - t0
    return plain, traced, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("qubit", "search", "orient"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="measure the short task list (for the benchmark's own tests)")
    args = ap.parse_args(argv)

    load_program()
    units = declared_units()
    import numpy as np
    import oracles
    import tracing

    tasks, setup_s = set_up(args.workload, args.seed, args.smoke)
    plain, traced, tracer = measure(tasks, args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = [oracles.reference(t) for t in tasks]
    results = plain[0][0]
    checks = oracles.verify(tasks, results, refs)
    failed = [(t, reason) for t, (ok, _, reason) in zip(tasks, checks) if not ok]
    repeatable = all(same(a, b) for run in plain[1:] + traced for a, b in zip(results, run[0]))
    n_passes = len(plain) + len(traced)

    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed}: {len(tasks)} tasks per pass, "
          f"{len(plain)} untraced + {len(traced)} traced passes, "
          f"{len(failed)} tasks per pass fail their check")
    for cls, n in sorted(Counter(t.cls for t, _ in failed).items()):
        print(f"  failed {n:3d} x {cls}")
    for t, reason in failed[:10]:
        print(f"  FAILED {t.cls} {t.params}: {reason}")

    if args.trace:
        metrics = [tracing.layer_metrics(c, sm, tasks, results, checks)
                   for _, _, _, c, sm in traced]
        repeatable = repeatable and all(c == traced[0][3] for _, _, _, c, _ in traced)
        values = {k: (statistics.median(m[k] for m in metrics) if units[k] == "s"
                      else metrics[0][k]) for k in metrics[0]}
        values["trace.overhead_frac"] = (statistics.median(map(ref_seconds, traced))
                                         / statistics.median(map(ref_seconds, plain)) - 1.0)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
    else:
        lat_ms = np.array([t * f for _, lat, scale in plain
                           for t, f in zip(lat, scale)]) * 1e3
        raw_ms = np.array([t for _, lat, _ in plain for t in lat]) * 1e3
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(map(ref_seconds, plain)),
            "task_p50_ms": float(np.percentile(lat_ms, 50)),
            "task_p90_ms": float(np.percentile(lat_ms, 90)),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"  {len(lat_ms)} task latency samples; per pass, reference seconds "
              + " ".join(f"{ref_seconds(run):.3f}" for run in plain) + " and raw seconds "
              + " ".join(f"{sum(run[1]):.3f}" for run in plain))
        print(f"  raw task latency p50 {np.percentile(raw_ms, 50):.3f} ms, "
              f"p90 {np.percentile(raw_ms, 90):.3f} ms")
    if not repeatable:
        print("  results or counts differ between passes")
    out = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for k, v in out.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": bool(repeatable and not failed),
                      "attempted": len(tasks) * n_passes,
                      "failed": len(failed) * n_passes, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
