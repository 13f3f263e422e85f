"""Layered benchmark of coxscreen: one seeded workload in one process.

    python3 perfbench/run.py --workload screen-wide --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the run times ops untraced and reports the end-to-end
metrics; with ``--trace 1`` it alternates traced and untraced ops and reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the machine, the inputs, sample counts and every
output check. The exit code is 0 only when every check passed. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("screen-wide", "screen-tall", "montecarlo")
SETUP_REPEATS = 3
MIN_TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny runs every path and check on small inputs (smoke test)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds():
    """Wall time of a fresh interpreter that imports coxscreen and exits."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import coxscreen"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def machine_info():
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def tail(durations):
    """Highest percentile with at least MIN_TAIL_BEYOND samples above it (or the max)."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - MIN_TAIL_BEYOND - 1], 100.0 * (n - MIN_TAIL_BEYOND) / n


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    if not (SRC / "coxscreen" / "__init__.py").is_file():
        print(f"perfbench: coxscreen sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import coxscreen
    import tracing
    import workloads

    if Path(coxscreen.__file__).resolve().parent != SRC / "coxscreen":
        print(f"perfbench: imported coxscreen from {coxscreen.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, tracing, workdir):
    size = workloads.SIZES[args.size][args.workload]
    workload = workloads.WORKLOADS[args.workload](size, args.seed, workdir)

    import_s = [import_seconds() for _ in range(SETUP_REPEATS)]
    inputs_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.build_inputs()
        inputs_s.append(time.perf_counter() - start)
    setup_s = statistics.median(import_s) + statistics.median(inputs_s)

    # warm-up op: its output is the reference every timed op must reproduce byte for byte
    reference_result = workload.op()
    reference_print = workload.fingerprint(reference_result)
    checks, (fits_ok, fits), inputs = workload.check(reference_result)
    checks_passed = all(ok for ok, _ in checks.values())

    tracer = tracing.Tracer() if args.trace else None
    durations, traced, failures = [], [], []
    window_start = time.perf_counter()
    min_ops = 2 if tracer else 1  # a traced run needs one traced and one untraced op
    while len(durations) < min_ops or time.perf_counter() - window_start < args.seconds:
        op_id = len(durations)
        trace_this = tracer is not None and op_id % 2 == 1
        gc.collect()
        start = time.perf_counter()
        try:
            result = tracer.traced_op(op_id, workload.op) if trace_this else workload.op()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
            result, error = None, f"op {op_id}: {type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = time.perf_counter() - start
        if error is None and workload.fingerprint(result) != reference_print:
            error = f"op {op_id}: output differs from the warm-up op"
        durations.append(elapsed)
        if trace_this:
            traced.append(op_id)
        if error is not None:
            failures.append(error)

    attempted = len(durations)
    failed = attempted if not checks_passed else len(failures)
    if tracer is None:
        tail_s, tail_pct = tail(durations)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s_p50": (statistics.median(durations), "s"),
            "op_s_tail": (tail_s, "s"),
            "work_per_s": (workload.units_per_op * attempted / sum(durations), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
            "fit_ok_share": (fits_ok / fits, "ratio"),
        }
        samples = {"op_s_p50": attempted, "op_s_tail": attempted,
                   "op_s_tail_percentile": tail_pct}
    else:
        totals = tracer.layer_totals()
        per_op = [tracing.op_layer_metrics(totals[i]) for i in traced]
        layer = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
        layer.update(workload.layer_probe())
        untraced = [d for i, d in enumerate(durations) if i not in set(traced)]
        layer["trace.overhead_frac"] = (
            statistics.median(durations[i] for i in traced) / statistics.median(untraced) - 1.0)
        layer["fail_share"] = failed / attempted
        layer["fit_fail_share"] = (fits - fits_ok) / fits
        metrics = {name: (value, tracing.unit(name)) for name, value in layer.items()}
        samples = {"traced_ops": len(traced), "untraced_ops": len(untraced)}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl")

    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "machine": machine_info(), "inputs": inputs, "samples": samples,
        "setup": {"import_s": import_s, "inputs_s": inputs_s},
        "checks": {name: {"passed": ok, "detail": detail} for name, (ok, detail) in checks.items()},
        "op_failures": failures[:5],
    }
    correct = checks_passed and not failures
    print(json.dumps(context))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
