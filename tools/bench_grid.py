"""Time coxscreen's layers one at a time, in-process, on fixed seeds, and each CLI subcommand.

Usage:

    PYTHONPATH=src python tools/bench_grid.py --out BENCH_<n>.json [--size tiny]

Each layer is called once to warm up, then timed over a fixed number of
repeats, each of enough calls to fill a minimum time. The JSON file gives,
per layer, the median and interquartile range of the seconds per call, the
unit of work, the units per call, the seconds per unit and the minor page
faults per call over the timed repeats (from ``getrusage``). It also gives the
tracemalloc peak of one censoring calibration, one ``gen_replicate``, one
``read_csv``, the first ``screen`` of a dataset at q=1, one
``result_to_json`` and one ``signal_strengths_to_csv``, in bytes and in
arrays of the batch or design size (of the written file, for the JSON
writer), and the host facts that ``perfbench/run.py`` records. ``--size
tiny`` runs every layer on small inputs, for a smoke test.

The layers are the Breslow likelihood and its score and information, one
``cox.fit``, the conditional sweep (``screening.screen``) over a grid of n,
p and q, IPW weights, CORS, CRIS, calibration, ``gen_replicate``, the
diagnose pass (``diagnostics.signal_strengths_to_csv``) and one
``benchmark.run_replicate`` with all seven methods. Under ``cli``, each
subcommand (``simulate``, ``calibrate``, ``screen``, ``diagnose`` and
``benchmark``) runs the same number of repeats as a fresh
``python -m coxscreen.cli`` process on the replicate size, with the median
and interquartile range of its wall seconds and the medians of its peak
resident memory and of its minor page faults, which ``os.wait4`` reports.
Page faults show where the allocator maps fresh memory, which can move a
timing as much as the arithmetic does. Absolute times move with the
host's load, so compare two checkouts by running the script against each
``src`` on the same machine, one after the other.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # one BLAS thread, as perfbench/run.py pins it; set before numpy loads
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

import coxscreen  # noqa: E402
from coxscreen import baselines, benchmark, cox, data, diagnostics, screening, simulate  # noqa: E402
from coxscreen.data import ConditioningSet  # noqa: E402

SEED = 16
# n and p of each layer's input, "sweep" being the grid of screening.screen calls,
# and the timing: `repeats` repeats of enough calls to fill `min_repeat_s` each
SIZES = {
    "full": {
        "repeats": 7,
        "min_repeat_s": 0.05,
        "kernel": (400, 1000),
        "sweep": {"n": (100, 400), "p": (1000, 10000), "q": (0, 1, 3)},
        "baselines": (400, 1000),
        "calibrate": 2000,
        "replicate": (100, 1000),
    },
    "tiny": {
        "repeats": 3,
        "min_repeat_s": 0.0,
        "kernel": (40, 10),
        "sweep": {"n": (20, 40), "p": (10, 20), "q": (0, 1, 3)},
        "baselines": (40, 10),
        "calibrate": 20,
        "replicate": (20, 10),
    },
}


def _dataset(n, p, replicate_id=0):
    """An example-1 replicate (hidden variable at 6) censored at 20%."""
    config = simulate.with_censor_upper(simulate.example_config(1, n=n, p=p, seed=SEED))
    return simulate.gen_replicate(config, replicate_id).dataset


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _time(call, repeats, min_repeat_s):
    """Seconds per call: one warm-up call, then `repeats` timed repeats of `number` calls.

    Also returns the minor page faults per call over the timed repeats.
    """
    call()
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            call()
        elapsed = time.perf_counter() - start
        if elapsed >= min_repeat_s or number >= 1 << 16:
            break
        number *= 2
    per_call = []
    faults = _minor_faults()
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        for _ in range(number):
            call()
        per_call.append((time.perf_counter() - start) / number)
    faults = (_minor_faults() - faults) / (repeats * number)
    q1, _, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    return statistics.median(per_call), q3 - q1, number, faults


def _replicate_config(spec):
    n, p = spec["replicate"]
    return simulate.with_censor_upper(simulate.example_config(1, n=n, p=p, seed=SEED))


def _calibration_config(spec):
    return simulate.example_config(1, n=spec["calibrate"], p=1000, seed=SEED)


def _traced_peak(call, params, array, array_bytes):
    """tracemalloc peak of one call after a warm-up call, in bytes and in arrays of array_bytes."""
    call()  # lazy set-up stays out of the peak
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"params": params, "array": array, "array_bytes": array_bytes,
            "traced_peak_bytes": peak, "arrays": peak / array_bytes}


def layer_calls(size, workdir):
    """(name, parameters, unit, units per call, call) for every timed layer."""
    spec = SIZES[size]
    n, p = spec["kernel"]
    ds = _dataset(n, p)
    events = int(ds.status.sum())
    cols, beta = (1, 2), np.array([0.5, -0.5])
    kernel = {"n": n, "p": p, "d": len(cols)}
    yield ("cox.log_partial_likelihood", kernel, "events", events,
           lambda: cox.log_partial_likelihood(ds, cols, beta))
    yield ("cox.score_and_information", kernel, "events", events,
           lambda: cox.score_and_information(ds, cols, beta))
    yield "cox.fit", kernel, "events", events, lambda: cox.fit(ds, cols)

    sweep = spec["sweep"]
    for n in sweep["n"]:
        for p in sweep["p"]:
            ds_np = _dataset(n, p)
            for q in sweep["q"]:
                cond = ConditioningSet(tuple(range(1, q + 1)))
                yield (f"screening.screen[n={n},p={p},q={q}]", {"n": n, "p": p, "q": q}, "candidates",
                       p - q, lambda ds_np=ds_np, cond=cond: screening.screen(ds_np, cond))

    n, p = spec["baselines"]
    ds = _dataset(n, p)
    yield "baselines.ipw_weights", {"n": n}, "rows", n, lambda: baselines.ipw_weights(ds)
    yield "baselines.cors", {"n": n, "p": p}, "candidates", p, lambda: baselines.cors(ds)
    yield "baselines.cris", {"n": n, "p": p}, "candidates", p, lambda: baselines.cris(ds)

    out = Path(workdir) / "signal.csv"
    cond = ConditioningSet((1,))
    yield ("diagnostics.signal_strengths_to_csv", {"n": n, "p": p, "q": 1}, "candidates", p - 1,
           lambda: diagnostics.signal_strengths_to_csv(ds, cond, out))

    calibrate = _calibration_config(spec)
    yield ("simulate.calibrate_censoring", {"n": calibrate.n}, "subjects", 200 * calibrate.n,
           lambda: simulate.calibrate_censoring(calibrate))

    rep = _replicate_config(spec)
    yield ("simulate.gen_replicate", {"n": rep.n, "p": rep.p}, "covariate draws", rep.n * rep.p,
           lambda: simulate.gen_replicate(rep, 1))
    job = (rep, 1, benchmark.ALL_METHODS, ConditioningSet((1,)))
    yield ("benchmark.run_replicate", {"n": rep.n, "p": rep.p, "methods": len(job[2])},
           "replicates", 1, lambda: benchmark.run_replicate(job))


def memory(size, workdir):
    """tracemalloc peaks of one calibration, one replicate and each step of the screen path."""
    spec = SIZES[size]
    calibrate, rep = _calibration_config(spec), _replicate_config(spec)
    n, p = spec["replicate"]
    ds, cond = _dataset(n, p), ConditioningSet((1,))
    csv_path, json_path = Path(workdir) / "memory.csv", Path(workdir) / "memory.json"
    data.write_csv(ds, csv_path)
    result = screening.screen(ds, cond)
    screening.result_to_json(result, json_path)

    def fresh_screen():
        ds._sorted_cache = None  # the call builds the sorted view, as the first screen of a dataset does
        return screening.screen(ds, cond)

    design = {"n": n, "p": p}
    signal_path = Path(workdir) / "memory-signal.csv"
    return {
        "simulate.calibrate_censoring": _traced_peak(
            lambda: simulate.calibrate_censoring(calibrate),
            {"n": calibrate.n}, "200 n floats", 200 * calibrate.n * 8),
        "simulate.gen_replicate": _traced_peak(
            lambda: simulate.gen_replicate(rep, 1), {"n": rep.n, "p": rep.p}, "n p floats", rep.n * rep.p * 8),
        "data.read_csv": _traced_peak(lambda: data.read_csv(csv_path), design, "n p floats", n * p * 8),
        "screening.screen": _traced_peak(fresh_screen, {**design, "q": 1}, "n p floats", n * p * 8),
        "screening.result_to_json": _traced_peak(
            lambda: screening.result_to_json(result, json_path), {**design, "q": 1}, "file bytes",
            json_path.stat().st_size),
        "diagnostics.signal_strengths_to_csv": _traced_peak(
            lambda: diagnostics.signal_strengths_to_csv(ds, cond, signal_path), {**design, "q": 1},
            "n p floats", n * p * 8),
    }


def cli_calls(size, workdir):
    """(name, parameters, argv) of one call of each CLI subcommand, run in workdir on the replicate size."""
    n, p = SIZES[size]["replicate"]
    data.write_csv(_dataset(n, p), Path(workdir) / "cli.csv")
    design = ["--example", "1", "--n", str(n), "--p", str(p), "--seed", str(SEED)]
    inputs = ["--input", "cli.csv", "--conditioning", "1"]
    params = {"n": n, "p": p}
    return [
        ("simulate", params, ["simulate", *design, "--out", "cli-simulate.csv"]),
        ("calibrate", params, ["calibrate", *design, "--target", "0.2"]),
        ("screen", {**params, "q": 1}, ["screen", *inputs, "--stats", "mple,wald,plik", "--format", "json",
                                        "--out", "cli-screen.json"]),
        ("diagnose", {**params, "q": 1}, ["diagnose", *inputs, "--out", "cli-diagnose.csv"]),
        ("benchmark", {**params, "replicates": 1, "methods": len(benchmark.ALL_METHODS)},
         ["benchmark", *design, "--replicates", "1", "--out", "cli-benchmark.csv"]),
    ]


# A fresh interpreter spawns the CLI and prints its wall seconds, exit code, peak RSS (Linux:
# kilobytes) and minor page faults. The CLI is not spawned from this process, as a child's peak
# RSS counts the memory of the process it was forked from.
_SPAWN = """
import os, sys, time
start = time.perf_counter()
null = os.open(os.devnull, os.O_WRONLY)
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "coxscreen.cli", *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_DUP2, null, 1), (os.POSIX_SPAWN_DUP2, null, 2)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)
"""


def _run_cli(argv, workdir, env):
    """Wall seconds, peak resident MB and minor page faults of one ``python -m coxscreen.cli`` process."""
    out = subprocess.run([sys.executable, "-c", _SPAWN, *argv], cwd=workdir, env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    seconds, code, kilobytes, faults = float(out[0]), int(out[1]), int(out[2]), int(out[3])
    if code:
        raise RuntimeError(f"coxscreen {' '.join(argv)} exited with {code}")
    return seconds, kilobytes / 1024, faults


def time_cli(size, workdir):
    """Every CLI subcommand as a fresh process on this checkout's coxscreen, `repeats` times each."""
    repeats = SIZES[size]["repeats"]
    src = str(Path(coxscreen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.update({var: "1" for var in THREAD_VARS})
    report = {}
    for name, params, argv in cli_calls(size, workdir):
        runs = [_run_cli(argv, workdir, env) for _ in range(repeats)]
        seconds = [s for s, _, _ in runs]
        q1, _, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
        report[name] = {"params": params, "argv": argv, "repeats": repeats, "median_s": statistics.median(seconds),
                        "iqr_s": q3 - q1, "peak_rss_mb": statistics.median(mb for _, mb, _ in runs),
                        "minor_faults": statistics.median(faults for _, _, faults in runs)}
    return report


def machine_info():
    """The host facts perfbench/run.py records; scipy only where it imports."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    info = {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": np.__version__}
    try:
        import scipy
    except ImportError:
        pass
    else:
        info["scipy"] = scipy.__version__
    info["threads"] = {var: os.environ.get(var) for var in THREAD_VARS}
    return info


def run_grid(size="full"):
    repeats, min_repeat_s = SIZES[size]["repeats"], SIZES[size]["min_repeat_s"]
    layers = {}
    with tempfile.TemporaryDirectory(prefix="bench_grid_") as workdir:
        for name, params, unit, units, call in layer_calls(size, workdir):
            median, iqr, number, faults = _time(call, repeats, min_repeat_s)
            layers[name] = {"params": params, "unit": unit, "units_per_call": units,
                            "calls_per_repeat": number, "repeats": repeats,
                            "median_s": median, "iqr_s": iqr, "s_per_unit": median / units,
                            "minor_faults_per_call": faults}
        peaks = memory(size, workdir)
        cli = time_cli(size, workdir)
    return {"size": size, "seed": SEED, "machine": machine_info(), "layers": layers, "memory": peaks, "cli": cli}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--size", default="full", choices=tuple(SIZES))
    args = parser.parse_args(argv)
    grid = run_grid(args.size)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(grid, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, layer in grid["layers"].items():
        print(f"{name}: {layer['median_s'] * 1e3:.3f} ms (IQR {layer['iqr_s'] * 1e3:.3f}), "
              f"{layer['s_per_unit'] * 1e6:.3f} us per {layer['unit'].rstrip('s')}, "
              f"{layer['minor_faults_per_call']:.0f} minor faults per call")
    for name, peak in grid["memory"].items():
        print(f"{name}: traced peak {peak['traced_peak_bytes'] / 2**20:.2f} MB, "
              f"{peak['arrays']:.2f} x {peak['array']}")
    for name, run in grid["cli"].items():
        print(f"coxscreen {name}: {run['median_s']:.3f} s (IQR {run['iqr_s']:.3f}), "
              f"peak RSS {run['peak_rss_mb']:.1f} MB, {run['minor_faults']:.0f} minor faults")
    return 0


if __name__ == "__main__":
    sys.exit(main())
