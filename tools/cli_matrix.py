"""Run a fixed, seeded matrix of coxscreen CLI calls and keep every output.

Usage:

    PYTHONPATH=src python tools/cli_matrix.py OUTDIR

Every call runs in-process through ``coxscreen.cli.main`` with OUTDIR as the
working directory, so all paths in the outputs are relative. Each call NAME
leaves the files it writes (named after NAME) and ``NAME.log``, which holds
its exit code, stdout and stderr. The script prints one ``NAME exit=CODE``
line per call. The CLI keeps its parsed inputs in ``OUTDIR/.coxscreen-cache``,
so the first call on an input parses it and later ones load the parse;
``NAME-warm`` repeats a call on the tied input with only ``--out`` changed.

To check that a change leaves the CLI output byte for byte the same, run the
script once against each checkout's ``src`` and compare the two directories:

    PYTHONPATH=../parent/src python tools/cli_matrix.py /tmp/before
    PYTHONPATH=src python tools/cli_matrix.py /tmp/after
    diff -r -x .coxscreen-cache /tmp/before /tmp/after
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import numpy as np

from coxscreen.cli import main
from coxscreen.data import SurvivalDataset, write_csv, write_rows
from coxscreen.simulate import config_to_kv, example_config

SEED = "7"
SIZE = ["--n", "60", "--p", "12"]


def tied_dataset():
    """Times rounded to one decimal, a constant column and a column ordered with time."""
    rng = np.random.default_rng(20261018)
    n = 60
    z = rng.normal(size=(n, 6))
    t = np.round(-np.log(rng.uniform(size=n)) / np.exp(z[:, 0] - 0.5 * z[:, 1]), 1)
    c = np.round(rng.uniform(0.0, 3.0, size=n), 1)
    status = (t <= c).astype(int)
    status[int(np.argmin(t))] = 1
    time = np.minimum(t, c)
    z[:, 4] = 3.7
    z[:, 5] = -time
    return SurvivalDataset(time, status, z)


def small_dataset():
    """Three covariates, so that C = {1, 2, 3} leaves no candidate."""
    rng = np.random.default_rng(3)
    return SurvivalDataset(rng.exponential(size=40), np.ones(40), rng.normal(size=(40, 3)))


def quoted_dataset():
    """Covariate names that CSV must quote (a comma, double quotes) and one non-ASCII name."""
    rng = np.random.default_rng(11)
    z = rng.normal(size=(50, 4))
    t = rng.exponential(size=50) / np.exp(z[:, 0])
    c = rng.uniform(0.0, 2.0, size=50)
    return SurvivalDataset(np.minimum(t, c), (t <= c).astype(int), z,
                           ["a,b", 'say "hi"', "größe", "z4"])


def shifted_dataset():
    """Columns 3-6 shifted by 1e7: trial Newton steps get halved and some fits do not converge."""
    rng = np.random.default_rng(20261018)
    n = 60
    z = rng.normal(size=(n, 6))
    t = -np.log(rng.uniform(size=n)) / np.exp(z[:, 0] - 0.5 * z[:, 1])
    c = rng.uniform(0.0, 3.0, size=n)
    status = (t <= c).astype(int)
    status[int(np.argmin(t))] = 1
    z[:, 2:] += 1e7
    return SurvivalDataset(np.minimum(t, c), status, z)


def renamed_rows():
    """The rows of a CSV whose time and status columns are named followup and dead.

    Times lie on a grid of halves, so some tie, and follow-up shortens as the first covariate grows.
    """
    rng = np.random.default_rng(20261020)
    n = 40
    z = rng.uniform(-1.0, 1.0, size=(n, 4))
    followup = np.round(4.0 * rng.uniform(size=n) * (1.5 - z[:, 0])) / 2 + 0.5
    dead = (rng.uniform(size=n) < 0.7).astype(int)
    dead[0] = 1
    return [[t, d, *row] for t, d, row in zip(followup.tolist(), dead.tolist(), z.tolist())]


def overflow_rows():
    """30 rows of integers; the third covariate, ((i mod 7) - 3) * 1e160, overflows when squared."""
    return [[i + 1, int(i % 4 != 0), (7 * i) % 11 - 5, (5 * i) % 13 - 6, (i % 7 - 3) * 1e160]
            for i in range(30)]


def calls():
    """(name, argv) of every call, in the order they run; later calls read earlier outputs."""
    runs = [
        (f"simulate-ex{k}", ["simulate", "--example", str(k), *SIZE, "--seed", SEED,
                             "--out", f"simulate-ex{k}.csv"])
        for k in (1, 2, 3)
    ]
    # 700 covariates: the reader crosses about 13 of its 64K-character blocks, and diagnose two chunks
    runs.append(("simulate-wide", ["simulate", "--example", "1", "--n", "60", "--p", "700", "--seed", SEED,
                                   "--out", "simulate-wide.csv"]))
    for data in ("simulate-ex1", "tied"):
        for cond in ("none", "1", "1,2,3", "auto"):
            for fmt in ("csv", "json"):
                name = f"screen-{data}-c{cond.replace(',', '')}-{fmt}"
                runs.append((name, ["screen", "--input", f"{data}.csv", "--conditioning", cond,
                                    "--stats", "mple,wald,plik", "--format", fmt,
                                    "--out", f"{name}.{fmt}"]))
        for label, extra in (("gamma", ["--gamma", "0.5"]), ("topk", ["--top-k", "3"])):
            name = f"screen-{data}-{label}"
            runs.append((name, ["screen", "--input", f"{data}.csv", "--conditioning", "1",
                                "--stats", "wald,mple", *extra, "--out", f"{name}.csv"]))
        for cond in ("1", "auto"):
            name = f"diagnose-{data}" + ("-auto" if cond == "auto" else "")
            runs.append((name, ["diagnose", "--input", f"{data}.csv", "--conditioning", cond,
                                "--out", f"{name}.csv"]))
    for fmt in ("csv", "json"):
        name = f"screen-quoted-{fmt}"
        runs.append((name, ["screen", "--input", "quoted.csv", "--conditioning", "1",
                            "--stats", "mple,wald,plik", "--format", fmt, "--out", f"{name}.{fmt}"]))
    for cond in ("none", "1", "1,2"):
        for fmt in ("csv", "json"):
            name = f"screen-shifted-c{cond.replace(',', '')}-{fmt}"
            runs.append((name, ["screen", "--input", "shifted.csv", "--conditioning", cond,
                                "--stats", "mple,wald,plik", "--format", fmt, "--out", f"{name}.{fmt}"]))
    for fmt in ("csv", "json"):
        name = f"screen-wide-{fmt}"
        runs.append((name, ["screen", "--input", "simulate-wide.csv", "--conditioning", "1",
                            "--stats", "mple,wald,plik", "--format", fmt, "--out", f"{name}.{fmt}"]))
    runs += [
        ("diagnose-wide", ["diagnose", "--input", "simulate-wide.csv", "--conditioning", "1",
                           "--out", "diagnose-wide.csv"]),
        ("screen-bom", ["screen", "--input", "bom.csv", "--conditioning", "1", "--stats", "mple,wald,plik",
                        "--out", "screen-bom.csv"]),
        ("diagnose-quoted", ["diagnose", "--input", "quoted.csv", "--conditioning", "2",
                             "--out", "diagnose-quoted.csv"]),
        ("screen-no-candidates", ["screen", "--input", "small.csv", "--conditioning", "1,2,3",
                                  "--out", "screen-no-candidates.csv"]),
        ("screen-no-candidates-json", ["screen", "--input", "small.csv", "--conditioning", "1,2,3",
                                       "--format", "json", "--out", "screen-no-candidates-json.json"]),
        ("screen-topk-zero", ["screen", "--input", "tied.csv", "--top-k", "0",
                              "--out", "screen-topk-zero.csv"]),
        ("screen-gamma-nan", ["screen", "--input", "tied.csv", "--gamma", "nan",
                              "--out", "screen-gamma-nan.csv"]),
        ("screen-constant-c", ["screen", "--input", "tied.csv", "--conditioning", "5",
                               "--out", "screen-constant-c.csv"]),
        ("screen-separated-c", ["screen", "--input", "tied.csv", "--conditioning", "6",
                                "--out", "screen-separated-c.csv"]),
        ("simulate-zero-replicates", ["simulate", "--example", "1", *SIZE, "--seed", SEED,
                                      "--replicates", "0", "--out", "simulate-zero-replicates.csv"]),
        ("calibrate", ["calibrate", "--example", "2", *SIZE, "--seed", SEED, "--target", "0.3"]),
        ("benchmark-example-and-config", ["benchmark", "--example", "1", "--config", "ex2.kv",
                                          "--replicates", "1",
                                          "--out", "benchmark-example-and-config.csv"]),
        ("calibrate-bad-kv", ["calibrate", "--config", "bad.kv"]),
        ("benchmark-workers-zero", ["benchmark", "--example", "1", *SIZE, "--replicates", "1",
                                    "--seed", SEED, "--workers", "0",
                                    "--out", "benchmark-workers-zero.csv"]),
        ("simulate-unknown-kv", ["simulate", "--config", "typo.kv",
                                 "--out", "simulate-unknown-kv.csv"]),
        ("benchmark-empty-methods", ["benchmark", "--example", "1", *SIZE, "--replicates", "1",
                                     "--seed", SEED, "--methods", ",",
                                     "--out", "benchmark-empty-methods.csv"]),
        ("calibrate-wide", ["calibrate", "--example", "1", "--n", "20", "--p", "100000",
                            "--target", "0.2"]),
        ("screen-renamed", ["screen", "--input", "renamed.csv", "--time-col", "followup",
                            "--status-col", "dead", "--conditioning", "1", "--stats", "mple,wald,plik",
                            "--out", "screen-renamed.csv"]),
        ("screen-overflow", ["screen", "--input", "overflow.csv", "--conditioning", "1",
                             "--out", "screen-overflow.csv"]),
    ]
    # the first call on tied.csv parsed it and stored the parse in .coxscreen-cache; these repeats load it
    argvs = dict(runs)
    for name in ("screen-tied-cnone-csv", "diagnose-tied"):
        runs.append((f"{name}-warm", [*argvs[name][:-1], f"{name}-warm.csv"]))
    for cond in ("1", "auto", "none"):
        name = f"benchmark-c{cond}"
        runs.append((name, ["benchmark", "--example", "1", *SIZE, "--replicates", "2",
                            "--seed", SEED, "--conditioning", cond, "--out", f"{name}.csv"]))
    return runs


def run_matrix(outdir):
    """Run every call in outdir; returns {name: exit code}."""
    os.makedirs(outdir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        write_csv(tied_dataset(), "tied.csv")
        write_csv(small_dataset(), "small.csv")
        write_csv(quoted_dataset(), "quoted.csv")
        write_csv(shifted_dataset(), "shifted.csv")
        write_rows("renamed.csv", ["followup", "dead", "a", "b", "c", "d"], renamed_rows())
        write_rows("overflow.csv", ["time", "status", "z1", "z2", "z3"], overflow_rows())
        with open("tied.csv", "rb") as fh, open("bom.csv", "wb") as out:  # as Excel's "CSV UTF-8" writes it
            out.write(b"\xef\xbb\xbf" + fh.read())
        config_to_kv(example_config(2, n=60, p=12, censor_target=0.2, seed=int(SEED)), "ex2.kv")
        with open("bad.kv", "w", encoding="utf-8") as fh:
            fh.write("n=abc\np=12\n")
        with open("typo.kv", "w", encoding="utf-8") as fh:
            fh.write("n=60\np=12\nbeta.1=1.0\ncensoring=0.5\n")
        codes = {}
        for name, argv in calls():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes[name] = main(argv)
            with open(f"{name}.log", "w", encoding="utf-8") as fh:
                fh.write(f"exit={codes[name]}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
        return codes
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    for name, code in run_matrix(sys.argv[1]).items():
        print(f"{name} exit={code}")
