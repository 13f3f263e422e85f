"""Command-line interface: screen, simulate, benchmark, calibrate, diagnose.

Outputs are plain CSV/JSON files with no timestamps, so reruns with identical
flags and seed are byte-identical. Nonzero exits print a single diagnostic
line ``error category=<io|validation|fit|config>: <message>`` on stderr.

screen and diagnose write a ``.coxscreen-cache/`` directory beside their
--input, holding the parsed input (see ``data.load_parsed``); a later run on
the same bytes loads it instead of parsing, with the same outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import benchmark, diagnostics, metrics, screening, simulate
from .data import load_parsed, read_csv, store_parsed, write_csv, write_rows
from .errors import (
    CalibrationError,
    ConfigError,
    CoxScreenError,
    CSVParseError,
    NonIdentifiableError,
    SeparationError,
    ValidationError,
)


def _parse_stats(text):
    stats = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for s in stats:
        if s not in screening.STATISTICS:
            raise ConfigError(f"unknown statistic '{s}'; choose from {screening.STATISTICS}")
    if not stats:
        raise ConfigError("--stats list is empty")
    return stats


def _sim_config(args):
    """The --example or --config design, with the fields of the flags that were given."""
    if args.example is not None and args.config:
        raise ConfigError("choose exactly one of --example and --config")
    flags = {"n": args.n, "p": args.p, "censor_target": args.censoring, "seed": args.seed}
    overrides = {name: value for name, value in flags.items() if value is not None}
    if args.config:
        return replace(simulate.config_from_kv(args.config), **overrides)
    if args.example is None:
        raise ConfigError("either --example or --config is required")
    return simulate.example_config(args.example, **overrides)


def _read_input(path, time_col, status_col):
    """The dataset in the CSV at path: loaded from the parse cache, or parsed and stored there."""
    dataset, key = load_parsed(path, time_col, status_col)
    if dataset is None:
        dataset = read_csv(path, time_col, status_col)
        if key is not None:
            store_parsed(path, time_col, status_col, key, dataset)
    return dataset


def _dataset_and_conditioning(args):
    """The --input dataset, through the parse cache, and the C that --conditioning names on it.

    An auto C is reported on stderr.
    """
    dataset = _read_input(args.input, args.time_col, args.status_col)
    cond = screening.resolve_conditioning(args.conditioning, dataset)
    if args.conditioning == screening.AUTO:
        print(f"conditioning=auto selected C={list(cond.indices)}", file=sys.stderr)
    return dataset, cond


def cmd_screen(args):
    if args.gamma is not None and args.top_k is not None:
        raise ConfigError("choose exactly one of --gamma and --top-k")
    if args.gamma is not None and not args.gamma > 0:
        raise ConfigError(f"--gamma must be positive, got {args.gamma}")
    if args.top_k is not None and args.top_k < 1:
        raise ConfigError(f"--top-k must be at least 1, got {args.top_k}")
    stats = _parse_stats(args.stats)
    dataset, cond = _dataset_and_conditioning(args)
    result = screening.screen(dataset, cond, statistics=stats)

    failures = (result.fit_status != screening.CONVERGED).sum()
    print(
        f"null fit: loglik={result.null_fit.loglik:.6f} iterations={result.null_fit.iterations}; "
        f"records={result.index.size} failures={failures}",
        file=sys.stderr,
    )
    if args.format == "json":
        screening.result_to_json(result, args.out)
    else:
        screening.result_to_csv(result, args.out)

    stat = stats[0]
    base, _ = os.path.splitext(args.out)
    if not result.index.size:
        print("warning: conditioning set covers all covariates; nothing to screen", file=sys.stderr)
        selected = []
    elif args.gamma is not None:
        selected = screening.select_by_threshold(result, stat, args.gamma)
    else:
        k = args.top_k if args.top_k is not None else screening.default_top_k(dataset.n)
        selected = screening.select_top_k(result, stat, min(k, result.index.size))
    rows = ([j, result.covariate_names[j - 1]] for j in selected)
    write_rows(base + "_selected.csv", ["index", "name"], rows)
    return 0


def cmd_simulate(args):
    if args.replicates < 1:
        raise ConfigError(f"--replicates must be at least 1, got {args.replicates}")
    config = simulate.with_censor_upper(_sim_config(args))
    base, ext = os.path.splitext(args.out)
    ext = ext or ".csv"
    for rid in range(args.replicates):
        rep = simulate.gen_replicate(config, rid)
        path = args.out if args.replicates == 1 else f"{base}_r{rid}{ext}"
        write_csv(rep.dataset, path)
        print(
            f"replicate {rid}: n={config.n} p={config.p} "
            f"censoring={rep.realized_censoring:.3f} -> {path}",
            file=sys.stderr,
        )
    return 0


def cmd_benchmark(args):
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    config = _sim_config(args)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    scores, summaries = benchmark.run_benchmark(
        config,
        replicates=args.replicates,
        methods=methods,
        conditioning=args.conditioning,
        workers=args.workers,
    )
    config_id = f"example{args.example}" if args.example else os.path.basename(args.config)
    base, _ = os.path.splitext(args.out)
    metrics.summaries_to_csv(summaries, base + "_summary.csv", config_id=config_id)
    metrics.scores_to_csv(scores, base + "_scores.csv")
    for s in summaries:
        print(
            f"{s.method}: median MMS={s.median_mms:g} (IQR {s.iqr_mms:g}), "
            f"median TPR={s.median_tpr:g} (IQR {s.iqr_tpr:g}), sure rate={s.sure_rate:g}",
            file=sys.stderr,
        )
    return 0


def cmd_calibrate(args):
    config = _sim_config(args)
    target = args.target if args.target is not None else config.censor_target
    if not 0.0 < target < 1.0:
        raise ConfigError(f"calibration target must be in (0, 1), got {target}")
    c, achieved = simulate.calibrate_censoring(config, target)
    print(f"c={c!r} achieved={achieved!r} target={target!r}")
    return 0


def cmd_diagnose(args):
    dataset, cond = _dataset_and_conditioning(args)
    candidates = diagnostics.signal_strengths_to_csv(dataset, cond, args.out)
    if not candidates:
        print("warning: conditioning set covers all covariates; nothing to diagnose", file=sys.stderr)
    return 0


def _add_sim_flags(parser):
    parser.add_argument("--example", type=int, choices=(1, 2, 3))
    parser.add_argument("--config", help="SimConfig key=value file; flags override its fields")
    parser.add_argument("--n", type=int)
    parser.add_argument("--p", type=int)
    parser.add_argument("--censoring", type=float, help="target censoring proportion")
    parser.add_argument("--seed", type=int)


def _add_input_flags(parser):
    parser.add_argument("--input", required=True)
    parser.add_argument("--time-col", default="time")
    parser.add_argument("--status-col", default="status")
    parser.add_argument("--conditioning", default="none")


def build_parser():
    parser = argparse.ArgumentParser(prog="coxscreen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_screen = sub.add_parser("screen", help="conditional screening of a CSV dataset")
    _add_input_flags(p_screen)
    p_screen.add_argument("--stats", default="mple")
    p_screen.add_argument("--gamma", type=float)
    p_screen.add_argument("--top-k", type=int, dest="top_k")
    p_screen.add_argument("--out", required=True)
    p_screen.add_argument("--format", choices=("csv", "json"), default="csv")
    p_screen.set_defaults(func=cmd_screen)

    p_sim = sub.add_parser("simulate", help="generate seeded benchmark datasets")
    _add_sim_flags(p_sim)
    p_sim.add_argument("--replicates", type=int, default=1)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="paired Monte-Carlo method comparison")
    _add_sim_flags(p_bench)
    p_bench.add_argument("--replicates", type=int, default=100)
    p_bench.add_argument(
        "--methods",
        default=",".join(benchmark.ALL_METHODS),
        help=f"comma list from {benchmark.ALL_METHODS}",
    )
    p_bench.add_argument("--conditioning", default="1")
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_benchmark)

    p_cal = sub.add_parser("calibrate", help="find the censoring upper bound for a target rate")
    _add_sim_flags(p_cal)
    p_cal.add_argument("--target", type=float)
    p_cal.set_defaults(func=cmd_calibrate)

    p_diag = sub.add_parser("diagnose", help="conditional signal-strength diagnostic")
    _add_input_flags(p_diag)
    p_diag.add_argument("--out", required=True)
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


_CATEGORIES = (
    (ConfigError, "config"),
    (CSVParseError, "io"),
    ((NonIdentifiableError, SeparationError, CalibrationError), "fit"),
    (ValidationError, "validation"),
    ((OSError,), "io"),
    (CoxScreenError, "validation"),
)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single funnel for exit categories
        for types, category in _CATEGORIES:
            if isinstance(exc, types):
                print(f"error category={category}: {exc}", file=sys.stderr)
                return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
