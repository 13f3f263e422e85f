"""The three workloads: seeded inputs, one op each, output fingerprints and checks.

Every workload runs coxscreen with one worker. An op is what one user waits
for; its unit of work is a candidate fit (screen-*) or a replicate
(montecarlo).

* screen-wide: an analyst's CLI session on a short, wide CSV with tied times.
  The sweep is bound by per-call overhead; CSV parsing and diagnose show.
* screen-tall: one library ``screen`` call on a tall dataset with q=3 and
  continuous times. The sweep is bound by arithmetic, n (q+1)^2 per step.
* montecarlo: one ``coxscreen benchmark`` run with every method and
  ``--conditioning auto``. The only workload where censoring calibration,
  the marginal sweeps, CORS and CRIS do work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from coxscreen import baselines, benchmark, cli, cox, data, screening, simulate
from coxscreen.data import ConditioningSet

import reference

SIZES = {
    "full": {
        "screen-wide": {"n": 100, "p": 1000, "conditioning": (1,), "censor_upper": 20.0,
                        "distinct_times": 20},
        "screen-tall": {"n": 2000, "p": 400, "conditioning": (1, 2, 3), "censor_upper": 1.5},
        "montecarlo": {"n": 400, "p": 100, "replicates": 3},
    },
    # smoke-test sizes: every code path and check, in well under a second per op
    "tiny": {
        "screen-wide": {"n": 60, "p": 40, "conditioning": (1,), "censor_upper": 20.0,
                        "distinct_times": 20},
        "screen-tall": {"n": 200, "p": 30, "conditioning": (1, 2, 3), "censor_upper": 1.5},
        "montecarlo": {"n": 100, "p": 20, "replicates": 2},
    },
}

STATS = ("wald", "mple", "plik")
CHECK_SAMPLE = 25


def _run_cli(argv):
    with contextlib.redirect_stderr(io.StringIO()):  # the CLI's progress lines
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"coxscreen {argv[0]} exited with {code}")


def _files_digest(outdir):
    digest = hashlib.sha256()
    for path in sorted(Path(outdir).iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _dataset_properties(dataset):
    return {
        "n": dataset.n,
        "p": dataset.p,
        "events": int(dataset.status.sum()),
        "censoring": float(np.mean(dataset.status == 0)),
        "distinct_times": int(np.unique(dataset.time).size),
    }


def _sample(seed, candidates):
    rng = np.random.default_rng([seed, 7])
    k = min(CHECK_SAMPLE, len(candidates))
    return sorted(int(j) for j in rng.choice(candidates, size=k, replace=False))


def _screen_checks(dataset, conditioning, records, rankings, sample):
    """Refits and ranking order; records maps j to (beta, sigma, wald, plik, status)."""
    checks = {"refits": reference.check_refits(
        dataset, conditioning,
        {j: (b, s, pl, st) for j, (b, s, _, pl, st) in records.items()}, sample)}
    failed = {j: r[4] != "converged" for j, r in records.items()}
    for name, ranking in rankings.items():
        values = {j: reference.statistic(r[0], r[2], r[3], name) for j, r in records.items()}
        checks[f"ranking.{name}"] = reference.check_ranking(ranking, values, failed, name)
    return checks


def _result_records(result):
    return {r.index: (r.beta_hat, r.sigma_hat, r.wald, r.plik, r.fit_status)
            for r in result.records}


def _fit_counts(records):
    statuses = [r[4] for r in records.values()]
    return sum(s == "converged" for s in statuses), len(statuses)


def _time_calls(fn, args, calls=50, rounds=7):
    per_call = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        per_call.append((time.perf_counter() - start) / calls)
    return float(np.median(per_call))


def likelihood_timings(dataset, conditioning, j):
    """Microseconds per cox.log_partial_likelihood / score_and_information call at d=q+1."""
    columns = list(conditioning) + [j]
    beta = np.full(len(columns), 0.1)
    return {
        "cox.log_partial_likelihood.us":
            1e6 * _time_calls(cox.log_partial_likelihood, (dataset, columns, beta)),
        "cox.score_and_information.us":
            1e6 * _time_calls(cox.score_and_information, (dataset, columns, beta)),
    }


class Workload:
    """``build_inputs`` is set-up and ``op`` is timed; ``fingerprint``, ``check`` and
    ``layer_probe`` run untimed, ``check`` once on the warm-up op's output."""

    def __init__(self, size, seed, workdir):
        self.size = size
        self.seed = seed
        self.workdir = Path(workdir)
        self.outdir = self.workdir / "out"
        self.outdir.mkdir(parents=True, exist_ok=True)

    def _config(self):
        return simulate.example_config(1, n=self.size["n"], p=self.size["p"], seed=self.seed)


class _Screen(Workload):
    """A screen over every candidate outside a fixed C; inputs use a fixed censor_upper."""

    def _replicate(self):
        self.conditioning = ConditioningSet(self.size["conditioning"])
        config = replace(self._config(), censor_upper=self.size["censor_upper"])
        return simulate.gen_replicate(config, 0)

    @property
    def units_per_op(self):
        return self.size["p"] - self.conditioning.q

    def layer_probe(self):
        sample = _sample(self.seed, self.conditioning.complement(self.dataset.p))
        return likelihood_timings(self.dataset, self.conditioning.indices, sample[0])


class ScreenWide(_Screen):
    """``coxscreen screen`` then ``coxscreen diagnose`` on one CSV."""

    def build_inputs(self):
        rep = self._replicate()
        times = rep.dataset.time
        levels = self.size["distinct_times"]
        edges = np.unique(np.quantile(times, np.arange(1, levels + 1) / levels))
        coarse = edges[np.searchsorted(edges, times)]  # each time up to its quantile edge
        self.dataset = data.SurvivalDataset(coarse, rep.dataset.status, rep.dataset.covariates)
        self.csv_path = self.workdir / "input.csv"
        data.write_csv(self.dataset, self.csv_path)

    def op(self):
        cond = ",".join(str(j) for j in self.conditioning.indices)
        _run_cli(["screen", "--input", str(self.csv_path), "--conditioning", cond,
                  "--stats", ",".join(STATS), "--format", "json",
                  "--out", str(self.outdir / "screen.json")])
        _run_cli(["diagnose", "--input", str(self.csv_path), "--conditioning", cond,
                  "--out", str(self.outdir / "diagnose.csv")])

    def fingerprint(self, _result):
        return _files_digest(self.outdir)

    def check(self, _result):
        cond = self.conditioning.indices
        with open(self.outdir / "screen.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        records = {r["index"]: (r["beta_hat"], r["sigma_hat"], r["wald"], r["plik"],
                                r["fit_status"]) for r in payload["records"]}
        candidates = self.conditioning.complement(self.dataset.p)
        sample = _sample(self.seed, candidates)
        checks = _screen_checks(self.dataset, cond, records, payload["rankings"], sample)

        k = math.floor(self.dataset.n / math.log(self.dataset.n))
        with open(self.outdir / "screen_selected.csv", newline="", encoding="utf-8") as fh:
            selected = [int(row["index"]) for row in csv.DictReader(fh)]
        failed = {j: r[4] != "converged" for j, r in records.items()}
        top = reference.expected_ranking({j: r[2] for j, r in records.items()}, failed)[:k]
        checks["selected"] = (selected == top, f"{len(selected)} selected, expected top {k} by wald")

        with open(self.outdir / "diagnose.csv", newline="", encoding="utf-8") as fh:
            reported = {int(row["index"]): float(row["signal_strength"]) for row in csv.DictReader(fh)}
        if sorted(reported) != candidates:
            checks["diagnose"] = (False, "diagnose does not cover every candidate once")
        else:
            checks["diagnose"] = reference.check_signal_strengths(self.dataset, cond, reported, sample)
        return checks, _fit_counts(records), _dataset_properties(self.dataset)


class ScreenTall(_Screen):
    """One library ``screen`` call with all three statistics."""

    def build_inputs(self):
        self.dataset = self._replicate().dataset

    def op(self):
        return screening.screen(self.dataset, self.conditioning, statistics=STATS, workers=1)

    def fingerprint(self, result):
        payload = {"records": sorted(_result_records(result).items()),
                   "iterations": [r.iterations for r in result.records],
                   "rankings": {k: list(v) for k, v in result.rankings.items()}}
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()

    def check(self, result):
        records = _result_records(result)
        sample = _sample(self.seed, self.conditioning.complement(self.dataset.p))
        checks = _screen_checks(self.dataset, self.conditioning.indices, records,
                                result.rankings, sample)
        return checks, _fit_counts(records), _dataset_properties(self.dataset)


class MonteCarlo(Workload):
    """``coxscreen benchmark --example 1 --conditioning auto`` with all seven methods."""

    def build_inputs(self):
        self.argv = ["benchmark", "--example", "1", "--n", str(self.size["n"]),
                     "--p", str(self.size["p"]), "--replicates", str(self.size["replicates"]),
                     "--conditioning", "auto", "--workers", "1", "--seed", str(self.seed),
                     "--out", str(self.outdir / "bench.csv")]

    @property
    def units_per_op(self):
        return self.size["replicates"]

    def op(self):
        _run_cli(self.argv)

    def fingerprint(self, _result):
        return _files_digest(self.outdir)

    def check(self, _result):
        with open(self.outdir / "bench_scores.csv", newline="", encoding="utf-8") as fh:
            scores = list(csv.DictReader(fh))
        with open(self.outdir / "bench_summary.csv", newline="", encoding="utf-8") as fh:
            summaries = list(csv.DictReader(fh))
        checks = {"summary": self._check_summary(scores, summaries)}

        # replicate 0 of the op's design, rebuilt outside the op
        config = self._config()
        c, _ = simulate.calibrate_censoring(config)
        rep = simulate.gen_replicate(replace(config, censor_upper=c), 0)
        dataset = rep.dataset
        cond = screening.default_conditioning(dataset)
        self.checked = (dataset, cond)
        result = screening.screen(dataset, cond, statistics=STATS)
        records = _result_records(result)
        sample = _sample(self.seed, cond.complement(dataset.p))
        checks.update(_screen_checks(dataset, cond.indices, records, result.rankings, sample))

        cris = baselines.cris(dataset)
        cols = _sample(self.seed, list(range(1, dataset.p + 1)))
        checks["cris"] = reference.check_cris(dataset, cris.statistics, cols, baselines.KM_FLOOR)

        expected = {f"cs-{s}": reference.mms(result.rankings[s], rep.true_active, cond.indices)
                    for s in STATS}
        cris_values = {j: float(cris.statistics[j - 1]) for j in range(1, dataset.p + 1)}
        expected["cris"] = reference.mms(reference.expected_ranking(cris_values),
                                         rep.true_active, ())
        got = {row["method"]: int(row["mms"]) for row in scores if row["replicate_id"] == "0"}
        wrong = {m: (got.get(m), v) for m, v in expected.items() if got.get(m) != v}
        checks["mms"] = (not wrong, f"replicate 0 MMS of {sorted(expected)}; (reported, expected) {wrong}")

        props = _dataset_properties(dataset)
        props.update(conditioning=list(cond.indices), clipped_lp=rep.clipped_linear_predictors)
        return checks, _fit_counts(records), props

    @staticmethod
    def _check_summary(scores, summaries):
        for row in summaries:
            mine = [s for s in scores if s["method"] == row["method"]]
            mms_values = [int(s["mms"]) for s in mine]
            sure = [int(s["sure_screened"]) for s in mine]
            if (len(mine) != int(row["replicates"])
                    or float(row["median_mms"]) != float(np.median(mms_values))
                    or not math.isclose(float(row["sure_rate"]), sum(sure) / len(sure))):
                return False, f"summary row for {row['method']} disagrees with its scores"
        complete = len(summaries) == len(benchmark.ALL_METHODS)
        return complete, f"{len(summaries)} method summaries agree with the scores"

    def layer_probe(self):
        dataset, cond = self.checked
        sample = _sample(self.seed, cond.complement(dataset.p))
        return likelihood_timings(dataset, cond.indices, sample[0])


WORKLOADS = {"screen-wide": ScreenWide, "screen-tall": ScreenTall, "montecarlo": MonteCarlo}
