"""Conditional screening sweep: CS-MPLE, CS-Wald and CS-PLIK statistics.

For each candidate covariate j outside the conditioning set C, the marginal
Cox model on columns C + {j} is fitted (warm-started from the C-only fit) and
three screening statistics are derived from the added coordinate:

* mple: |beta_j|
* wald: |beta_j| / sigma_j
* plik: loglik(C + {j}) - loglik(C)
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cox
from .cox import CONVERGED, NOT_CONVERGED, SEPARATION, SINGULAR  # noqa: F401 (fit statuses)
from .data import ConditioningSet, SurvivalDataset, validate
from .errors import ConfigError, NonIdentifiableError, ValidationError

STATISTICS = ("mple", "wald", "plik")

AUTO = "auto"  # conditioning spec: pick C by default_conditioning


@dataclass(frozen=True)
class CovariateScreenRecord:
    index: int  # 1-based covariate index j
    beta_hat: float
    sigma_hat: float
    wald: float
    plik: float
    fit_status: str
    iterations: int
    conditioning_coefficients: tuple = ()

    def statistic(self, name):
        if name == "mple":
            return abs(self.beta_hat)
        if name == "wald":
            return self.wald
        if name == "plik":
            return self.plik
        raise ValidationError(f"unknown statistic '{name}'")


@dataclass(frozen=True)
class ScreeningResult:
    conditioning: ConditioningSet
    null_fit: cox.CoxFit
    records: tuple  # CovariateScreenRecord, ascending covariate index
    rankings: dict  # statistic name -> tuple of covariate indices, best first
    covariate_names: list

    def record(self, j) -> CovariateScreenRecord:
        for rec in self.records:
            if rec.index == j:
                return rec
        raise ValidationError(f"no screening record for covariate {j}")


def _record(j, coefficients, loglik, variance, iterations, status, null_loglik):
    nan = float("nan")
    iterations = int(iterations)
    if status != CONVERGED:
        return CovariateScreenRecord(j, nan, nan, nan, nan, status, iterations)
    beta = float(coefficients[-1])
    variance = float(variance)
    if not (math.isfinite(variance) and variance > 0):
        return CovariateScreenRecord(j, beta, nan, nan, nan, SINGULAR, iterations)
    sigma = math.sqrt(variance)
    return CovariateScreenRecord(
        index=j,
        beta_hat=beta,
        sigma_hat=sigma,
        wald=abs(beta) / sigma,
        plik=float(loglik) - null_loglik,
        fit_status=CONVERGED,
        iterations=iterations,
        conditioning_coefficients=tuple(float(v) for v in coefficients[:-1]),
    )


def _screen_part(args):
    """The records of the candidates js, from one batched fit."""
    dataset, cond_indices, js, control, null_fit = args
    init = np.append(null_fit.coefficients, 0.0)
    batch = cox.fit_batch(dataset, cond_indices, js, control, init)
    rows = zip(batch.coefficients, batch.loglik, batch.variance, batch.iterations, batch.status)
    return [_record(j, *row, null_fit.loglik) for j, row in zip(js, rows)]


def rank(indices, values, failed=None):
    """Indices by descending value, ties by ascending index; failed or non-finite values last."""
    indices = np.asarray(indices, dtype=int)
    values = np.asarray(values, dtype=float)
    last = ~np.isfinite(values)
    if failed is not None:
        last |= np.asarray(failed, dtype=bool)
    order = np.lexsort((indices, np.where(last, 0.0, -values), last))
    return tuple(int(j) for j in indices[order])


def screen(
    dataset: SurvivalDataset,
    conditioning: ConditioningSet = ConditioningSet(),
    control: cox.FitControl = cox.FitControl(),
    statistics=STATISTICS,
    workers: int = 1,
) -> ScreeningResult:
    """Fit every (q+1)-dimensional marginal model and rank the candidates.

    The result is identical for any worker count: records are assembled by
    covariate index, never by completion order.
    """
    report = validate(dataset)
    conditioning.check_against(dataset)
    for name in statistics:
        if name not in STATISTICS:
            raise ValidationError(f"unknown statistic '{name}'")
    if conditioning.q + 1 >= report.events:
        raise ValidationError(
            f"conditioning set size {conditioning.q} too large for {report.events} events"
        )

    null_fit = cox.fit(dataset, conditioning.indices, control)
    if not null_fit.converged:
        raise NonIdentifiableError("null model on the conditioning set did not converge")

    candidates = conditioning.complement(dataset.p)
    if workers <= 1 or len(candidates) < 2 * workers:
        records = _screen_part((dataset, conditioning.indices, candidates, control, null_fit))
    else:
        chunks = [c.tolist() for c in np.array_split(candidates, workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                _screen_part,
                [(dataset, conditioning.indices, c, control, null_fit) for c in chunks],
            )
            records = [rec for part in parts for rec in part]
    failed = [rec.fit_status != CONVERGED for rec in records]
    rankings = {
        name: rank(candidates, [rec.statistic(name) for rec in records], failed)
        for name in statistics
    }
    return ScreeningResult(
        conditioning=conditioning,
        null_fit=null_fit,
        records=tuple(records),
        rankings=rankings,
        covariate_names=list(dataset.covariate_names),
    )


def select_by_threshold(result: ScreeningResult, statistic, gamma):
    """Indices whose statistic is at least gamma; monotone in gamma."""
    if not gamma > 0:
        raise ValidationError("gamma must be positive")
    if statistic not in result.rankings:
        raise ValidationError(f"statistic '{statistic}' was not computed")
    return sorted(
        rec.index
        for rec in result.records
        if rec.fit_status == CONVERGED and rec.statistic(statistic) >= gamma
    )


def select_top_k(result: ScreeningResult, statistic, k):
    """First k covariates of the requested ranking."""
    if statistic not in result.rankings:
        raise ValidationError(f"statistic '{statistic}' was not computed")
    ranking = result.rankings[statistic]
    if not 1 <= k <= len(ranking):
        raise ValidationError(f"k={k} out of range [1, {len(ranking)}]")
    return list(ranking[:k])


def default_top_k(n):
    """The paper-style selection budget floor(n / log n)."""
    return int(math.floor(n / math.log(n)))


def top_marginal_wald(marginal: ScreeningResult) -> ConditioningSet:
    """The automatic conditioning set: the top covariate of a marginal Wald screen."""
    return ConditioningSet((marginal.rankings["wald"][0],))


def default_conditioning(
    dataset: SurvivalDataset, control: cox.FitControl = cox.FitControl(), workers: int = 1
) -> ConditioningSet:
    """Single conditioning variable: the top covariate of a marginal Wald screen."""
    marginal = screen(dataset, ConditioningSet(), control, statistics=("wald",), workers=workers)
    return top_marginal_wald(marginal)


def parse_conditioning(spec):
    """A ConditioningSet, or AUTO, from a conditioning spec.

    The spec is 'none', 'auto', a comma list of 1-based indices, an index
    sequence or a ConditioningSet.
    """
    if isinstance(spec, ConditioningSet) or spec == AUTO:
        return spec
    if spec == "none":
        return ConditioningSet()
    if not isinstance(spec, str):
        return ConditioningSet(tuple(spec))
    try:
        indices = tuple(int(tok) for tok in spec.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(
            f"conditioning must be 'auto', 'none' or a comma list, got '{spec}'"
        ) from None
    if not indices:
        raise ConfigError("conditioning index list is empty")
    return ConditioningSet(indices)


def resolve_conditioning(
    spec, dataset: SurvivalDataset, control: cox.FitControl = cox.FitControl(), workers: int = 1
) -> ConditioningSet:
    """The ConditioningSet a spec names on this dataset; 'auto' runs default_conditioning."""
    cond = parse_conditioning(spec)
    if cond == AUTO:
        return default_conditioning(dataset, control, workers)
    return cond


def result_to_csv(result: ScreeningResult, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "name", "beta_hat", "sigma_hat", "wald", "plik", "fit_status"])
        for rec in result.records:
            writer.writerow(
                [
                    rec.index,
                    result.covariate_names[rec.index - 1],
                    repr(rec.beta_hat),
                    repr(rec.sigma_hat),
                    repr(rec.wald),
                    repr(rec.plik),
                    rec.fit_status,
                ]
            )


def result_to_json(result: ScreeningResult, path):
    payload = {
        "conditioning": list(result.conditioning.indices),
        "null_fit": {
            "coefficients": [float(v) for v in result.null_fit.coefficients],
            "loglik": result.null_fit.loglik,
            "iterations": result.null_fit.iterations,
            "converged": result.null_fit.converged,
        },
        "records": [
            {
                "index": rec.index,
                "name": result.covariate_names[rec.index - 1],
                "beta_hat": rec.beta_hat,
                "sigma_hat": rec.sigma_hat,
                "wald": rec.wald,
                "plik": rec.plik,
                "fit_status": rec.fit_status,
                "iterations": rec.iterations,
                "conditioning_coefficients": list(rec.conditioning_coefficients),
            }
            for rec in result.records
        ],
        "rankings": {name: list(ranking) for name, ranking in result.rankings.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
