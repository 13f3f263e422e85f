"""Marginal screening baselines: PSIS-Wald, PSIS-PLIK, CORS and CRIS.

PSIS delegates to the conditional screen with an empty conditioning set, so
its statistics are bit-identical to that path. CORS and CRIS reweight events
by the inverse Kaplan-Meier estimate of the censoring survival function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cox, screening
from .data import ConditioningSet, SurvivalDataset, validate
from .errors import ValidationError

KM_FLOOR = 0.05

PSIS_WALD = "psis-wald"
PSIS_PLIK = "psis-plik"
CORS = "cors"
CRIS = "cris"


@dataclass(frozen=True)
class BaselineResult:
    method: str
    statistics: np.ndarray  # one value per covariate, 1-based index j at position j-1
    ranking: tuple  # covariate indices, descending statistic, index tie-break
    degenerate: tuple = field(default=())  # columns flagged for zero weighted variance


def psis(dataset: SurvivalDataset, flavor="wald", control=cox.FitControl(), workers=1) -> BaselineResult:
    """Marginal (one covariate at a time) Cox screening; flavor 'wald' or 'plik'."""
    if flavor not in ("wald", "plik"):
        raise ValidationError(f"unknown PSIS flavor '{flavor}'")
    result = screening.screen(
        dataset, ConditioningSet(), control, statistics=(flavor,), workers=workers
    )
    values = np.full(dataset.p, np.nan)
    for rec in result.records:
        if rec.fit_status == screening.CONVERGED:
            values[rec.index - 1] = rec.statistic(flavor)
    method = PSIS_WALD if flavor == "wald" else PSIS_PLIK
    return BaselineResult(method, values, result.rankings[flavor])


def ipw_weights(dataset: SurvivalDataset) -> np.ndarray:
    """Inverse-probability-of-censoring weights delta_i / S_C(X_i-).

    S_C is the Kaplan-Meier estimate of the censoring survival function
    (censorings are the "events" here) evaluated just before each follow-up
    time, floored at KM_FLOOR to bound the weights.
    """
    report = validate(dataset)
    if report.events == dataset.n:
        return dataset.status.astype(float)
    time, status = dataset.time, dataset.status
    cens_times = np.unique(time[status == 0])
    # left-continuous KM of the censoring distribution at each observation time
    surv = np.ones(dataset.n)
    for t in cens_times:
        at_risk = np.sum(time >= t)
        d = np.sum((time == t) & (status == 0))
        factor = 1.0 - d / at_risk
        surv[time > t] *= factor
    surv = np.maximum(surv, KM_FLOOR)
    return np.where(status == 1, 1.0 / surv, 0.0)


def _weighted_abs_corr(x, z, w):
    total = w.sum()
    mx = np.dot(w, x) / total
    mz = np.dot(w, z) / total
    vx = np.dot(w, (x - mx) ** 2) / total
    vz = np.dot(w, (z - mz) ** 2) / total
    if vx <= 0 or vz <= 0:
        return None
    cov = np.dot(w, (x - mx) * (z - mz)) / total
    return abs(cov) / np.sqrt(vx * vz)


def cors(dataset: SurvivalDataset, log_time: bool = False) -> BaselineResult:
    """IPW-weighted absolute Pearson correlation between follow-up time and each covariate.

    With log_time=True the correlation is taken against log follow-up time
    instead; which scale is preferable depends on the hazard model, so both
    are exposed.
    """
    w = ipw_weights(dataset)
    if w.sum() <= 0:
        raise ValidationError("all observations are censored; IPW correlation undefined")
    if log_time:
        if dataset.time.min() <= 0:
            raise ValidationError("log time scale requires strictly positive follow-up times")
        target = np.log(dataset.time)
    else:
        target = dataset.time
    values = np.zeros(dataset.p)
    degenerate = []
    for j in range(1, dataset.p + 1):
        r = _weighted_abs_corr(target, dataset.column(j), w)
        if r is None:
            degenerate.append(j)
            values[j - 1] = 0.0
        else:
            values[j - 1] = min(r, 1.0)
    ranking = screening.rank(np.arange(1, dataset.p + 1), values)
    return BaselineResult(CORS, values, ranking, tuple(degenerate))


def cris(dataset: SurvivalDataset) -> BaselineResult:
    """IPW-weighted concordance rank statistic per covariate.

    For ordered pairs (i, k) with an observed event at i and X_i < X_k, the
    statistic is twice the absolute weighted average of I[Z_ij < Z_kj] - 1/2,
    so it lies in [0, 1] and is invariant to strictly increasing transforms
    of the covariate.
    """
    w = ipw_weights(dataset)
    time = dataset.time
    pair_w = w[:, None] * (time[:, None] < time[None, :])  # w_i * I[X_i < X_k]
    total = pair_w.sum()
    if total <= 0:
        raise ValidationError("no comparable pairs for the rank statistic")
    values = np.zeros(dataset.p)
    for j in range(1, dataset.p + 1):
        z = dataset.column(j)
        conc = (z[:, None] < z[None, :]).astype(float) - 0.5
        values[j - 1] = min(2.0 * abs(np.sum(pair_w * conc)) / total, 1.0)
    return BaselineResult(CRIS, values, screening.rank(np.arange(1, dataset.p + 1), values))
