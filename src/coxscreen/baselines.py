"""Marginal screening baselines CORS and CRIS, and the names of the four baselines.

PSIS-Wald and PSIS-PLIK are the rankings of the empty-C conditional screen.
CORS and CRIS reweight events by the inverse Kaplan-Meier estimate of the
censoring survival function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import screening
from .data import SurvivalDataset, validate
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
    degenerate: tuple  # zero-range columns, scored 0


def ipw_weights(dataset: SurvivalDataset) -> np.ndarray:
    """Inverse-probability-of-censoring weights delta_i / S_C(X_i-).

    S_C is the Kaplan-Meier estimate of the censoring survival function
    (censorings are the "events" here) evaluated just before each follow-up
    time, floored at KM_FLOOR to bound the weights.
    """
    validate(dataset)
    time, status = dataset.time, dataset.status
    cens_times, cens_counts = np.unique(time[status == 0], return_counts=True)
    at_risk = dataset.n - np.searchsorted(np.sort(time), cens_times)
    # surv[k]: product of the KM factors of the first k censoring times
    surv = np.cumprod(np.concatenate(([1.0], 1.0 - cens_counts / at_risk)))
    # left-continuous: only censoring times strictly before X_i count
    surv = np.maximum(surv[np.searchsorted(cens_times, time)], KM_FLOOR)
    return np.where(status == 1, 1.0 / surv, 0.0)


def _column_result(method, values, degenerate):
    """Rank one value per column; degenerate is a boolean mask over the columns."""
    ranking = screening.rank(np.arange(1, values.shape[0] + 1), values)
    return BaselineResult(method, values, ranking, tuple(int(j) + 1 for j in np.flatnonzero(degenerate)))


def cors(dataset: SurvivalDataset) -> BaselineResult:
    """IPW-weighted absolute Pearson correlation between follow-up time and each covariate.

    Only events carry weight, so a column (or the follow-up time) with zero
    range over the events has no correlation: it scores 0 and is listed in
    `degenerate`.
    """
    w = ipw_weights(dataset)
    x, time = dataset.covariates, dataset.time
    events = w > 0
    x_events = x[events]
    degenerate = x_events.max(axis=0) == x_events.min(axis=0)
    if np.ptp(time[events]) == 0:
        degenerate[:] = True
    total = w.sum()
    xc = x - w @ x / total
    tc = time - w @ time / total
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.abs((w * tc) @ xc) / np.sqrt((w @ xc**2) * (w @ tc**2))
    return _column_result(CORS, np.where(degenerate, 0.0, np.minimum(r, 1.0)), degenerate)


def _dense_ranks(x):
    """Per-column dense ranks of x, 0 for each column's smallest value.

    Equal values, 0.0 and -0.0 among them, share a rank, so a difference of
    ranks has the sign of the difference of values. The ranks are int16 when
    n <= 2**15, which also holds any sum of n - 1 signs, and int32 otherwise.
    """
    dtype = np.int16 if x.shape[0] <= 1 << 15 else np.int32
    order = np.argsort(x, axis=0)
    ordered = np.take_along_axis(x, order, axis=0)
    steps = np.zeros(x.shape, dtype=dtype)
    steps[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty(x.shape, dtype=dtype)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0, dtype=dtype), axis=0)
    return ranks


def cris(dataset: SurvivalDataset) -> BaselineResult:
    """IPW-weighted concordance rank statistic per covariate.

    For ordered pairs (i, k) with an observed event at i and X_i < X_k, the
    statistic is the absolute weighted average of sign(Z_kj - Z_ij), so it
    lies in [0, 1] and is invariant to strictly increasing transforms of the
    covariate. A pair tied in Z_j counts neither way. A zero-range column
    scores 0 and is listed in `degenerate`.

    One pass over the events serves every column: with the rows sorted by
    descending follow-up time, the rows later than event i are a prefix of
    that order, compared with row i in all columns at once. The comparison
    runs on the columns' dense ranks, and the sign counts are summed as
    integers for each distinct weight before that weight scales them.
    """
    w = ipw_weights(dataset)
    time, x = dataset.time, dataset.covariates
    order = np.argsort(-time)
    ranks = _dense_ranks(x)
    ranks_desc = ranks[order]
    # later[i] = #{k : X_k > X_i}, the length of row i's prefix in ranks_desc
    later = np.searchsorted(-time[order], -time, side="left")
    total = w @ later
    if total <= 0:
        raise ValidationError("no comparable pairs for the rank statistic")
    events = np.flatnonzero(w * later)
    num = np.zeros(dataset.p)
    # scale the exact sign counts once per distinct weight, so equal counts give equal sums
    for weight in np.unique(w[events]):
        counts = np.zeros(dataset.p, dtype=np.int64)
        for i in events[w[events] == weight]:
            counts += np.sign(ranks_desc[: later[i]] - ranks[i]).sum(axis=0, dtype=ranks.dtype)
        num += weight * counts
    degenerate = x.max(axis=0) == x.min(axis=0)
    return _column_result(CRIS, np.minimum(np.abs(num) / total, 1.0), degenerate)
