"""Benchmark metrics: minimum model size, true positive rate, aggregation, CSV export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ConditioningSet, write_rows
from .errors import ValidationError


@dataclass(frozen=True)
class ReplicateScore:
    method: str
    replicate_id: int
    mms: int
    tpr: float
    sure_screened: bool


@dataclass(frozen=True)
class BenchmarkSummary:
    method: str
    median_mms: float
    iqr_mms: float
    median_tpr: float
    iqr_tpr: float
    sure_rate: float
    replicates: int


def mms(ranking, true_active, conditioning_penalty=0, conditioning=ConditioningSet()):
    """Smallest ranking prefix covering the active set, plus the conditioning penalty.

    Active variables inside the conditioning set are considered covered by the
    penalty and are not looked up in the ranking.
    """
    cond = set(conditioning.indices)
    targets = set(true_active) - cond
    if not targets:
        return conditioning_penalty
    missing = targets - set(ranking)
    if missing:
        raise ValidationError(f"active variables absent from the ranking: {sorted(missing)}")
    positions = [ranking.index(j) for j in targets]
    return max(positions) + 1 + conditioning_penalty


def tpr(ranking, true_active, n_budget, conditioning=ConditioningSet()):
    """Fraction of active variables inside the conditioning set or the first n_budget ranks."""
    if n_budget < 1:
        raise ValidationError("n_budget must be >= 1")
    active = set(true_active)
    if not active:
        raise ValidationError("true_active is empty")
    found = set(conditioning.indices) | set(ranking[:n_budget])
    return len(active & found) / len(active)


def summarize(scores) -> BenchmarkSummary:
    """Median and IQR (linear-interpolation quartiles) for one method's scores."""
    scores = list(scores)
    if not scores:
        raise ValidationError("no scores to summarize")
    methods = {s.method for s in scores}
    if len(methods) != 1:
        raise ValidationError(f"summarize expects a single method, got {sorted(methods)}")
    mms_vals = np.array([s.mms for s in scores], dtype=float)
    tpr_vals = np.array([s.tpr for s in scores], dtype=float)

    def med_iqr(vals):
        q1, q2, q3 = np.percentile(vals, [25, 50, 75])
        return float(q2), float(q3 - q1)

    m_med, m_iqr = med_iqr(mms_vals)
    t_med, t_iqr = med_iqr(tpr_vals)
    return BenchmarkSummary(
        method=scores[0].method,
        median_mms=m_med,
        iqr_mms=m_iqr,
        median_tpr=t_med,
        iqr_tpr=t_iqr,
        sure_rate=float(np.mean([s.sure_screened for s in scores])),
        replicates=len(scores),
    )


def summaries_to_csv(summaries, path, config_id=""):
    header = ["method", "config_id", "median_mms", "iqr_mms", "median_tpr", "iqr_tpr", "sure_rate", "replicates"]
    rows = ([s.method, config_id, s.median_mms, s.iqr_mms, s.median_tpr, s.iqr_tpr, s.sure_rate, s.replicates]
            for s in summaries)
    write_rows(path, header, rows)


def scores_to_csv(scores, path):
    rows = ([s.method, s.replicate_id, s.mms, s.tpr, int(s.sure_screened)] for s in scores)
    write_rows(path, ["method", "replicate_id", "mms", "tpr", "sure_screened"], rows)
