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
from dataclasses import dataclass, fields

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


_COLUMNS = tuple(f.name for f in fields(CovariateScreenRecord))


@dataclass(frozen=True, eq=False)
class ScreeningResult:
    """One read-only array per field; row i of each is candidate index[i].

    Only converged fits have numbers, but beta_hat is also kept where the variance was singular.
    """

    conditioning: ConditioningSet
    null_fit: cox.CoxFit
    index: np.ndarray  # (m,) 1-based candidate indices, ascending
    beta_hat: np.ndarray
    sigma_hat: np.ndarray
    wald: np.ndarray
    plik: np.ndarray
    fit_status: np.ndarray  # CONVERGED, NOT_CONVERGED, SEPARATION or SINGULAR
    iterations: np.ndarray
    conditioning_coefficients: np.ndarray  # (m, q)
    rankings: dict  # statistic name -> tuple of covariate indices, best first
    covariate_names: list

    def __post_init__(self):
        for name in _COLUMNS:
            getattr(self, name).setflags(write=False)

    def statistic(self, name):
        """The column of a screening statistic: |beta_hat| for mple, else the field it names."""
        if name not in STATISTICS:
            raise ValidationError(f"unknown statistic '{name}'")
        return np.abs(self.beta_hat) if name == "mple" else getattr(self, name)

    @property
    def records(self):
        """The rows as CovariateScreenRecords, built anew on each access.

        Nothing in the library reads it; the acceptance tests and perfbench do.
        """
        return tuple(
            CovariateScreenRecord(j, b, s, w, pl, st, it, tuple(cc) if st == CONVERGED else ())
            for j, b, s, w, pl, st, it, cc in zip(*(getattr(self, n).tolist() for n in _COLUMNS))
        )


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

    All candidates run in one in-process ``cox.fit_batch`` call. ``workers`` is
    not a setting: it accepts only 1, so existing ``workers=1`` calls still run.
    """
    if workers != 1:
        raise ValidationError(f"screen runs in one process; workers must be 1, got {workers!r}")
    report = validate(dataset)
    conditioning.check_against(dataset)
    for name in statistics:
        if name not in STATISTICS:
            raise ValidationError(f"unknown statistic '{name}'")
    if conditioning.q + 1 >= report.events:
        raise ValidationError(
            f"conditioning set size {conditioning.q} too large for {report.events} events"
        )
    for j in conditioning.indices:
        if j in report.constant_columns:
            raise NonIdentifiableError(f"conditioning column {j} is constant")

    null_fit = cox.fit(dataset, conditioning.indices, control)
    if not null_fit.converged:
        raise NonIdentifiableError("null model on the conditioning set did not converge")

    candidates = np.array(conditioning.complement(dataset.p), dtype=int)
    batch = cox.fit_batch(
        dataset, conditioning.indices, candidates, control, np.append(null_fit.coefficients, 0.0)
    )
    coefficients, variance, status = batch.coefficients, batch.variance, batch.status
    fitted = status == CONVERGED
    singular = fitted & ~(np.isfinite(variance) & (variance > 0))
    converged = fitted & ~singular
    beta = np.where(fitted, coefficients[:, -1], np.nan)
    sigma = np.sqrt(np.where(converged, variance, np.nan))
    result = ScreeningResult(
        conditioning=conditioning,
        null_fit=null_fit,
        index=candidates,
        beta_hat=beta,
        sigma_hat=sigma,
        wald=np.abs(beta) / sigma,
        plik=np.where(converged, batch.loglik - null_fit.loglik, np.nan),
        fit_status=np.where(singular, SINGULAR, status.astype(str)),
        iterations=batch.iterations,
        conditioning_coefficients=np.where(converged[:, None], coefficients[:, :-1], np.nan),
        rankings={},
        covariate_names=list(dataset.covariate_names),
    )
    for name in statistics:
        result.rankings[name] = rank(candidates, result.statistic(name), ~converged)
    return result


def select_by_threshold(result: ScreeningResult, statistic, gamma):
    """Indices whose statistic is at least gamma; monotone in gamma."""
    if not gamma > 0:
        raise ValidationError("gamma must be positive")
    if statistic not in result.rankings:
        raise ValidationError(f"statistic '{statistic}' was not computed")
    keep = (result.fit_status == CONVERGED) & (result.statistic(statistic) >= gamma)
    return result.index[keep].tolist()


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
    dataset: SurvivalDataset, control: cox.FitControl = cox.FitControl()
) -> ConditioningSet:
    """Single conditioning variable: the top covariate of a marginal Wald screen."""
    marginal = screen(dataset, ConditioningSet(), control, statistics=("wald",))
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
    spec, dataset: SurvivalDataset, control: cox.FitControl = cox.FitControl()
) -> ConditioningSet:
    """The ConditioningSet a spec names on this dataset; 'auto' runs default_conditioning."""
    cond = parse_conditioning(spec)
    if cond == AUTO:
        return default_conditioning(dataset, control)
    return cond


def result_to_csv(result: ScreeningResult, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "name", "beta_hat", "sigma_hat", "wald", "plik", "fit_status"])
        index = result.index.tolist()
        names = [result.covariate_names[j - 1] for j in index]
        columns = (result.beta_hat, result.sigma_hat, result.wald, result.plik)
        floats = (map(repr, c.tolist()) for c in columns)
        writer.writerows(zip(index, names, *floats, result.fit_status.tolist()))


# One record of result_to_json, keys sorted, as json.dump(..., indent=1) lays it out.
_RECORD_JSON = (
    "{\n"
    '   "beta_hat": %s,\n'
    '   "conditioning_coefficients": %s,\n'
    '   "fit_status": %s,\n'
    '   "index": %d,\n'
    '   "iterations": %d,\n'
    '   "name": %s,\n'
    '   "plik": %s,\n'
    '   "sigma_hat": %s,\n'
    '   "wald": %s\n'
    "  }"
)


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x):
    """A float as json.dump writes it: its repr, with NaN, Infinity and -Infinity."""
    text = float.__repr__(x)
    return _JSON_NON_FINITE.get(text, text)


def _json_block(items, depth, brackets="[]"):
    """Formatted items as a list (or object) at this nesting depth, as indent=1 lays it out."""
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * depth + brackets[1]


def _json_object(fields, depth):
    """A dict of formatted values, keys sorted, as indent=1 lays it out."""
    return _json_block([f"{json.dumps(k)}: {v}" for k, v in sorted(fields.items())], depth, "{}")


def result_to_json(result: ScreeningResult, path):
    """Write the result as json.dump(payload, fh, indent=1, sort_keys=True) would, plus a newline."""
    names = result.covariate_names
    records = [
        _RECORD_JSON
        % (
            _json_float(beta),
            _json_block([_json_float(v) for v in coefficients], 3) if status == CONVERGED else "[]",
            json.dumps(status),
            j,
            iterations,
            json.dumps(names[j - 1]),
            _json_float(plik),
            _json_float(sigma),
            _json_float(wald),
        )
        for j, beta, sigma, wald, plik, status, iterations, coefficients in zip(
            *(getattr(result, name).tolist() for name in _COLUMNS)
        )
    ]
    null_fit = result.null_fit
    payload = {
        "conditioning": _json_block([str(j) for j in result.conditioning.indices], 1),
        "null_fit": _json_object(
            {
                "coefficients": _json_block([_json_float(v) for v in null_fit.coefficients], 2),
                "loglik": _json_float(null_fit.loglik),
                "iterations": str(null_fit.iterations),
                "converged": json.dumps(null_fit.converged),
            },
            1,
        ),
        "records": _json_block(records, 1),
        "rankings": _json_object(
            {name: _json_block(list(map(str, r)), 2) for name, r in result.rankings.items()}, 1
        ),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_object(payload, 0))
        fh.write("\n")
