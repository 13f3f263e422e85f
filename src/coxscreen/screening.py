"""Conditional screening sweep: CS-MPLE, CS-Wald and CS-PLIK statistics.

For each candidate covariate j outside the conditioning set C, the marginal
Cox model on columns C + {j} is fitted (warm-started from the C-only fit) and
three screening statistics are derived from the added coordinate:

* mple: |beta_j|
* wald: |beta_j| / sigma_j
* plik: loglik(C + {j}) - loglik(C)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import cox
from .cox import CONVERGED, NOT_CONVERGED, SEPARATION, SINGULAR  # noqa: F401 (fit statuses)
from .data import ConditioningSet, SurvivalDataset, validate, write_rows
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
_JSON_ROWS = 256  # result_to_json converts this many rows of the columns at a time


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
    statistics=STATISTICS,
    workers: int = 1,
) -> ScreeningResult:
    """Fit every (q+1)-dimensional marginal model and rank the candidates.

    Every candidate runs in one in-process ``cox.fit_batch`` call, which
    reports a constant candidate SINGULAR. ``workers`` is not a setting: it
    accepts only 1, so existing ``workers=1`` calls still run.
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

    null_fit = cox.fit(dataset, conditioning.indices)
    if not null_fit.converged:
        raise NonIdentifiableError("null model on the conditioning set did not converge")

    candidates = np.array(conditioning.complement(dataset.p), dtype=int)
    batch = cox.fit_batch(dataset, conditioning.indices, candidates, null_fit.coefficients)
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


def default_conditioning(dataset: SurvivalDataset) -> ConditioningSet:
    """Single conditioning variable: the top covariate of a marginal Wald screen."""
    marginal = screen(dataset, ConditioningSet(), statistics=("wald",))
    return top_marginal_wald(marginal)


def parse_conditioning(spec):
    """A ConditioningSet, or AUTO, from a conditioning spec.

    The spec is 'none', 'auto', a comma list of 1-based indices, an index
    sequence or a ConditioningSet. Bytes-like specs are rejected: their items
    are character codes, so b"1,2" would read as (49, 44, 50).
    """
    if isinstance(spec, ConditioningSet):
        return spec
    if not isinstance(spec, str):  # before any `==`, which is elementwise on a numpy array
        try:
            if isinstance(spec, (bytes, bytearray, memoryview)):
                raise TypeError
            indices = tuple(spec)
        except TypeError:
            raise ConfigError(
                f"conditioning must be 'auto', 'none', a comma list or an index sequence, got {spec!r}"
            ) from None
        return ConditioningSet(indices)
    if spec == AUTO:
        return spec
    if spec == "none":
        return ConditioningSet()
    try:
        indices = tuple(int(tok) for tok in spec.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(
            f"conditioning must be 'auto', 'none' or a comma list, got '{spec}'"
        ) from None
    if not indices:
        raise ConfigError("conditioning index list is empty")
    return ConditioningSet(indices)


def resolve_conditioning(spec, dataset: SurvivalDataset) -> ConditioningSet:
    """The ConditioningSet a spec names on this dataset; 'auto' runs default_conditioning."""
    cond = parse_conditioning(spec)
    if cond == AUTO:
        return default_conditioning(dataset)
    return cond


def result_to_csv(result: ScreeningResult, path):
    index = result.index.tolist()
    names = [result.covariate_names[j - 1] for j in index]
    columns = (result.beta_hat, result.sigma_hat, result.wald, result.plik, result.fit_status)
    header = ["index", "name", "beta_hat", "sigma_hat", "wald", "plik", "fit_status"]
    write_rows(path, header, zip(index, names, *(c.tolist() for c in columns)))


def result_to_json(result: ScreeningResult, path):
    """Write the result as one JSON object on one line, keys sorted, plus a newline.

    The bytes are those of one ``json.dumps(payload, sort_keys=True)``, but the
    parts are encoded one at a time, in sorted key order: "conditioning" and
    "null_fit", then each ranking's indices joined into one string, then each
    record, joined by ", ". The columns are converted to Python values
    _JSON_ROWS rows at a time.
    """
    # json.dumps(obj, sort_keys=True) returns this encoder's encode(obj), building the encoder anew
    encode = json.JSONEncoder(sort_keys=True).encode
    null_fit = result.null_fit
    head = encode({
        "conditioning": result.conditioning.indices,
        "null_fit": {
            "coefficients": null_fit.coefficients.tolist(),
            "loglik": null_fit.loglik,
            "iterations": null_fit.iterations,
            "converged": null_fit.converged,
        },
    })
    rankings = ", ".join(
        f"{encode(name)}: [{', '.join(map(str, ranking))}]" for name, ranking in sorted(result.rankings.items())
    )
    columns = [getattr(result, name) for name in _COLUMNS]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head[:-1]}, "rankings": {{{rankings}}}, "records": [')
        separator = ""
        for start in range(0, len(result.index), _JSON_ROWS):
            for row in zip(*(column[start : start + _JSON_ROWS].tolist() for column in columns)):
                record = dict(zip(_COLUMNS, row), name=result.covariate_names[row[0] - 1])
                if record["fit_status"] != CONVERGED:
                    record["conditioning_coefficients"] = []
                fh.write(separator + encode(record))
                separator = ", "
        fh.write("]}\n")
