"""Independent references that the benchmark checks coxscreen's outputs against.

Each check returns ``(passed, detail)``. Tolerances are relative to
``max(1, |reference|)``:

* refits (beta, sigma, PLIK against ``cox.fit`` on C + {j}): ``FIT_RTOL``,
  loose enough for any solver that stops at a score norm of 1e-8;
* partial covariances and CRIS values (closed forms, no iteration):
  ``CLOSED_FORM_RTOL``.
"""

from __future__ import annotations

import math

import numpy as np

from coxscreen import cox
from coxscreen.errors import NonIdentifiableError, SeparationError

FIT_RTOL = 1e-6
CLOSED_FORM_RTOL = 1e-9


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def _refit(dataset, conditioning, j, null_loglik):
    """(beta_j, sigma_j, PLIK_j) from a fresh fit on C + {j}, or None if it fails."""
    try:
        fit = cox.fit(dataset, list(conditioning) + [j])
    except (SeparationError, NonIdentifiableError):
        return None
    if not fit.converged:
        return None
    variance = float(np.linalg.inv(fit.information)[-1, -1])
    return float(fit.coefficients[-1]), math.sqrt(variance), fit.loglik - null_loglik


def check_refits(dataset, conditioning, records, sample):
    """records maps j to (beta, sigma, plik, status) as the program reported them."""
    null_loglik = cox.fit(dataset, list(conditioning)).loglik
    for j in sample:
        beta, sigma, plik, status = records[j]
        ref = _refit(dataset, conditioning, j, null_loglik)
        if ref is None:
            if status == "converged":
                return False, f"candidate {j}: reported converged, reference fit failed"
            continue
        if status != "converged":
            return False, f"candidate {j}: reported {status}, reference fit converged"
        for label, value, expected in zip(("beta", "sigma", "plik"), (beta, sigma, plik), ref):
            if not _close(value, expected, FIT_RTOL):
                return False, f"candidate {j}: {label}={value!r}, reference {expected!r}"
    return True, f"{len(sample)} candidates refitted"


def statistic(beta, wald, plik, name):
    return {"mple": abs(beta), "wald": wald, "plik": plik}[name]


def expected_ranking(values, failed=None):
    """Descending value, ascending index on ties, failed or non-finite values last.

    values and failed map each candidate index to its statistic and fit failure.
    """
    def key(j):
        v = values[j]
        if (failed is not None and failed[j]) or not math.isfinite(v):
            return (1, 0.0, j)
        return (0, -v, j)

    return sorted(values, key=key)


def check_ranking(ranking, values, failed, label):
    expected = expected_ranking(values, failed)
    if list(ranking) != expected:
        first = next(i for i, (a, b) in enumerate(zip(ranking, expected)) if a != b)
        return False, f"{label}: position {first} holds {ranking[first]}, expected {expected[first]}"
    return True, f"{label}: {len(expected)} candidates in order"


def partial_covariance(z, delta, z_cond):
    """Cov(z, delta | Z_C) with denominator n, from least-squares residuals."""
    n = z.shape[0]
    design = np.column_stack([np.ones(n), z_cond])
    rz = z - design @ np.linalg.lstsq(design, z, rcond=None)[0]
    rd = delta - design @ np.linalg.lstsq(design, delta, rcond=None)[0]
    return float(rz @ rd) / n


def check_signal_strengths(dataset, conditioning, reported, sample):
    """reported maps j to the diagnose value the program wrote."""
    delta = dataset.status.astype(float)
    z_cond = dataset.covariates[:, [k - 1 for k in conditioning]]
    for j in sample:
        ref = partial_covariance(dataset.covariates[:, j - 1], delta, z_cond)
        if not _close(reported[j], ref, CLOSED_FORM_RTOL):
            return False, f"candidate {j}: signal strength {reported[j]!r}, reference {ref!r}"
    return True, f"{len(sample)} signal strengths match least squares"


def censoring_km_weights(time, status, floor):
    """delta_i / S_C(X_i-), S_C the product-limit estimate of the censoring law.

    Walks the observations in time order once, instead of the library's loop
    over censoring times.
    """
    n = time.shape[0]
    order = np.argsort(time, kind="stable")
    surv_before = np.empty(n)
    surv = 1.0
    i = 0
    while i < n:
        t = time[order[i]]
        k = i
        while k < n and time[order[k]] == t:
            k += 1
        group = order[i:k]
        surv_before[group] = surv
        censored = int(np.sum(status[group] == 0))
        surv *= 1.0 - censored / (n - i)
        i = k
    return np.where(status == 1, 1.0 / np.maximum(surv_before, floor), 0.0)


def cris_by_pairs(time, z_columns, weights):
    """CRIS per column by enumerating, for each event i, the pairs (i, k) with X_i < X_k."""
    num = np.zeros(z_columns.shape[1])
    total = 0.0
    for i in np.nonzero(weights > 0)[0]:
        later = time > time[i]
        count = int(later.sum())
        total += weights[i] * count
        num += weights[i] * ((z_columns[later] > z_columns[i]).sum(axis=0) - 0.5 * count)
    return np.minimum(2.0 * np.abs(num) / total, 1.0)


def check_cris(dataset, reported, columns, floor):
    """reported holds the program's CRIS value for every column, 1-based j at j-1."""
    weights = censoring_km_weights(dataset.time, dataset.status, floor)
    ref = cris_by_pairs(dataset.time, dataset.covariates[:, [j - 1 for j in columns]], weights)
    for j, expected in zip(columns, ref):
        if not _close(reported[j - 1], expected, CLOSED_FORM_RTOL):
            return False, f"column {j}: CRIS {reported[j - 1]!r}, pair enumeration {expected!r}"
    return True, f"{len(columns)} CRIS columns match pair enumeration"


def mms(ranking, true_active, conditioning):
    """Minimum model size: last rank of an active variable outside C, plus |C|."""
    targets = set(true_active) - set(conditioning)
    if not targets:
        return len(conditioning)
    return max(list(ranking).index(j) for j in targets) + 1 + len(conditioning)
