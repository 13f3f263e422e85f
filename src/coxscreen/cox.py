"""Newton maximum partial likelihood solver for low-dimensional Cox models.

Ties use the Breslow convention: every event at a tied time shares the full
risk-set denominator. The solver is meant for the small (q+1)-dimensional
marginal fits of a screening sweep, not for wide models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .errors import NonIdentifiableError, SeparationError, ValidationError

_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class FitControl:
    max_iterations: int = 50
    score_tolerance: float = 1e-8
    step_halving_limit: int = 20
    coefficient_bound: float = 50.0

    def __post_init__(self):
        if (
            self.max_iterations <= 0
            or self.score_tolerance <= 0
            or self.step_halving_limit <= 0
            or self.coefficient_bound <= 0
        ):
            raise ValidationError("all FitControl fields must be positive")


@dataclass(frozen=True)
class CoxFit:
    coefficients: np.ndarray
    loglik: float
    score_norm: float
    information: np.ndarray
    variances: np.ndarray
    iterations: int
    converged: bool


class _SortedView:
    """Per-dataset precomputation shared by all likelihood evaluations."""

    def __init__(self, dataset: SurvivalDataset):
        order = dataset.sorted_index
        self.time = dataset.time[order]
        self.status = dataset.status[order]
        self.covariates = dataset.covariates[order]
        # first position of each tied-time group: denominator index under Breslow
        _, first_idx, inverse = np.unique(self.time, return_index=True, return_inverse=True)
        self.tie_first = first_idx[inverse]
        self.event_pos = np.nonzero(self.status == 1)[0]
        self.event_groups = self.tie_first[self.event_pos]


def _sorted_view(dataset: SurvivalDataset) -> _SortedView:
    view = dataset._sorted_cache
    if view is None:
        view = _SortedView(dataset)
        dataset._sorted_cache = view
    return view


def _columns_matrix(view: _SortedView, columns):
    if len(columns) == 0:
        return np.empty((view.time.shape[0], 0))
    cols = [int(j) - 1 for j in columns]
    return view.covariates[:, cols]


def _rev_cumsum(a):
    return np.cumsum(a[::-1], axis=0)[::-1]


def _loglik_sorted(view: _SortedView, z, beta):
    eta = z @ beta
    shift = eta.max() if eta.size else 0.0
    w = np.exp(eta - shift)
    s0 = _rev_cumsum(w)
    ll = float(np.sum(eta[view.event_pos] - shift - np.log(s0[view.event_groups])))
    if not np.isfinite(ll):
        raise ValidationError("non-finite log partial likelihood")
    return ll


def _score_info_sorted(view: _SortedView, z, beta):
    d = z.shape[1]
    eta = z @ beta
    shift = eta.max() if eta.size else 0.0
    w = np.exp(eta - shift)
    s0 = _rev_cumsum(w)[view.event_groups]
    if d == 0:
        return np.zeros(0), np.zeros((0, 0))
    s1 = _rev_cumsum(w[:, None] * z)[view.event_groups]
    mean1 = s1 / s0[:, None]
    score = np.sum(z[view.event_pos] - mean1, axis=0)
    s2 = _rev_cumsum(w[:, None, None] * z[:, :, None] * z[:, None, :])[view.event_groups]
    info = np.sum(s2 / s0[:, None, None] - mean1[:, :, None] * mean1[:, None, :], axis=0)
    info = 0.5 * (info + info.T)
    if not (np.all(np.isfinite(score)) and np.all(np.isfinite(info))):
        bad = np.nonzero(~np.isfinite(mean1).all(axis=1))[0]
        t = view.time[view.event_pos[bad[0]]] if bad.size else float("nan")
        raise ValidationError(f"non-finite score/information contribution at event time {t}")
    return score, info


def log_partial_likelihood(dataset: SurvivalDataset, columns, beta) -> float:
    """Breslow log partial likelihood for the model on the given 1-based columns."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape[0] != len(columns):
        raise ValidationError("beta length must match the number of columns")
    view = _sorted_view(dataset)
    return _loglik_sorted(view, _columns_matrix(view, columns), beta)


def score_and_information(dataset: SurvivalDataset, columns, beta):
    """Score vector V(beta) and observed information I(beta) = -dV/dbeta."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape[0] != len(columns):
        raise ValidationError("beta length must match the number of columns")
    view = _sorted_view(dataset)
    return _score_info_sorted(view, _columns_matrix(view, columns), beta)


def _solve_newton_step(info, score):
    try:
        L = np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise NonIdentifiableError("information matrix is not positive definite") from None
    diag = np.diag(L)
    if diag.min() <= 0 or (diag.max() / diag.min()) ** 2 > _CONDITION_LIMIT:
        raise NonIdentifiableError("information matrix is numerically singular")
    y = np.linalg.solve(L, score)
    return np.linalg.solve(L.T, y)


def fit(
    dataset: SurvivalDataset,
    columns,
    control: FitControl = FitControl(),
    init=None,
) -> CoxFit:
    """Maximize the partial likelihood over the given columns by damped Newton."""
    d = len(columns)
    if d > dataset.n - 1:
        raise ValidationError(f"model dimension {d} too large for n={dataset.n}")
    view = _sorted_view(dataset)
    z = _columns_matrix(view, columns)
    if init is None:
        beta = np.zeros(d)
    else:
        beta = np.array(init, dtype=float)
        if beta.shape != (d,):
            raise ValidationError("init length must match the number of columns")

    if d == 0:
        ll = _loglik_sorted(view, z, beta)
        return CoxFit(beta, ll, 0.0, np.zeros((0, 0)), np.zeros(0), 0, True)

    ll = _loglik_sorted(view, z, beta)
    score, info = _score_info_sorted(view, z, beta)
    iterations = 0
    converged = False
    for _ in range(control.max_iterations):
        score_norm = float(np.linalg.norm(score))
        if score_norm <= control.score_tolerance:
            converged = True
            break
        delta = _solve_newton_step(info, score)
        step = 1.0
        accepted = False
        for _ in range(control.step_halving_limit):
            cand = beta + step * delta
            try:
                ll_cand = _loglik_sorted(view, z, cand)
            except ValidationError:
                ll_cand = -np.inf
            if np.isfinite(ll_cand) and ll_cand >= ll - 1e-12:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        beta, ll = cand, ll_cand
        iterations += 1
        worst = int(np.argmax(np.abs(beta)))
        if abs(beta[worst]) > control.coefficient_bound:
            raise SeparationError(worst)
        score, info = _score_info_sorted(view, z, beta)
    score_norm = float(np.linalg.norm(score))
    if score_norm <= control.score_tolerance:
        converged = True

    eigs = np.linalg.eigvalsh(info)
    if eigs.max() <= 0 or eigs.min() <= eigs.max() / _CONDITION_LIMIT:
        raise NonIdentifiableError("information matrix is numerically singular at the solution")
    variances = np.maximum(np.diag(np.linalg.inv(info)), 0.0)
    return CoxFit(
        coefficients=beta,
        loglik=ll,
        score_norm=score_norm,
        information=info,
        variances=variances,
        iterations=iterations,
        converged=converged,
    )

