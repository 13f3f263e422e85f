"""Newton maximum partial likelihood solver for low-dimensional Cox models.

Ties use the Breslow convention: every event at a tied time shares the full
risk-set denominator. The rows are held in descending time, censorings
before events at a tied time (in ascending time, events sort before
censorings). The solver is meant for the small (q+1)-dimensional marginal
fits of a screening sweep, not for wide models.

One damped Newton engine, ``_newton``, fits a stack of models that share
the columns C and differ in one last column, one row per model, each row with
its own step length, iteration count and status. Every row starts with the
candidate's coefficient at 0. ``fit_batch`` runs it on C + {j} for a chunk of
candidates j at a time, from (start, 0), and reports a failed fit as a
status; ``fit`` runs it on a single row from 0 and raises instead. A model
therefore gets the same numbers from either, given the same start, and from
any chunk it is batched with. The iteration's settings are fixed module
constants: at most _MAX_ITERATIONS steps, each halved up to
_STEP_HALVING_LIMIT times, converged at a score norm of _SCORE_TOLERANCE,
and SEPARATION past a |coefficient| of _COEFFICIENT_BOUND.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .errors import NonIdentifiableError, SeparationError, ValidationError

# The Newton settings. _COEFFICIENT_BOUND, like _CONDITION_LIMIT, applies in the
# units of the raw covariate columns, so neither is invariant to a column's scale.
_MAX_ITERATIONS = 50
_SCORE_TOLERANCE = 1e-8  # a fit converges when the norm of its score is at most this
_STEP_HALVING_LIMIT = 20  # trial steps per iteration before a row stops iterating
_COEFFICIENT_BOUND = 50.0  # a row with a |beta| above it is SEPARATION
_CONDITION_LIMIT = 1e12
# fit_batch takes _CHUNK_ELEMENTS // n candidates at a time, but at least _MIN_CHUNK
_CHUNK_ELEMENTS = 1 << 14
_MIN_CHUNK = 8
# The public functions run the kernels with numpy's floating-point warnings off:
# every non-finite value becomes a status or a ValidationError instead.
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")

CONVERGED = "converged"
SEPARATION = "separation"
SINGULAR = "singular"
NOT_CONVERGED = "not_converged"


@dataclass(frozen=True)
class CoxFit:
    coefficients: np.ndarray
    loglik: float
    score_norm: float
    information: np.ndarray
    variances: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True)
class BatchFit:
    """Row i is the fit on columns + [candidates[i]].

    A separation or singular row has NaN numbers and 0 iterations, where
    ``fit`` would raise. A constant candidate's row is singular.
    """

    coefficients: np.ndarray  # (m, q+1), the candidate's coefficient last
    loglik: np.ndarray  # (m,)
    variance: np.ndarray  # (m,) variance of the candidate's coefficient, clipped at 0
    iterations: np.ndarray  # (m,)
    status: np.ndarray  # (m,) CONVERGED, NOT_CONVERGED, SEPARATION or SINGULAR


class _SortedView:
    """Per-dataset precomputation shared by all likelihood evaluations.

    It keeps the order of the rows, by descending time with censorings
    before events at a tied time, and the event structure, not the
    covariates: ``_gather`` copies the columns a call needs into one
    contiguous row per column, in that order, so a forward cumulative sum
    gives every risk-set sum. Both come from the dataset's time and status.
    """

    def __init__(self, dataset: SurvivalDataset):
        self.order = np.lexsort((1 - dataset.status, dataset.time))[::-1].copy()
        self.n = dataset.n
        time = dataset.time[self.order]
        events = np.nonzero(dataset.status[self.order] == 1)[0][::-1]  # ascending time
        self.event_pos = events
        # the last position of each event's tied-time group: its Breslow risk set ends there
        self.event_groups = np.searchsorted(-time, -time[events], side="right") - 1
        self.event_times = time[events]


def _sorted_view(dataset: SurvivalDataset) -> _SortedView:
    view = dataset._sorted_cache
    if view is None:
        view = _SortedView(dataset)
        dataset._sorted_cache = view
    return view


def _gather(dataset: SurvivalDataset, columns):
    """The given 1-based columns as one contiguous (len(columns), n) array, rows in descending time.

    The columns are taken first, which reads each covariate row once, and the
    time order is then applied to that (n, len(columns)) copy. A constant
    column cancels from every risk-set ratio, so its row is the zero row: the
    same model, whose information is singular in that coordinate.
    """
    columns = np.asarray(columns, dtype=int) - 1
    rows = dataset.covariates.take(columns, axis=1).T.take(_sorted_view(dataset).order, axis=1)
    rows[rows.max(axis=1) == rows.min(axis=1)] = 0.0
    return rows


def _rows(dataset: SurvivalDataset, columns):
    return list(_gather(dataset, columns))


def _weights(view: _SortedView, rows, beta):
    """eta - max(eta), its exponential w and the risk-set sums s0 of w at the events.

    One row per row of beta; rows holds one (n,) or (m, n) array per
    coefficient. eta is summed column by column, so each row's value does not
    depend on the batch.
    """
    eta = np.zeros((beta.shape[0], view.n))
    for k, row in enumerate(rows):
        eta += row * beta[:, k, None]
    eta -= eta.max(axis=1, keepdims=True)
    w = np.exp(eta)
    return eta, w, np.cumsum(w, axis=1).take(view.event_groups, axis=1)


def _loglik_at(view: _SortedView, eta, s0):
    """Log partial likelihood of each row of _weights; not finite where it overflows."""
    return np.sum(eta.take(view.event_pos, axis=1) - np.log(s0), axis=1)


def _loglik(view: _SortedView, rows, beta):
    """Log partial likelihood at each row of beta; not finite where it overflows."""
    eta, _, s0 = _weights(view, rows, beta)
    return _loglik_at(view, eta, s0)


def _risk_set_sums(view: _SortedView, cumulative, s0):
    """A cumulative sum over the descending-time rows taken at each event's risk set, over s0."""
    sums = cumulative.take(view.event_groups, axis=1)
    sums /= s0
    return sums


def _score_info(view: _SortedView, rows, w, s0):
    """Score vectors (m, d) and observed information matrices (m, d, d) from _weights' w and s0.

    rows are (n,) arrays, the last one may be an (m, n) block. w and s0 may
    be a single (1, ...) row shared by every model: the sums that involve only
    (n,) rows are then taken once and broadcast.
    """
    m = len(rows[-1]) if rows and rows[-1].ndim == 2 else len(w)
    d = len(rows)
    weighted = [w * row for row in rows]
    means = [_risk_set_sums(view, np.cumsum(wz, axis=1), s0) for wz in weighted]
    score = np.empty((m, d))
    info = np.empty((m, d, d))
    for a in range(d):
        score[:, a] = np.sum(rows[a].take(view.event_pos, axis=-1) - means[a], axis=1)
        for b in range(a, d):
            product = weighted[a] * rows[b]
            s2 = _risk_set_sums(view, np.cumsum(product, axis=1, out=product), s0)
            s2 -= means[a] * means[b]
            info[:, a, b] = info[:, b, a] = np.sum(s2, axis=1)
    if not (np.all(np.isfinite(score)) and np.all(np.isfinite(info))):
        # name the first event, in ascending time, where a running sum of the terms stops being finite
        terms = [rows[a].take(view.event_pos, axis=-1) - means[a] for a in range(d)] + [
            _risk_set_sums(view, np.cumsum(weighted[a] * rows[b], axis=1), s0) - means[a] * means[b]
            for a in range(d) for b in range(a, d)
        ]
        finite = np.logical_and.reduce([np.isfinite(np.cumsum(term, axis=1)).all(axis=0) for term in terms])
        bad = np.flatnonzero(~finite)  # empty if only a total overflowed: then the last event
        t = view.event_times[bad[0] if bad.size else -1]
        raise ValidationError(f"non-finite score/information contribution at event time {t}")
    return score, info


def _accepts(ll_new, ll):
    """Whether a trial step keeps the log likelihood, up to rounding at its magnitude."""
    return np.isfinite(ll_new) & (ll_new >= ll - 1e-12 * np.maximum(1.0, np.abs(ll)))


def _newton_steps(info, score):
    """Newton directions for a stack of systems, and which systems were well conditioned.

    The directions are returned for the well-conditioned systems only.
    """
    ok = np.ones(info.shape[0], dtype=bool)
    try:
        L = np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        L = np.empty_like(info)
        for i, a in enumerate(info):
            try:
                L[i] = np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                ok[i] = False
                L[i] = np.eye(a.shape[0])
    diag = np.diagonal(L, axis1=1, axis2=2)
    low, high = diag.min(axis=1), diag.max(axis=1)
    ok &= low > 0
    ok[ok] = (high[ok] / low[ok]) ** 2 <= _CONDITION_LIMIT
    L = L[ok]
    y = np.linalg.solve(L, score[ok][..., None])
    return np.linalg.solve(np.swapaxes(L, 1, 2), y)[..., 0], ok


def _singular_at_solution(info):
    eigs = np.linalg.eigvalsh(info)  # ascending
    return (eigs[:, -1] <= 0) | (eigs[:, 0] <= eigs[:, -1] / _CONDITION_LIMIT)


@_QUIET
def log_partial_likelihood(dataset: SurvivalDataset, columns, beta) -> float:
    """Breslow log partial likelihood for the model on the given 1-based columns."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape[0] != len(columns):
        raise ValidationError("beta length must match the number of columns")
    view = _sorted_view(dataset)
    ll = float(_loglik(view, _rows(dataset, columns), beta[None])[0])
    if not np.isfinite(ll):
        raise ValidationError("non-finite log partial likelihood")
    return ll


@_QUIET
def score_and_information(dataset: SurvivalDataset, columns, beta):
    """Score vector V(beta) and observed information I(beta) = -dV/dbeta."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape[0] != len(columns):
        raise ValidationError("beta length must match the number of columns")
    view = _sorted_view(dataset)
    rows = _rows(dataset, columns)
    _, w, s0 = _weights(view, rows, beta[None])
    score, info = _score_info(view, rows, w, s0)
    return score[0], info[0]


def _check_dimension(dataset, d):
    if d > dataset.n - 1:
        raise ValidationError(f"model dimension {d} too large for n={dataset.n}")


@_QUIET
def fit(dataset: SurvivalDataset, columns) -> CoxFit:
    """Maximize the partial likelihood over the given columns by damped Newton from 0.

    This is fit_batch's iteration on a single row; a SEPARATION row raises
    SeparationError and a SINGULAR row NonIdentifiableError.
    """
    d = len(columns)
    _check_dimension(dataset, d)
    if d == 0:
        ll = log_partial_likelihood(dataset, columns, np.zeros(0))
        return CoxFit(np.zeros(0), ll, 0.0, np.zeros((0, 0)), np.zeros(0), 0, True)

    rows = _rows(dataset, columns)
    beta, ll, score, info, iterations, status = _newton(
        _sorted_view(dataset), rows[:-1], rows[-1][None], np.zeros(d - 1)
    )
    if status[0] == SEPARATION:
        raise SeparationError(int(np.argmax(np.abs(beta[0]))))
    if status[0] == SINGULAR:
        raise NonIdentifiableError("information matrix is not positive definite or is singular")
    return CoxFit(
        coefficients=beta[0],
        loglik=float(ll[0]),
        score_norm=float(np.linalg.norm(score[0], axis=-1)),
        information=info[0],
        variances=np.maximum(np.diag(np.linalg.inv(info[0])), 0.0),
        iterations=int(iterations[0]),
        converged=status[0] == CONVERGED,
    )


@_QUIET
def fit_batch(dataset: SurvivalDataset, columns, candidates, start) -> BatchFit:
    """The fits on columns + [j] for every candidate j, each from (start, 0), a chunk at a time.

    start holds one coefficient per column, the C-only fit's in a screen.
    Every row runs the iteration that ``fit`` runs on its model, so it gets
    the status, iterations and numbers of that iteration from (start, 0) bit
    for bit, whichever candidates share its chunk: where fit raises
    SeparationError or NonIdentifiableError the row has the SEPARATION or
    SINGULAR status. A constant column is the zero column, so a constant
    candidate is SINGULAR without a step. A non-finite score or information
    still raises ValidationError. Memory stays at a fixed number of (chunk, n)
    arrays, a chunk being _CHUNK_ELEMENTS // n candidates or _MIN_CHUNK,
    whichever is more.
    """
    _check_dimension(dataset, len(columns) + 1)
    start = np.asarray(start, dtype=float)
    if start.shape != (len(columns),):
        raise ValidationError("start length must match the number of columns")
    view = _sorted_view(dataset)
    cond_rows = _rows(dataset, columns)
    candidates = np.asarray(candidates, dtype=int)
    size = max(_MIN_CHUNK, _CHUNK_ELEMENTS // view.n)
    parts = [
        _newton(view, cond_rows, _gather(dataset, candidates[first : first + size]), start)
        for first in range(0, max(len(candidates), 1), size)
    ]
    beta, ll, _, info, iterations, status = (np.concatenate(arrays) for arrays in zip(*parts))
    solved = (status == CONVERGED) | (status == NOT_CONVERGED)
    variance = np.full(len(status), np.nan)
    variance[solved] = np.maximum(np.linalg.inv(info[solved])[:, -1, -1], 0.0)
    beta[~solved], ll[~solved], iterations[~solved] = np.nan, np.nan, 0
    return BatchFit(beta, ll, variance, iterations, status)


def _newton(view, cond_rows, x, start):
    """Damped Newton on the rows [cond_rows..., x[i]] for every i from (start, 0), with per-row masks.

    Returns each row's beta, log likelihood, score, information, iterations
    and status. A SEPARATION row keeps the beta that crossed
    _COEFFICIENT_BOUND; a row that stopped iterating keeps the score and
    information at its last beta. The settings are the module's
    _MAX_ITERATIONS, _SCORE_TOLERANCE, _STEP_HALVING_LIMIT and
    _COEFFICIENT_BOUND.

    Every row starts at the same linear predictor, so the start is evaluated
    on one shared row. Each trial step evaluates the weights once, and the
    rows that take it reuse them for their score and information.
    """
    m = x.shape[0]
    beta = np.tile(np.append(start, 0.0), (m, 1))
    # x * 0 is a signed zero, which leaves the C-only sum (never -0.0: it starts at +0.0)
    # as it is, so this row is every row's eta bit for bit
    eta, w, s0 = _weights(view, cond_rows, start[None])
    ll = np.broadcast_to(_loglik_at(view, eta, s0), (m,)).copy()
    if not np.all(np.isfinite(ll)):
        raise ValidationError("non-finite log partial likelihood")
    score, info = _score_info(view, cond_rows + [x], w, s0)
    iterations = np.zeros(m, dtype=int)
    status = np.full(m, "", dtype=object)  # set at failure, else at the end
    live = np.arange(m)  # rows still iterating
    for _ in range(_MAX_ITERATIONS):
        live = live[np.linalg.norm(score[live], axis=-1) > _SCORE_TOLERANCE]
        if not live.size:
            break
        delta, ok = _newton_steps(info[live], score[live])
        status[live[~ok]] = SINGULAR
        live = live[ok]

        # halve every row's step together until its log likelihood does not drop
        new_beta, new_ll = np.empty_like(delta), np.empty(live.size)
        new_w = new_s0 = None  # the accepted rows' weights, in the order of live
        accepted = np.zeros(live.size, dtype=bool)
        trying = np.arange(live.size)
        step = 1.0
        for _ in range(_STEP_HALVING_LIMIT):
            idx = live[trying]
            cand = beta[idx] + step * delta[trying]
            eta, w, s0 = _weights(view, cond_rows + [x[idx]], cand)
            ll_cand = _loglik_at(view, eta, s0)
            good = _accepts(ll_cand, ll[idx])
            took = trying[good]
            if new_w is None and good.all():
                new_w, new_s0 = w, s0  # every row took this step: the usual case, no copy
            elif took.size:
                if new_w is None:
                    new_w, new_s0 = np.empty((live.size, view.n)), np.empty((live.size, s0.shape[1]))
                new_w[took], new_s0[took] = w[good], s0[good]
            new_beta[took], new_ll[took] = cand[good], ll_cand[good]
            accepted[took] = True
            trying = trying[~good]
            if not trying.size:
                break
            step *= 0.5
        # a row without an accepted step stops iterating
        live = live[accepted]
        beta[live], ll[live] = new_beta[accepted], new_ll[accepted]
        iterations[live] += 1
        separated = np.abs(beta[live]).max(axis=1) > _COEFFICIENT_BOUND
        status[live[separated]] = SEPARATION
        live = live[~separated]
        if live.size:
            keep = np.flatnonzero(accepted)[~separated]  # live's rows of new_w
            if keep.size < new_w.shape[0]:
                new_w, new_s0 = new_w[keep], new_s0[keep]
            score[live], info[live] = _score_info(view, cond_rows + [x[live]], new_w, new_s0)

    rest = np.nonzero(status == "")[0]
    singular = _singular_at_solution(info[rest])
    status[rest[singular]] = SINGULAR
    rest = rest[~singular]
    converged = np.linalg.norm(score[rest], axis=-1) <= _SCORE_TOLERANCE
    status[rest[converged]] = CONVERGED
    status[rest[~converged]] = NOT_CONVERGED
    return beta, ll, score, info, iterations, status
