"""Empirical conditional linear expectation / covariance and the signal diagnostic.

All moments here use the population-style denominator n, so the algebraic
identities (stability, law of total expectation, the partial-covariance
decomposition) hold exactly on the fitting sample instead of up to an
(n-1)/n factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ConditioningSet, SurvivalDataset, write_rows
from .errors import ValidationError

_PINV_RTOL = 1e-10
# The diagnose pass gathers and centres about _CHUNK_ELEMENTS // n columns at a time, a multiple
# of _CHUNK_ALIGN: a BLAS kernel computes a product's outputs in groups, and aligned chunks keep
# each column in the group, and so the rounding, it has in one product over all columns.
_CHUNK_ELEMENTS = 1 << 15
_CHUNK_ALIGN = 16


@dataclass(frozen=True)
class CLEModel:
    target_mean: np.ndarray
    predictor_mean: np.ndarray
    coefficient_matrix: np.ndarray  # A, shape (dim(xi), dim(zeta))
    pseudo_inverse_used: bool = False


def _as_2d(a):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    return a


def _solve_gram(var_xi, rhs):
    """Solve var_xi @ A = rhs, falling back to the pseudo-inverse when singular."""
    try:
        cond = np.linalg.cond(var_xi)
        if cond < 1.0 / _PINV_RTOL:
            return np.linalg.solve(var_xi, rhs), False
    except np.linalg.LinAlgError:
        pass
    return np.linalg.pinv(var_xi, rcond=_PINV_RTOL) @ rhs, True


def fit_cle(zeta, xi) -> CLEModel:
    """Best affine predictor of zeta from xi via empirical-moment plug-in."""
    zeta = _as_2d(zeta)
    xi = _as_2d(xi)
    n = zeta.shape[0]
    if xi.shape[0] != n:
        raise ValidationError("zeta and xi must have the same number of rows")
    if n <= xi.shape[1]:
        raise ValidationError("need more samples than predictor dimensions")
    zc = zeta - zeta.mean(axis=0)
    xc = xi - xi.mean(axis=0)
    xc -= xc.mean(axis=0)  # the rounding left by the first mean, which grows with a shift
    var_xi = xc.T @ xc / n
    cross = zc.T @ xc / n  # Cov(zeta, xi)
    if xi.shape[1] == 0:
        coef = np.zeros((0, zeta.shape[1]))
        used_pinv = False
    else:
        coef, used_pinv = _solve_gram(var_xi, cross.T)
    return CLEModel(
        target_mean=zeta.mean(axis=0),
        predictor_mean=xi.mean(axis=0),
        coefficient_matrix=coef,
        pseudo_inverse_used=used_pinv,
    )


def cle_predict(model: CLEModel, xi) -> np.ndarray:
    """Affine evaluation: E[zeta] + A'(xi - E[xi]).

    A 1-d xi of length dim(xi) is a single predictor vector; a 2-d xi is a
    stack of rows. When dim(xi) == 1, a 1-d xi is treated as a stack.
    """
    xi = np.asarray(xi, dtype=float)
    dim = model.predictor_mean.shape[0]
    single = xi.ndim == 1 and xi.shape[0] == dim and dim != 1
    if xi.ndim == 1:
        xi2 = xi[None, :] if single else xi[:, None]
    else:
        xi2 = xi
    if xi2.shape[1] != dim:
        raise ValidationError(f"xi has dimension {xi2.shape[1]}, model expects {dim}")
    pred = model.target_mean + (xi2 - model.predictor_mean) @ model.coefficient_matrix
    return pred[0] if single else pred


def _partial_covariances(source, columns, target, xi) -> np.ndarray:
    """Cov(z, t) - Cov(z, xi) Var(xi)^-1 Cov(xi, t) for every column z = source[:, k], k in `columns`.

    The target t is residualised on xi once; each column then costs one inner
    product with that residual. The columns are gathered and centred a chunk
    of about _CHUNK_ELEMENTS // n at a time, so besides the result the pass
    holds one chunk. Each chunk, like xi in fit_cle, is centred twice: the
    second pass removes the part of the mean that the first left in
    rounding, which grows with a column's distance from zero, so shifting
    the columns moves the result by no more than rounding. An empty xi (n
    rows, 0 columns) gives the plain covariances.
    """
    n = target.shape[0]
    resid = target - cle_predict(fit_cle(target, xi), xi)[:, 0]
    columns = np.asarray(columns, dtype=int)
    out = np.empty(columns.shape[0])
    size = max(1, _CHUNK_ELEMENTS // n // _CHUNK_ALIGN) * _CHUNK_ALIGN
    for first in range(0, columns.shape[0], size):
        chunk = source[:, columns[first : first + size]]
        chunk -= chunk.mean(axis=0)
        chunk -= chunk.mean(axis=0)
        out[first : first + size] = resid @ chunk / n
        del chunk  # before the next chunk is gathered
    return out


def cond_linear_cov(zeta1, zeta2, xi=None) -> float:
    """Empirical partial covariance Cov(z1,z2) - Cov(z1,xi) Var(xi)^-1 Cov(xi,z2).

    With an empty (or None) conditioning block this is the plain covariance
    (denominator n).
    """
    z1 = np.asarray(zeta1, dtype=float).ravel()
    z2 = np.asarray(zeta2, dtype=float).ravel()
    if z2.shape[0] != z1.shape[0]:
        raise ValidationError("zeta1 and zeta2 must have the same length")
    xi = np.empty((z1.shape[0], 0)) if xi is None else _as_2d(xi)
    return float(_partial_covariances(z1[:, None], [0], z2, xi)[0])


def _signal_strengths(dataset, conditioning, candidates):
    """The signal strength of each 1-based candidate."""
    z_c = dataset.covariates[:, [k - 1 for k in conditioning.indices]]
    columns = [j - 1 for j in candidates]
    return _partial_covariances(dataset.covariates, columns, dataset.status.astype(float), z_c)


def signal_strength(dataset: SurvivalDataset, conditioning: ConditioningSet, j) -> float:
    """Partial covariance between Z_j and the event indicator given Z_C.

    Sample proxy for the conditional signal-strength quantity: the event
    indicator stands in for the (unobservable) event probability given Z.
    Diagnostic only.
    """
    conditioning.check_against(dataset)
    if j in conditioning.indices:
        raise ValidationError(f"covariate {j} is in the conditioning set")
    dataset.column(j)  # raises for a j out of range
    return float(_signal_strengths(dataset, conditioning, [j])[0])


def signal_strengths_to_csv(dataset, conditioning, path):
    """Per-candidate signal strengths as CSV (index, name, signal_strength)."""
    conditioning.check_against(dataset)
    candidates = conditioning.complement(dataset.p)
    values = _signal_strengths(dataset, conditioning, candidates)
    names = [dataset.covariate_names[j - 1] for j in candidates]
    write_rows(path, ["index", "name", "signal_strength"], zip(candidates, names, values.tolist()))
    return candidates
