"""Independent brute-force oracles, written straight from the definitions.

Everything here deliberately avoids the package's optimized code paths:
risk sets are enumerated directly, derivatives come from finite differences,
maximization is derivative-free, and the Kaplan-Meier product is a literal
product over censoring times.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RiskSetView:
    """Distinct event times, tie multiplicities and the at-risk sets at each."""

    event_times: np.ndarray
    event_counts: np.ndarray
    risk_membership: list  # one 0-based observation-index array per event time


def build_risk_sets(dataset):
    """Risk sets {i : X_i >= t} at each distinct event time t."""
    event_mask = dataset.status == 1
    event_times = np.unique(dataset.time[event_mask])
    counts = np.array(
        [int(np.sum(event_mask & (dataset.time == t))) for t in event_times], dtype=int
    )
    membership = [np.nonzero(dataset.time >= t)[0] for t in event_times]
    return RiskSetView(event_times=event_times, event_counts=counts, risk_membership=membership)


def brute_loglik(time, status, z, beta):
    """O(n^2) Breslow log partial likelihood from the definition."""
    time = np.asarray(time, dtype=float)
    status = np.asarray(status)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[0] != time.shape[0]:
        z = z.T
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    eta = z @ beta
    ll = 0.0
    for i in range(time.shape[0]):
        if status[i] != 1:
            continue
        risk = [k for k in range(time.shape[0]) if time[k] >= time[i]]
        ll += eta[i] - np.log(np.sum(np.exp(eta[risk])))
    return ll


def fd_gradient(f, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.shape[0]):
        e = np.zeros_like(x)
        e[k] = step
        grad[k] = (f(x + e) - f(x - e)) / (2 * step)
    return grad


def fd_jacobian(f, x, step=1e-5):
    """Central-difference Jacobian of a vector-valued function."""
    x = np.asarray(x, dtype=float)
    base = np.asarray(f(x))
    jac = np.zeros((base.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        e = np.zeros_like(x)
        e[k] = step
        jac[:, k] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * step)
    return jac


def golden_max(f, lo, hi, tol=1e-11, max_iter=200):
    """Golden-section maximization of a unimodal scalar function on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def coordinate_maximize(f, d, bracket=20.0, cycles=200, tol=3e-8):
    # tol below ~1e-8 is unattainable: near the optimum the objective is
    # locally quadratic, so value comparisons lose to float rounding once
    # coordinate moves drop under sqrt(machine eps)
    """Derivative-free maximization by per-coordinate golden section.

    Suitable for smooth strictly concave objectives like the Cox partial
    likelihood at low dimension: each coordinate profile is unimodal, so a
    single golden-section pass per coordinate brackets the maximum. The
    search width shrinks with the observed per-cycle movement.
    """
    beta = np.zeros(d)
    width = bracket
    for _ in range(cycles):
        cycle_start = beta.copy()
        change = 0.0
        for k in range(d):
            def profile(v, k=k):
                cand = beta.copy()
                cand[k] = v
                return f(cand)

            new = golden_max(
                profile, beta[k] - width, beta[k] + width,
                tol=max(1e-12, 1e-5 * width),
            )
            change = max(change, abs(new - beta[k]))
            beta[k] = new
        if d > 1 and change > 0.0:
            # Powell-style acceleration: correlated coordinates make the
            # per-coordinate pass zigzag, so also maximize along the net
            # displacement of the whole cycle
            direction = beta - cycle_start
            s = golden_max(lambda v: f(beta + v * direction), -1.0, 50.0, tol=1e-10)
            cand = beta + s * direction
            if f(cand) >= f(beta):
                change = max(change, float(np.max(np.abs(cand - beta))))
                beta = cand
        width = max(min(width, 50.0 * change), 1e-6)
        if change < tol:
            break
    return beta


def brute_censoring_km_left(time, status):
    """S_C(X_i-) by direct product over strictly earlier censoring times."""
    n = len(time)
    out = np.ones(n)
    cens = sorted({time[k] for k in range(n) if status[k] == 0})
    for i in range(n):
        s = 1.0
        for t in cens:
            if t >= time[i]:
                continue
            at_risk = sum(1 for k in range(n) if time[k] >= t)
            d = sum(1 for k in range(n) if time[k] == t and status[k] == 0)
            s *= 1.0 - d / at_risk
        out[i] = s
    return out


def brute_cris(time, status, zj, weights):
    """Exhaustive ordered-pair enumeration of the weighted concordance statistic."""
    n = len(time)
    num = 0.0
    den = 0.0
    for i in range(n):
        for k in range(n):
            if i == k or not time[i] < time[k]:
                continue
            den += weights[i]
            num += weights[i] * ((1.0 if zj[i] < zj[k] else 0.0) - 0.5)
    if den == 0:
        return 0.0
    return min(abs(2.0 * num / den), 1.0)


def brute_rank(indices, values, failed=None):
    """Ranking by pairwise comparison from the written rule, no sort key.

    Converged finite values come first by descending value; equal values (0.0
    and -0.0 are equal) go by ascending index; failed or non-finite entries
    follow by ascending index.
    """
    def last(k):
        return bool(failed is not None and failed[k]) or not math.isfinite(values[k])

    def before(a, b):
        if last(a) != last(b):
            return not last(a)
        if not last(a) and values[a] != values[b]:
            return values[a] > values[b]
        return indices[a] < indices[b]

    remaining = list(range(len(indices)))
    out = []
    while remaining:
        best = remaining[0]
        for k in remaining[1:]:
            if before(k, best):
                best = k
        remaining.remove(best)
        out.append(int(indices[best]))
    return tuple(out)


def brute_mms(ranking, targets):
    """Linear scan for the smallest covering prefix."""
    need = set(targets)
    for k, j in enumerate(ranking, start=1):
        need.discard(j)
        if not need:
            return k
    raise AssertionError("targets not covered by ranking")


def gauss_elim_inverse(a):
    """Gauss-Jordan inverse, independent of numpy.linalg."""
    a = np.array(a, dtype=float)
    d = a.shape[0]
    aug = np.hstack([a, np.eye(d)])
    for col in range(d):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(d):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, d:]
