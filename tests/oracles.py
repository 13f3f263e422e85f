"""Independent brute-force oracles, written straight from the definitions.

Everything here deliberately avoids the package's optimized code paths:
risk sets are enumerated directly, derivatives come from finite differences,
maximization is derivative-free, and the Kaplan-Meier product is a literal
product over censoring times. The screening sweep's oracle, and ``cox.fit``'s,
is ``newton_loop_fit``: one plain Newton loop per model. The CSV reader's
oracle parses every cell with ``float``; the CSV writers' write one record at
a time with ``repr`` on every float cell, and the JSON writer's is
``json.dump``. The simulation oracles draw the whole covariate matrix at
once, and CRIS's builds an n x n pair matrix per column; ``cris``'s
integer-rank kernel is also held to ``float_sign_cris``, the float-sign
kernel it replaced, bit for bit.
"""

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from coxscreen import cox, simulate
from coxscreen.baselines import CRIS, BaselineResult, ipw_weights
from coxscreen.data import ColumnSchema, SurvivalDataset
from coxscreen.errors import (
    CalibrationError,
    CSVParseError,
    NonIdentifiableError,
    SeparationError,
    ValidationError,
)
from coxscreen.screening import (
    CONVERGED,
    NOT_CONVERGED,
    SEPARATION,
    SINGULAR,
    CovariateScreenRecord,
    rank,
)
from coxscreen.simulate import BLOCK_LAST_INDEPENDENT, EQUICORRELATED, INDEPENDENT, gen_survival_times


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
    """Exhaustive ordered-pair enumeration of the weighted concordance statistic.

    A pair tied in zj counts neither way.
    """
    n = len(time)
    num = 0.0
    den = 0.0
    for i in range(n):
        for k in range(n):
            if i == k or not time[i] < time[k]:
                continue
            den += weights[i]
            if zj[i] != zj[k]:
                num += weights[i] * (0.5 if zj[i] < zj[k] else -0.5)
    if den == 0:
        return 0.0
    return min(abs(2.0 * num / den), 1.0)


def km_loop_ipw_weights(time, status, floor):
    """delta_i / S_C(X_i-) with the censoring KM built by a loop over censoring times.

    The update order matches the library's cumulative product factor for
    factor, so the two agree bit for bit.
    """
    n = len(time)
    if np.all(status == 1):
        return status.astype(float)
    surv = np.ones(n)
    for t in np.unique(time[status == 0]):
        at_risk = np.sum(time >= t)
        d = np.sum((time == t) & (status == 0))
        factor = 1.0 - d / at_risk
        surv[time > t] *= factor
    surv = np.maximum(surv, floor)
    return np.where(status == 1, 1.0 / surv, 0.0)


def per_column_cors(time, covariates, weights):
    """Weighted |Pearson correlation| of time with each column, one column at a time.

    Returns (values, degenerate) where degenerate lists the 1-based columns
    whose weighted variance came out <= 0.
    """
    total = weights.sum()
    mz = np.dot(weights, time) / total
    vz = np.dot(weights, (time - mz) ** 2) / total
    values = np.zeros(covariates.shape[1])
    degenerate = []
    for j in range(covariates.shape[1]):
        x = covariates[:, j]
        mx = np.dot(weights, x) / total
        vx = np.dot(weights, (x - mx) ** 2) / total
        if vx <= 0 or vz <= 0:
            degenerate.append(j + 1)
            continue
        cov = np.dot(weights, (x - mx) * (time - mz)) / total
        values[j] = min(abs(cov) / np.sqrt(vx * vz), 1.0)
    return values, tuple(degenerate)


def linear_predictor_covariance(config):
    """Analytic Cov(Z_j, beta'Z) for every j under the configured correlation.

    Makes the hidden-variable construction explicit: in example 1 the entry
    for variable 6 is 0.5 * 5 - 2.5 = 0 exactly.
    """
    beta = config.dense_beta()
    p, rho = config.p, config.rho
    if config.correlation == "independent" or rho == 0.0:
        return beta.copy()
    if config.correlation == "equicorrelated":
        return (1.0 - rho) * beta + rho * beta.sum()
    block = beta[: p - 1]
    out = np.empty(p)
    out[: p - 1] = (1.0 - rho) * block + rho * block.sum()
    out[p - 1] = beta[p - 1]
    return out


def dense_covariance(config):
    """The (p, p) covariance matrix of one row of the configured design."""
    p, rho = config.p, config.rho
    if config.correlation == "independent":
        return np.eye(p)
    sigma = (1.0 - rho) * np.eye(p) + rho
    if config.correlation == "block_last_independent":
        sigma[-1, :] = sigma[:, -1] = 0.0
        sigma[-1, -1] = 1.0
    return sigma


def lstsq_partial_covariance(z, target, z_cond):
    """Cov(z, target | z_cond), denominator n, from least-squares residuals."""
    n = z.shape[0]
    design = np.column_stack([np.ones(n), z_cond])
    rz = z - design @ np.linalg.lstsq(design, z, rcond=None)[0]
    rt = target - design @ np.linalg.lstsq(design, target, rcond=None)[0]
    return float(rz @ rt) / n


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


def newton_loop_fit(dataset, columns, init=None):
    """The damped Newton loop for one model from init (0 if None), written without the batched engine.

    Same iteration, checks and exceptions as ``cox.fit``, built from the shared
    likelihood kernels, with the settings the ``cox`` module holds at call
    time; ``cox.fit`` from 0 and each ``cox.fit_batch`` row from (start, 0)
    must agree with it bit for bit.
    """
    d = len(columns)
    cox._check_dimension(dataset, d)
    view = cox._sorted_view(dataset)
    rows = cox._rows(dataset, columns)
    beta = np.zeros(d) if init is None else np.array(init, dtype=float)

    ll = cox.log_partial_likelihood(dataset, columns, beta)
    if d == 0:
        return cox.CoxFit(beta, ll, 0.0, np.zeros((0, 0)), np.zeros(0), 0, True)

    score, info = cox.score_and_information(dataset, columns, beta)
    iterations = 0
    for _ in range(cox._MAX_ITERATIONS):
        if np.linalg.norm(score, axis=-1) <= cox._SCORE_TOLERANCE:
            break
        delta, ok = cox._newton_steps(info[None], score[None])
        if not ok[0]:
            raise NonIdentifiableError("information matrix is not positive definite or is singular")
        step = 1.0
        accepted = False
        for _ in range(cox._STEP_HALVING_LIMIT):
            cand = beta + step * delta[0]
            ll_cand = float(cox._loglik(view, rows, cand[None])[0])
            if cox._accepts(ll_cand, ll):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        beta, ll = cand, ll_cand
        iterations += 1
        worst = int(np.argmax(np.abs(beta)))
        if abs(beta[worst]) > cox._COEFFICIENT_BOUND:
            raise SeparationError(worst)
        score, info = cox.score_and_information(dataset, columns, beta)
    score_norm = float(np.linalg.norm(score, axis=-1))

    if cox._singular_at_solution(info[None])[0]:
        raise NonIdentifiableError("information matrix is numerically singular at the solution")
    variances = np.maximum(np.diag(np.linalg.inv(info)), 0.0)
    return cox.CoxFit(
        coefficients=beta,
        loglik=ll,
        score_norm=score_norm,
        information=info,
        variances=variances,
        iterations=iterations,
        converged=score_norm <= cox._SCORE_TOLERANCE,
    )


def _fit_one(dataset, columns, init, null_loglik):
    j = columns[-1]
    nan = float("nan")
    try:
        fit_res = newton_loop_fit(dataset, columns, init)
    except SeparationError:
        return CovariateScreenRecord(j, nan, nan, nan, nan, SEPARATION, 0)
    except NonIdentifiableError:
        return CovariateScreenRecord(j, nan, nan, nan, nan, SINGULAR, 0)
    if not fit_res.converged:
        return CovariateScreenRecord(j, nan, nan, nan, nan, NOT_CONVERGED, fit_res.iterations)
    beta = float(fit_res.coefficients[-1])
    variance = float(fit_res.variances[-1])
    if not (math.isfinite(variance) and variance > 0):
        return CovariateScreenRecord(j, beta, nan, nan, nan, SINGULAR, fit_res.iterations)
    sigma = math.sqrt(variance)
    return CovariateScreenRecord(
        index=j,
        beta_hat=beta,
        sigma_hat=sigma,
        wald=abs(beta) / sigma,
        plik=fit_res.loglik - null_loglik,
        fit_status=CONVERGED,
        iterations=fit_res.iterations,
        conditioning_coefficients=tuple(float(v) for v in fit_res.coefficients[:-1]),
    )


def per_candidate_screen(dataset, conditioning):
    """Screening records from one newton_loop_fit per candidate, warm-started from the null fit.

    A constant candidate is not fitted: it is singular whatever C is.
    """
    null_fit = newton_loop_fit(dataset, conditioning.indices)
    init = np.append(null_fit.coefficients, 0.0)
    nan = float("nan")
    records = []
    for j in conditioning.complement(dataset.p):
        if np.ptp(dataset.column(j)) == 0:
            records.append(CovariateScreenRecord(j, nan, nan, nan, nan, SINGULAR, 0))
        else:
            records.append(_fit_one(dataset, list(conditioning.indices) + [j], init, null_fit.loglik))
    return records


def _parse_cell(text, row, col_name):
    try:
        value = float(text)
    except ValueError:
        raise CSVParseError(f"row {row}, column '{col_name}': cannot parse '{text}'") from None
    if not math.isfinite(value):
        raise CSVParseError(f"row {row}, column '{col_name}': non-finite value '{text}'")
    return value


def per_cell_read_csv(path, schema: ColumnSchema = ColumnSchema()) -> SurvivalDataset:
    """Load a dataset from a comma-separated UTF-8 file with a header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CSVParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for required in (schema.time_col, schema.status_col):
            if required not in header:
                raise CSVParseError(f"{path}: missing required column '{required}'")
        cov_names = [h for h in header if h not in (schema.time_col, schema.status_col)]
        if not cov_names:
            raise CSVParseError(f"{path}: no covariate columns")
        pos = {name: header.index(name) for name in header}

        times, statuses, rows = [], [], []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CSVParseError(f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}")
            times.append(_parse_cell(row[pos[schema.time_col]], row_num, schema.time_col))
            statuses.append(_parse_cell(row[pos[schema.status_col]], row_num, schema.status_col))
            rows.append([_parse_cell(row[pos[name]], row_num, name) for name in cov_names])

    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {len(rows)}")
    return SurvivalDataset(times, statuses, np.array(rows, dtype=float), cov_names)


def per_cell_repr_write_rows(path, header, rows):
    """The CSV writers before ``data.write_rows``: floats, numpy or not, as repr(float(v)), ints as int."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    repr(float(v)) if isinstance(v, (float, np.floating))
                    else int(v) if isinstance(v, (int, np.integer)) else v
                    for v in row
                ]
            )


def record_loop_result_to_csv(result, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "name", "beta_hat", "sigma_hat", "wald", "plik", "fit_status"])
        for rec in result.records:
            writer.writerow(
                [
                    rec.index,
                    result.covariate_names[rec.index - 1],
                    repr(rec.beta_hat),
                    repr(rec.sigma_hat),
                    repr(rec.wald),
                    repr(rec.plik),
                    rec.fit_status,
                ]
            )


def json_dump_result_to_json(result, path):
    payload = {
        "conditioning": list(result.conditioning.indices),
        "null_fit": {
            "coefficients": [float(v) for v in result.null_fit.coefficients],
            "loglik": result.null_fit.loglik,
            "iterations": result.null_fit.iterations,
            "converged": result.null_fit.converged,
        },
        "records": [
            {
                "index": rec.index,
                "name": result.covariate_names[rec.index - 1],
                "beta_hat": rec.beta_hat,
                "sigma_hat": rec.sigma_hat,
                "wald": rec.wald,
                "plik": rec.plik,
                "fit_status": rec.fit_status,
                "iterations": rec.iterations,
                "conditioning_coefficients": list(rec.conditioning_coefficients),
            }
            for rec in result.records
        ],
        "rankings": {name: list(ranking) for name, ranking in result.rankings.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def full_matrix_covariates(config, rng):
    """The (n, p) design drawn in one piece, one branch per correlation kind."""
    n, p, rho = config.n, config.p, config.rho
    if config.correlation == INDEPENDENT or rho == 0.0:
        return simulate._standard_normal(rng, (n, p))
    if config.correlation == EQUICORRELATED:
        eps = simulate._standard_normal(rng, (n, p))
        eta = simulate._standard_normal(rng, (n, 1))
        return np.sqrt(1.0 - rho) * eps + np.sqrt(rho) * eta
    assert config.correlation == BLOCK_LAST_INDEPENDENT
    eps = simulate._standard_normal(rng, (n, p))
    eta = simulate._standard_normal(rng, (n, 1))
    z = eps.copy()
    z[:, : p - 1] = np.sqrt(1.0 - rho) * eps[:, : p - 1] + np.sqrt(rho) * eta
    return z


def full_matrix_replicate(config, replicate_id):
    """(covariates, follow-up times, status) of a replicate whose censor_upper is set."""
    rng = simulate._rng(config.seed, replicate_id, simulate._STREAM_REPLICATE)
    z = full_matrix_covariates(config, rng)
    t, _ = gen_survival_times(z, config.dense_beta(), config.intercept, rng)
    if np.isfinite(config.censor_upper):
        c_times = config.censor_upper * rng.random(config.n)
        return z, np.minimum(t, c_times), (t <= c_times).astype(int)
    return z, t, np.ones(config.n, dtype=int)


def full_matrix_calibrate_censoring(config, target=None):
    """Bisection for c on a batch whose covariates are the full (replicates * n, p) matrix.

    The replicates and the tolerance are those the ``simulate`` module holds at call time.
    """
    if target is None:
        target = config.censor_target
    if not 0.0 < target < 1.0:
        raise ValidationError("calibration target must be in (0, 1)")
    rng = simulate._rng(config.seed, 0, simulate._STREAM_CALIBRATION)
    batch = simulate._CALIBRATION_REPLICATES * config.n
    tolerance = simulate._CALIBRATION_TOLERANCE
    batch_config = replace(config, n=batch)
    z = full_matrix_covariates(batch_config, rng)
    t, _ = gen_survival_times(z, config.dense_beta(), config.intercept, rng)
    u = rng.random(batch)

    def rate(c):
        return float(np.mean(t > c * u))

    lo, hi = 1e-6, 1e6
    if rate(lo) < target or rate(hi) > target:
        raise CalibrationError(f"target {target} unreachable within [{lo}, {hi}]")
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        r = rate(mid)
        if abs(r - target) <= tolerance:
            return float(mid), r
        if r > target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-12:
            break
    mid = np.sqrt(lo * hi)
    r = rate(mid)
    if abs(r - target) <= 5 * tolerance:
        return float(mid), r
    raise CalibrationError(f"calibration did not converge: best rate {r} vs target {target}")


def per_column_cris(dataset):
    """CRIS with an n x n matrix of event-weighted comparable pairs, one column at a time."""
    w = ipw_weights(dataset)
    time = dataset.time
    pair_w = w[:, None] * (time[:, None] < time[None, :])  # w_i * I[X_i < X_k]
    total = pair_w.sum()
    if total <= 0:
        raise ValidationError("no comparable pairs for the rank statistic")
    z_sorted = np.sort(dataset.covariates, axis=0)
    degenerate = z_sorted[0] == z_sorted[-1]
    tied = np.any(z_sorted[1:] == z_sorted[:-1], axis=0)
    values = np.zeros(dataset.p)
    for j in np.flatnonzero(~degenerate):
        z = dataset.covariates[:, j]
        if tied[j]:
            conc = 0.5 * np.sign(z[None, :] - z[:, None])
        else:  # equal to the sign form when no pair ties
            conc = (z[:, None] < z[None, :]).astype(float) - 0.5
        values[j] = min(2.0 * abs(np.sum(pair_w * conc)) / total, 1.0)
    ranking = rank(np.arange(1, dataset.p + 1), values)
    return BaselineResult(CRIS, values, ranking, tuple(int(j) + 1 for j in np.flatnonzero(degenerate)))


def float_sign_cris(dataset):
    """CRIS statistics from the float-sign one-pass kernel: sign(Z_kj - Z_ij) on the raw columns.

    The same pass over the events and the same per-weight grouping as ``cris``,
    with the sign counts taken as float64 and summed as floats.
    """
    w = ipw_weights(dataset)
    time, x = dataset.time, dataset.covariates
    order = np.argsort(-time)
    x_desc = x[order]
    later = np.searchsorted(-time[order], -time, side="left")
    total = w @ later
    if total <= 0:
        raise ValidationError("no comparable pairs for the rank statistic")
    events = np.flatnonzero(w * later)
    num = np.zeros(dataset.p)
    for weight in np.unique(w[events]):
        group = events[w[events] == weight]
        num += weight * sum(np.sign(x_desc[: later[i]] - x[i]).sum(axis=0) for i in group)
    return np.minimum(np.abs(num) / total, 1.0)
