"""Seeded generators for the benchmark designs and censoring calibration.

Survival times follow a Cox model with unit baseline hazard, so given the
covariates the event time is exponential with rate exp(intercept + beta'Z)
and can be drawn by exact inverse transform. Censoring times are U[0, c].
Z is Gaussian, so calibrating c draws the linear predictor straight from its
law N(intercept, beta' Sigma beta), at a cost that does not grow with p.

Randomness comes from counter-based Philox streams keyed by (seed,
replicate_id, stream), so any replicate is reproducible on its own and
independent of generation order. Normal variates are produced by applying
the inverse normal CDF to uniform draws. `_ndtri` ports cephes ndtri, the
routine scipy.special.ndtri runs: it matches scipy bit for bit in the centre,
exp(-2) < u <= 1 - exp(-2), and within 8 ulp in the tails, where numpy's log
may round differently from the C library's (about 2 tail draws in 10^4 differ).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import SurvivalDataset
from .errors import CalibrationError, ValidationError

INDEPENDENT = "independent"
EQUICORRELATED = "equicorrelated"
BLOCK_LAST_INDEPENDENT = "block_last_independent"

_CORRELATIONS = (INDEPENDENT, EQUICORRELATED, BLOCK_LAST_INDEPENDENT)

_STREAM_REPLICATE = 0
_STREAM_CALIBRATION = 1
_CALIBRATION_REPLICATES = 200  # calibrate_censoring draws this many replicates of n subjects
_CALIBRATION_TOLERANCE = 0.01  # and stops at a censoring rate this close to the target
_LP_CLIP = 700.0


@dataclass(frozen=True)
class SimConfig:
    n: int
    p: int
    beta: dict  # sparse true coefficients, 1-based covariate index -> value
    intercept: float = 0.0
    correlation: str = INDEPENDENT
    rho: float = 0.0
    censor_target: float = 0.0
    censor_upper: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.p < 1:
            raise ValidationError("need n >= 2 and p >= 1")
        if self.correlation not in _CORRELATIONS:
            raise ValidationError(f"unknown correlation kind '{self.correlation}'")
        if not 0.0 <= self.rho < 1.0:
            raise ValidationError("rho must be in [0, 1)")
        if not 0.0 <= self.censor_target < 1.0:
            raise ValidationError("censor_target must be in [0, 1)")
        if any(not 1 <= j <= self.p for j in self.beta):
            raise ValidationError("beta indices must lie in [1, p]")

    @property
    def true_active(self):
        return tuple(sorted(j for j, v in self.beta.items() if v != 0.0))

    def dense_beta(self):
        beta = np.zeros(self.p)
        for j, v in self.beta.items():
            beta[j - 1] = v
        return beta


@dataclass(frozen=True)
class SimReplicate:
    dataset: SurvivalDataset
    true_active: tuple
    realized_censoring: float
    replicate_id: int
    clipped_linear_predictors: int = 0


def example_config(example, n=100, p=1000, censor_target=0.2, seed=0) -> SimConfig:
    """The three benchmark designs (hidden variable at 6, p, p respectively)."""
    if example == 1:
        if p < 6:
            raise ValidationError("example 1 needs p >= 6")
        beta = {j: 1.0 for j in range(1, 6)}
        beta[6] = -2.5
        return SimConfig(n, p, beta, 0.0, EQUICORRELATED, 0.5, censor_target, None, seed)
    if example == 2:
        if p < 2:
            raise ValidationError("examples 2 and 3 need p >= 2")
        beta = {1: 10.0, p: 1.0}
        return SimConfig(n, p, beta, -1.0, INDEPENDENT, 0.0, censor_target, None, seed)
    if example == 3:
        if p < 2:
            raise ValidationError("examples 2 and 3 need p >= 2")
        beta = {1: 10.0, p: 1.0}
        return SimConfig(n, p, beta, -1.0, BLOCK_LAST_INDEPENDENT, 0.9, censor_target, None, seed)
    raise ValidationError(f"unknown example {example!r}; expected 1, 2 or 3")


def _rng(seed, replicate_id, stream):
    key = (int(seed) & (2**64 - 1)) + ((int(replicate_id) & (2**63 - 1)) << 64)
    counter = int(stream) << 128  # distinct streams start in disjoint counter blocks
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


# Cephes ndtri (Moshier 1989): rational approximations in y - 1/2 for the centre
# and in z = 1 / sqrt(-2 log y) for the tails, z > 1/8 and z <= 1/8
_EXP_M2 = 0.13533528323661269189  # exp(-2), the centre's edge
_SQRT_2PI = 2.50662827463100050242
_NDTRI_BLOCK = 16384
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule, in cephes polevl's order."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """_polevl with a leading coefficient 1 that coef leaves out (cephes p1evl)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ndtri(y):
    """Inverse standard normal CDF of a flat array with 0 < y < 1.

    A port of cephes ndtri with its coefficients and its order of operations,
    so it matches scipy.special.ndtri bit for bit wherever numpy's log
    rounds as the C library's does.
    """
    t = y - 0.5
    t2 = t * t
    x = _polevl(t2, _P0)
    x *= t2
    x /= _p1evl(t2, _Q0)
    x *= t
    x += t
    x *= _SQRT_2PI
    upper = y > 1.0 - _EXP_M2
    tail = np.flatnonzero(upper | (y <= _EXP_M2))
    if tail.size:
        upper = upper[tail]
        yt = y[tail]
        yt[upper] = 1.0 - yt[upper]
        r = np.sqrt(-2.0 * np.log(yt))
        z = 1.0 / r
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
        far = np.flatnonzero(r >= 8.0)  # y <= exp(-32)
        if far.size:
            zf = z[far]
            x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
        xt = r - np.log(r) / r
        xt -= x1
        x[tail] = np.where(upper, xt, -xt)
    return x


def _standard_normal(rng, shape):
    u = rng.random(shape).ravel()
    np.maximum(u, 1e-300, out=u)
    for start in range(0, u.size, _NDTRI_BLOCK):  # blocks keep _ndtri's temporaries in cache
        block = u[start:start + _NDTRI_BLOCK]
        block[:] = _ndtri(block)
    return u.reshape(shape)


def gen_covariates(config: SimConfig, rng) -> np.ndarray:
    """Rows i.i.d. normal with the configured equal-correlation structure.

    The shared factor is mixed into the (n, p) draw in place, so the design
    costs one n-by-p array plus O(n) for the factor.
    """
    n, p, rho = config.n, config.p, config.rho
    z = _standard_normal(rng, (n, p))
    if config.correlation == INDEPENDENT or rho == 0.0:
        return z
    eta = _standard_normal(rng, (n, 1))
    # block_last_independent: first p-1 columns equicorrelated, last column independent
    mixed = z[:, :-1] if config.correlation == BLOCK_LAST_INDEPENDENT else z
    mixed *= np.sqrt(1.0 - rho)
    mixed += np.sqrt(rho) * eta
    return z


def _lp_variance(config: SimConfig) -> float:
    """Var(beta'Z) = beta' Sigma beta, from the sparse beta in O(|beta|)."""
    rho = 0.0 if config.correlation == INDEPENDENT else config.rho
    last = config.p if config.correlation == BLOCK_LAST_INDEPENDENT else None
    block = np.array([v for j, v in config.beta.items() if j != last], dtype=float)
    return float((1.0 - rho) * np.sum(block**2) + rho * np.sum(block) ** 2
                 + config.beta.get(last, 0.0) ** 2)


def _event_times(lp, rng):
    """Exponential times with rate exp(lp), lp clipped at +/-_LP_CLIP; returns (times, clipped).

    Works in place: lp is overwritten with exp(clip(lp)), and the times are
    computed in the buffer of the uniform draws. Pass only a float array
    that the caller owns and no longer needs, never caller data.
    """
    clipped = int(np.sum(np.abs(lp) > _LP_CLIP))
    np.clip(lp, -_LP_CLIP, _LP_CLIP, out=lp)
    t = rng.random(lp.shape[0])
    np.maximum(t, 1e-300, out=t)
    np.log(t, out=t)
    np.negative(t, out=t)
    np.exp(lp, out=lp)
    t /= lp
    return t, clipped


def gen_survival_times(covariates, beta, intercept, rng):
    """Inverse-transform exponential event times for a unit baseline hazard.

    Returns (times, clipped) where clipped counts linear predictors truncated
    at +/-700 to keep exp finite. covariates and beta are left unchanged.
    """
    return _event_times(intercept + covariates @ np.asarray(beta, dtype=float), rng)


def calibrate_censoring(config: SimConfig, target=None):
    """Bisection on the censoring upper bound c of U[0, c].

    The censoring proportion P(T > C) is monotone decreasing in c; a fixed
    Monte-Carlo batch of _CALIBRATION_REPLICATES * n subjects is drawn once
    and reused for every candidate, so the search is deterministic given the
    config seed.
    The batch draws the linear predictors straight from their normal law, so
    its time and memory do not grow with p. The draws become predictors and
    then event times in place, the censoring uniforms reuse the freed
    buffer, and every candidate c compares through one preallocated product
    buffer, so the search holds at most three batch-sized float arrays and
    one boolean array. The search stops at a rate within
    _CALIBRATION_TOLERANCE of the target, and accepts one within 5 times
    that if the bisection runs out. Returns (c, achieved_rate).
    """
    if target is None:
        target = config.censor_target
    if not 0.0 < target < 1.0:
        raise ValidationError("calibration target must be in (0, 1)")
    rng = _rng(config.seed, 0, _STREAM_CALIBRATION)
    batch = _CALIBRATION_REPLICATES * config.n
    lp = _standard_normal(rng, batch)
    lp *= np.sqrt(_lp_variance(config))
    lp += config.intercept
    t, _ = _event_times(lp, rng)
    u = rng.random(batch, out=lp)  # the censoring uniforms, drawn into the spent exp(lp)
    product = np.empty(batch)
    above = np.empty(batch, dtype=bool)

    def rate(c):
        np.multiply(c, u, out=product)
        np.greater(t, product, out=above)
        return int(np.count_nonzero(above)) / batch  # the float np.mean(t > c * u) gives

    lo, hi = 1e-6, 1e6
    if rate(lo) < target or rate(hi) > target:
        raise CalibrationError(f"target {target} unreachable within [{lo}, {hi}]")
    for _ in range(200):
        mid = np.sqrt(lo * hi)  # bisect on log scale: c spans many decades
        r = rate(mid)
        if abs(r - target) <= _CALIBRATION_TOLERANCE:
            return float(mid), r
        if r > target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-12:
            break
    mid = np.sqrt(lo * hi)
    r = rate(mid)
    if abs(r - target) <= 5 * _CALIBRATION_TOLERANCE:
        return float(mid), r
    raise CalibrationError(f"calibration did not converge: best rate {r} vs target {target}")


def with_censor_upper(config: SimConfig) -> SimConfig:
    """The config with censor_upper set: calibrated to censor_target, or inf at target 0.

    Calibration draws from one stream per seed, whatever the replicate, so
    callers generating several replicates resolve the bound once with this.
    """
    if config.censor_upper is not None:
        return config
    if config.censor_target == 0.0:
        return replace(config, censor_upper=np.inf)
    c, _ = calibrate_censoring(config)
    return replace(config, censor_upper=c)


def gen_replicate(config: SimConfig, replicate_id: int) -> SimReplicate:
    """One seeded dataset realization; deterministic in (config.seed, replicate_id)."""
    config = with_censor_upper(config)
    rng = _rng(config.seed, replicate_id, _STREAM_REPLICATE)
    z = gen_covariates(config, rng)
    t, clipped = gen_survival_times(z, config.dense_beta(), config.intercept, rng)
    if np.isfinite(config.censor_upper):
        c_times = config.censor_upper * rng.random(config.n)
        status = (t <= c_times).astype(int)
        x = np.minimum(t, c_times)
    else:
        status = np.ones(config.n, dtype=int)
        x = t
    dataset = SurvivalDataset(x, status, z)
    return SimReplicate(
        dataset=dataset,
        true_active=config.true_active,
        realized_censoring=float(np.mean(status == 0)),
        replicate_id=replicate_id,
        clipped_linear_predictors=clipped,
    )


# the SimConfig fields a kv file sets, with their types; beta.<j>=<value> lines set beta
_KV_FIELDS = {
    "n": int,
    "p": int,
    "intercept": float,
    "correlation": str,
    "rho": float,
    "censor_target": float,
    "censor_upper": float,
    "seed": int,
}


def config_to_kv(config: SimConfig, path):
    """Serialize to a flat key=value file, one line per _KV_FIELDS field in its order.

    The beta.<j>=<value> lines follow p, floats are written as their repr,
    and censor_upper only when it is set.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for key, kind in _KV_FIELDS.items():
            value = getattr(config, key)
            if value is None:
                continue
            fh.write(f"{key}={value!r}\n" if kind is float else f"{key}={value}\n")
            if key == "p":
                for j in sorted(config.beta):
                    fh.write(f"beta.{j}={config.beta[j]!r}\n")


def _kv_value(path, line_num, key, text, kind):
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{path}:{line_num}: {key}: expected {kind.__name__}, got '{text}'") from None


def config_from_kv(path) -> SimConfig:
    fields = {}
    beta = {}
    with open(path, encoding="utf-8") as fh:
        for line_num, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{line_num}: expected key=value, got '{line}'")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if key.startswith("beta."):
                j = _kv_value(path, line_num, key, key[5:], int)
                beta[j] = _kv_value(path, line_num, key, value, float)
            elif key in _KV_FIELDS:
                fields[key] = _kv_value(path, line_num, key, value, _KV_FIELDS[key])
            else:
                known = ", ".join([*_KV_FIELDS, "beta.<j>"])
                raise ValidationError(f"{path}:{line_num}: {key}: unknown key; known keys are {known}")
    for key in ("n", "p"):
        if key not in fields:
            raise ValidationError(f"{path}: missing required key '{key}'")
    return SimConfig(beta=beta, **fields)
