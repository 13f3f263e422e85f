"""Seeded generators for the benchmark designs and censoring calibration.

Survival times follow a Cox model with unit baseline hazard, so given the
covariates the event time is exponential with rate exp(intercept + beta'Z)
and can be drawn by exact inverse transform. Censoring times are U[0, c].
Z is Gaussian, so calibrating c draws the linear predictor straight from its
law N(intercept, beta' Sigma beta), at a cost that does not grow with p.

Randomness comes from counter-based Philox streams keyed by (seed,
replicate_id, stream), so any replicate is reproducible on its own and
independent of generation order. Normal variates are produced by applying
the inverse normal CDF to uniform draws.
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


def _standard_normal(rng, shape):
    from scipy.special import ndtri  # imported here: scipy.special doubles the package's import time

    u = rng.random(shape)
    return ndtri(np.maximum(u, 1e-300))


def gen_covariates(config: SimConfig, rng) -> np.ndarray:
    """Rows i.i.d. normal with the configured equal-correlation structure."""
    n, p, rho = config.n, config.p, config.rho
    eps = _standard_normal(rng, (n, p))
    if config.correlation == INDEPENDENT or rho == 0.0:
        return eps
    eta = _standard_normal(rng, (n, 1))
    z = np.sqrt(1.0 - rho) * eps + np.sqrt(rho) * eta
    if config.correlation == BLOCK_LAST_INDEPENDENT:
        # first p-1 columns equicorrelated, last column independent
        z[:, -1] = eps[:, -1]
    return z


def _lp_variance(config: SimConfig) -> float:
    """Var(beta'Z) = beta' Sigma beta, from the sparse beta in O(|beta|)."""
    rho = 0.0 if config.correlation == INDEPENDENT else config.rho
    last = config.p if config.correlation == BLOCK_LAST_INDEPENDENT else None
    block = np.array([v for j, v in config.beta.items() if j != last], dtype=float)
    return float((1.0 - rho) * np.sum(block**2) + rho * np.sum(block) ** 2
                 + config.beta.get(last, 0.0) ** 2)


def _event_times(lp, rng):
    """Exponential times with rate exp(lp), lp clipped at +/-_LP_CLIP; returns (times, clipped)."""
    clipped = int(np.sum(np.abs(lp) > _LP_CLIP))
    lp = np.clip(lp, -_LP_CLIP, _LP_CLIP)
    u = np.maximum(rng.random(lp.shape[0]), 1e-300)
    return -np.log(u) / np.exp(lp), clipped


def gen_survival_times(covariates, beta, intercept, rng):
    """Inverse-transform exponential event times for a unit baseline hazard.

    Returns (times, clipped) where clipped counts linear predictors truncated
    at +/-700 to keep exp finite.
    """
    return _event_times(intercept + covariates @ np.asarray(beta, dtype=float), rng)


def calibrate_censoring(config: SimConfig, target=None, replicates=200, tolerance=0.01):
    """Bisection on the censoring upper bound c of U[0, c].

    The censoring proportion P(T > C) is monotone decreasing in c; a fixed
    Monte-Carlo batch of replicates * n subjects is drawn once and reused for
    every candidate, so the search is deterministic given the config seed.
    The batch draws the linear predictors straight from their normal law, so
    its time and memory do not grow with p. Returns (c, achieved_rate).
    """
    if target is None:
        target = config.censor_target
    if not 0.0 < target < 1.0:
        raise ValidationError("calibration target must be in (0, 1)")
    if replicates < 1:
        raise ValidationError(f"calibration needs replicates >= 1, got {replicates}")
    if not tolerance >= 0.0:
        raise ValidationError(f"calibration tolerance must be >= 0, got {tolerance}")
    rng = _rng(config.seed, 0, _STREAM_CALIBRATION)
    batch = replicates * config.n
    lp = config.intercept + np.sqrt(_lp_variance(config)) * _standard_normal(rng, batch)
    t, _ = _event_times(lp, rng)
    u = rng.random(batch)

    def rate(c):
        return float(np.mean(t > c * u))

    lo, hi = 1e-6, 1e6
    if rate(lo) < target or rate(hi) > target:
        raise CalibrationError(f"target {target} unreachable within [{lo}, {hi}]")
    for _ in range(200):
        mid = np.sqrt(lo * hi)  # bisect on log scale: c spans many decades
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


def config_to_kv(config: SimConfig, path):
    """Serialize to a flat key=value file (beta entries as beta.<j>=<value>)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n={config.n}\n")
        fh.write(f"p={config.p}\n")
        for j in sorted(config.beta):
            fh.write(f"beta.{j}={config.beta[j]!r}\n")
        fh.write(f"intercept={config.intercept!r}\n")
        fh.write(f"correlation={config.correlation}\n")
        fh.write(f"rho={config.rho!r}\n")
        fh.write(f"censor_target={config.censor_target!r}\n")
        if config.censor_upper is not None:
            fh.write(f"censor_upper={config.censor_upper!r}\n")
        fh.write(f"seed={config.seed}\n")


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
