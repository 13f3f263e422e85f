"""Seeded generators for the benchmark designs and censoring calibration.

Survival times follow a Cox model with unit baseline hazard, so given the
covariates the event time is exponential with rate exp(intercept + beta'Z)
and can be drawn by exact inverse transform. Censoring times are U[0, c].

Randomness comes from counter-based Philox streams keyed by (seed,
replicate_id, stream), so any replicate is reproducible on its own and
independent of generation order. Normal variates are produced by applying
the inverse normal CDF to uniform draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .data import SurvivalDataset
from .errors import CalibrationError, ValidationError

INDEPENDENT = "independent"
EQUICORRELATED = "equicorrelated"
BLOCK_LAST_INDEPENDENT = "block_last_independent"

_CORRELATIONS = (INDEPENDENT, EQUICORRELATED, BLOCK_LAST_INDEPENDENT)

_STREAM_REPLICATE = 0
_STREAM_CALIBRATION = 1
_LP_CLIP = 700.0
_BLOCK_ELEMENTS = 1 << 20  # uniforms drawn at once by _covariates (8 MB)


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
    u = rng.random(shape)
    return ndtri(np.maximum(u, 1e-300))


def _covariates(config: SimConfig, rng, rows, columns) -> np.ndarray:
    """`rows` draws of the configured design, keeping only `columns` (a 0-based index array).

    Every column is drawn, in row blocks of about _BLOCK_ELEMENTS uniforms
    (at least one row), so the stream is consumed exactly as one (rows, p)
    draw would consume it and the kept columns are bit-identical to those of
    the full matrix, while memory stays bounded whatever p is.
    """
    p, rho = config.p, config.rho
    block = max(1, _BLOCK_ELEMENTS // p)
    eps = np.empty((rows, len(columns)))
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        eps[start:stop] = rng.random((stop - start, p))[:, columns]
    eps = ndtri(np.maximum(eps, 1e-300))
    if config.correlation == INDEPENDENT or rho == 0.0:
        return eps
    eta = _standard_normal(rng, (rows, 1))
    z = np.sqrt(1.0 - rho) * eps + np.sqrt(rho) * eta
    if config.correlation == BLOCK_LAST_INDEPENDENT:
        # first p-1 columns equicorrelated, last column independent
        last = columns == p - 1
        z[:, last] = eps[:, last]
    return z


def gen_covariates(config: SimConfig, rng) -> np.ndarray:
    """Rows i.i.d. normal with the configured equal-correlation structure."""
    return _covariates(config, rng, config.n, np.arange(config.p))


def gen_survival_times(covariates, beta, intercept, rng):
    """Inverse-transform exponential event times for a unit baseline hazard.

    Returns (times, clipped) where clipped counts linear predictors truncated
    at +/-700 to keep exp finite.
    """
    lp = intercept + covariates @ np.asarray(beta, dtype=float)
    clipped = int(np.sum(np.abs(lp) > _LP_CLIP))
    lp = np.clip(lp, -_LP_CLIP, _LP_CLIP)
    u = np.maximum(rng.random(covariates.shape[0]), 1e-300)
    return -np.log(u) / np.exp(lp), clipped


def calibrate_censoring(config: SimConfig, target=None, replicates=200, tolerance=0.01):
    """Bisection on the censoring upper bound c of U[0, c].

    The censoring proportion P(T > C) is monotone decreasing in c; a fixed
    Monte-Carlo batch of replicates * n subjects is drawn once and reused for
    every candidate, so the search is deterministic given the config seed.
    The batch draws the same stream as a replicate design of that many rows
    but keeps only the active columns, so its memory does not grow with p.
    Returns (c, achieved_rate).
    """
    if target is None:
        target = config.censor_target
    if not 0.0 < target < 1.0:
        raise ValidationError("calibration target must be in (0, 1)")
    rng = _rng(config.seed, 0, _STREAM_CALIBRATION)
    batch = replicates * config.n
    beta = config.dense_beta()
    active = np.flatnonzero(beta)
    z = _covariates(config, rng, batch, active)
    t, _ = gen_survival_times(z, beta[active], config.intercept, rng)
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
                beta[int(key[5:])] = float(value)
            else:
                fields[key] = value
    try:
        return SimConfig(
            n=int(fields["n"]),
            p=int(fields["p"]),
            beta=beta,
            intercept=float(fields.get("intercept", "0.0")),
            correlation=fields.get("correlation", INDEPENDENT),
            rho=float(fields.get("rho", "0.0")),
            censor_target=float(fields.get("censor_target", "0.0")),
            censor_upper=float(fields["censor_upper"]) if "censor_upper" in fields else None,
            seed=int(fields.get("seed", "0")),
        )
    except KeyError as exc:
        raise ValidationError(f"{path}: missing required key {exc}") from None
