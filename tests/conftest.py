import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from coxscreen.data import SurvivalDataset


def random_dataset(rng, n, p, beta=None, censor_upper=None):
    """Small Cox-model dataset with exponential baseline, used across tests."""
    z = rng.normal(size=(n, p))
    if beta is None:
        beta = np.zeros(p)
    t = -np.log(rng.uniform(size=n)) / np.exp(z @ beta)
    if censor_upper is None:
        status = np.ones(n, dtype=int)
        x = t
    else:
        c = rng.uniform(0, censor_upper, size=n)
        status = (t <= c).astype(int)
        x = np.minimum(t, c)
    if status.sum() == 0:
        status[int(np.argmin(x))] = 1
    return SurvivalDataset(x, status, z)


def tied_censored_dataset(rng, n, p, decimals):
    """Times rounded to `decimals` places, so ties are common, and columns of mixed scale."""
    z = rng.normal(size=(n, p)) * rng.choice([0.3, 1.0, 3.0], size=p)
    t = np.round(-np.log(rng.uniform(size=n)) / np.exp(z[:, 0] - 0.5 * z[:, 1]), decimals)
    c = np.round(rng.uniform(0.0, 3.0, size=n), decimals)
    status = (t <= c).astype(int)
    status[int(np.argmin(t))] = 1
    return SurvivalDataset(np.maximum(np.minimum(t, c), 0.0), status, z)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
