"""Memory bounds of the screen path, measured with tracemalloc at n=100, p=1000.

numpy reports its array buffers to tracemalloc, so a peak counts every array
a call holds at once.
"""

import tracemalloc

import numpy as np
import pytest

from coxscreen import cox
from coxscreen.data import ConditioningSet, read_csv, write_csv
from coxscreen.screening import result_to_json, screen

from conftest import random_dataset

N, P = 100, 1000


def traced_peak(call):
    """The tracemalloc peak of one call, in bytes, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dataset():
    return random_dataset(np.random.default_rng(18), N, P, beta=np.r_[1.0, -0.5, np.zeros(P - 2)],
                          censor_upper=3.0)


def test_read_csv_holds_little_more_than_two_copies_of_the_covariates(dataset, tmp_path):
    # the parsed blocks and the dataset built from them
    path = tmp_path / "d.csv"
    write_csv(dataset, path)
    assert traced_peak(lambda: read_csv(path)) <= 2.5 * dataset.covariates.nbytes


def test_result_to_json_holds_under_twice_its_file(dataset, tmp_path):
    # records are encoded one at a time; the peak is the encoding of the rankings
    result = screen(dataset, ConditioningSet((1,)))
    path = tmp_path / "r.json"
    peak = traced_peak(lambda: result_to_json(result, path))
    assert peak <= 2 * path.stat().st_size


def test_sorted_view_holds_no_copy_of_the_covariates(dataset):
    n, p = dataset.covariates.shape
    peak = traced_peak(lambda: cox._SortedView(dataset))
    view = cox._SortedView(dataset)
    sizes = [np.size(value) for value in vars(view).values() if isinstance(value, np.ndarray)]
    assert max(sizes) <= n and peak < n * p  # bytes, an eighth of one copy
