"""Memory bounds of the screen and diagnose paths, measured with tracemalloc at n=100, p=1000.

numpy reports its array buffers to tracemalloc, so a peak counts every array
a call holds at once.
"""

import tracemalloc

import numpy as np
import pytest

from coxscreen import cox
from coxscreen.data import ConditioningSet, read_csv, write_csv
from coxscreen.diagnostics import signal_strengths_to_csv
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


def test_read_csv_parses_into_the_datasets_own_arrays(dataset, tmp_path):
    # one copy, one block of lines and its table, and the names; concatenating block tables read 2.09
    path = tmp_path / "d.csv"
    write_csv(dataset, path)
    assert traced_peak(lambda: read_csv(path)) <= 1.7 * dataset.covariates.nbytes


def test_signal_strengths_to_csv_holds_one_chunk_of_the_covariates(dataset, tmp_path):
    # gathering and centring every candidate column at once read 2.14 copies
    path = tmp_path / "s.csv"
    peak = traced_peak(lambda: signal_strengths_to_csv(dataset, ConditioningSet((1,)), path))
    assert peak <= 0.6 * dataset.covariates.nbytes


def test_result_to_json_holds_under_twice_its_file(dataset, tmp_path):
    # records are encoded one at a time
    result = screen(dataset, ConditioningSet((1,)))
    path = tmp_path / "r.json"
    peak = traced_peak(lambda: result_to_json(result, path))
    assert peak <= 2 * path.stat().st_size


def test_result_to_json_joins_each_ranking_into_one_string(dataset, tmp_path):
    # encoding the rankings as lists held every ranked index as its own string, 0.87 files
    result = screen(dataset, ConditioningSet((1,)))
    path = tmp_path / "r.json"
    peak = traced_peak(lambda: result_to_json(result, path))
    assert peak <= 0.6 * path.stat().st_size


def test_sorted_view_holds_no_copy_of_the_covariates(dataset):
    n, p = dataset.covariates.shape
    peak = traced_peak(lambda: cox._SortedView(dataset))
    view = cox._SortedView(dataset)
    sizes = [np.size(value) for value in vars(view).values() if isinstance(value, np.ndarray)]
    assert max(sizes) <= n and peak < n * p  # bytes, an eighth of one copy
