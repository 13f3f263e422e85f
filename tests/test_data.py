import numpy as np
import pytest

from coxscreen.data import (
    ColumnSchema,
    ConditioningSet,
    SurvivalDataset,
    read_csv,
    standardize,
    validate,
    write_csv,
)
from coxscreen.errors import CSVParseError, ValidationError

from conftest import random_dataset
from oracles import build_risk_sets


def make(times, statuses, covs):
    return SurvivalDataset(times, statuses, np.asarray(covs, dtype=float))


class TestValidate:
    def test_event_counts(self):
        ds = make([1, 2, 3], [1, 0, 1], [[0.1], [0.2], [0.3]])
        report = validate(ds)
        assert report.events == 2
        assert report.censored == 1

    def test_all_censored_rejected(self):
        ds = make([1, 2, 3], [0, 0, 0], [[0.1], [0.2], [0.3]])
        with pytest.raises(ValidationError, match="no events"):
            validate(ds)

    def test_constant_column_flagged(self):
        ds = make([1, 2, 3], [1, 1, 0], [[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        assert validate(ds).constant_columns == [1]

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError, match="time"):
            make([1, -2], [1, 1], [[0.1], [0.2]])

    def test_nonfinite_covariate_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            make([1, 2], [1, 1], [[0.1], [np.nan]])

    def test_bad_status_rejected(self):
        with pytest.raises(ValidationError, match="status"):
            make([1, 2], [1, 2], [[0.1], [0.2]])

    def test_too_small(self):
        with pytest.raises(ValidationError, match="at least 2"):
            make([1], [1], [[0.1]])


class TestRiskSets:
    def test_strictly_ordered_times(self):
        ds = make([1, 2, 3], [1, 1, 1], [[0.0]] * 3)
        view = build_risk_sets(ds)
        assert [len(m) for m in view.risk_membership] == [3, 2, 1]

    def test_tied_events(self):
        ds = make([2, 2, 3], [1, 1, 1], [[0.0]] * 3)
        view = build_risk_sets(ds)
        assert list(view.event_times) == [2, 3]
        assert list(view.event_counts) == [2, 1]

    def test_censored_exits_before_event(self):
        ds = make([1, 2], [0, 1], [[0.0]] * 2)
        view = build_risk_sets(ds)
        assert list(view.event_times) == [2]
        assert list(view.risk_membership[0]) == [1]

    def test_event_counts_match_validator(self, rng):
        for _ in range(20):
            ds = random_dataset(rng, n=int(rng.integers(5, 30)), p=2, censor_upper=2.0)
            # duplicate some times to exercise ties
            assert build_risk_sets(ds).event_counts.sum() == validate(ds).events

    def test_risk_sets_nested(self, rng):
        ds = random_dataset(rng, 25, 1, censor_upper=1.5)
        view = build_risk_sets(ds)
        for a, b in zip(view.risk_membership, view.risk_membership[1:]):
            assert set(b) <= set(a)

    def test_ties_sort_events_first(self):
        ds = make([2, 2, 3], [0, 1, 1], [[0.0]] * 3)
        assert list(ds.sorted_index[:2]) == [1, 0]


class TestStandardize:
    def test_simple_column(self):
        ds = make([1, 2, 3], [1, 1, 1], [[1.0], [2.0], [3.0]])
        out, info = standardize(ds)
        np.testing.assert_allclose(out.covariates[:, 0], [-1, 0, 1])
        assert info.means[0] == 2.0
        assert info.scales[0] == 1.0

    def test_idempotent(self, rng):
        ds = random_dataset(rng, 30, 3)
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.covariates, once.covariates, atol=1e-12)

    def test_constant_column_errors(self):
        ds = make([1, 2, 3], [1, 1, 1], [[4.0], [4.0], [4.0]])
        with pytest.raises(ValidationError, match="constant"):
            standardize(ds)


class TestCSV:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,z1,z2\n1.0,1,0.5,0.25\n2.0,0,-1.5,3.0\n3.5,1,0.0,1e-3\n")
        ds = read_csv(path)
        assert ds.n == 3 and ds.p == 2
        assert ds.covariate_names == ["z1", "z2"]
        assert ds.time[2] == 3.5

    def test_nan_cell_names_location(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,z1\n1.0,1,0.5\n2.0,0,NaN\n")
        with pytest.raises(CSVParseError, match="row 3, column 'z1'"):
            read_csv(path)

    def test_bad_status_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,z1\n1.0,1,0.5\n2.0,2,0.1\n")
        with pytest.raises(ValidationError, match="status"):
            read_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,status,z1\n1.0,1,0.5\n2.0,0,0.1\n")
        with pytest.raises(CSVParseError, match="missing required column 'time'"):
            read_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status,z1\n1.0,1,0.5\n2.0,0\n")
        with pytest.raises(CSVParseError, match="row 3"):
            read_csv(path)

    def test_roundtrip_exact(self, tmp_path, rng):
        ds = random_dataset(rng, 20, 4, censor_upper=2.0)
        path = tmp_path / "rt.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert back == ds

    def test_custom_schema(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("followup,dead,a,b\n1.0,1,0.5,1.0\n2.0,0,0.1,2.0\n")
        ds = read_csv(path, ColumnSchema("followup", "dead", ["b"]))
        assert ds.p == 1 and ds.covariate_names == ["b"]


class TestConditioningSet:
    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            ConditioningSet((1, 1))

    def test_out_of_range_rejected(self):
        ds = make([1, 2], [1, 1], [[0.1], [0.2]])
        with pytest.raises(ValidationError, match="exceeds"):
            ConditioningSet((3,)).check_against(ds)

    def test_complement(self):
        assert ConditioningSet((2,)).complement(4) == [1, 3, 4]
