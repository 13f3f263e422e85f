import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxscreen import data
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
from oracles import build_risk_sets, per_cell_read_csv


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
        ds = read_csv(path, ColumnSchema("followup", "dead"))
        assert ds.p == 2 and ds.covariate_names == ["a", "b"]
        assert list(ds.time) == [1.0, 2.0] and list(ds.status) == [1, 0]

    @pytest.mark.parametrize(
        "header, name",
        [("time,status,z,z", "z"), ("time,status,a,time", "time"), ("status,a,status,time", "status")],
    )
    def test_duplicate_column_rejected(self, tmp_path, header, name):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n1.0,1,0.5,0.7\n2.0,0,0.1,0.2\n")
        with pytest.raises(CSVParseError, match=f"duplicate column '{name}'"):
            read_csv(path)

    def test_time_column_equal_to_status_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,a\n1.0,0.5\n2.0,0.1\n")
        with pytest.raises(CSVParseError, match="column 't' is both time and status"):
            read_csv(path, ColumnSchema("t", "t"))

    def test_written_file_is_read_in_bulk(self, tmp_path, rng, monkeypatch):
        ds = random_dataset(rng, 30, 5, censor_upper=2.0)
        path = tmp_path / "rt.csv"
        write_csv(ds, path)

        def no_per_cell(*args):
            raise AssertionError("fell back to the per-cell parser")

        monkeypatch.setattr(data, "_per_cell_table", no_per_cell)
        assert read_csv(path) == ds

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", ["", "\n\r\n\r\r", "1.0,1,0.5\n", "1.0,1,0.5,9\n2.0,0,0.1,9\n",
                                      "1.0,1\n2.0,0\n"])
    def test_too_few_rows_or_every_row_wrong_width(self, tmp_path, rows):
        path = tmp_path / "d.csv"
        path.write_text("time,status,z\n" + rows)
        with pytest.raises(ValidationError, match="need at least 2 data rows|row 2 has"):
            read_csv(path)
        assert_same_outcome(path)

    # numpy rejects the first three, so they take the per-cell path; it strips the last two
    @pytest.mark.parametrize("cell", ['"0.5"', "0_5", "\u0665", " 5\u00a0", "5\x0c"])
    def test_odd_cells_read_as_float_reads_them(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"time,status,z\n1.0,1,{cell}\n2.0,0,0.1\n", encoding="utf-8")
        ds = read_csv(path)
        assert ds.covariates[0, 0] == float(cell.strip('"'))
        assert_same_outcome(path)


def read_outcome(reader, path):
    """A dataset's bytes and layout, or the type and message of what reading it raised."""
    try:
        ds = reader(path)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc), str(exc)
    arrays = (ds.time, ds.status, ds.covariates)
    return [(a.dtype, a.shape, a.strides, a.tobytes()) for a in arrays], ds.covariate_names


def assert_same_outcome(path):
    assert read_outcome(read_csv, path) == read_outcome(per_cell_read_csv, path)


ODD_CELLS = (
    "+1", " 1.5 ", "\t2\t", '"1.5"', '"1,5"', '""', "1_0", "1e400", "-1e400", "nan", "-inf",
    "Infinity", "", " ", "#", "# 1", "-0.0", "0x10", "1.5.2", "1d5", "\u0661\u0662", "1\u00a0",
    "\u3000" + "3", "1\x1c", "\x1f2", "1\x0b", "4\x85",
)
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
TIMES = st.floats(0.0, 1e6).map(repr)
STATUSES = st.sampled_from(["0", "1", "1.0", "0e0", "+1", "-0", " 1 "])
ODD_ROWS = ("blank", "spaces", "short", "long", "comment")


@st.composite
def csv_texts(draw):
    """CSV text with odd cells and rows; mostly a readable dataset."""
    names = ["time", "status"] + [f"z{k}" for k in range(draw(st.integers(1, 4)))]
    header = draw(st.permutations(names))
    odd_cells, odd_rows = draw(st.sampled_from([0, 2, 10, 40])), draw(st.sampled_from([0, 10, 40]))
    base = {"time": TIMES, "status": STATUSES}

    def cell(name):
        if draw(st.integers(0, 99)) < odd_cells:
            return draw(st.sampled_from(ODD_CELLS))
        return draw(base.get(name, NUMBERS))

    lines = [",".join(header)]
    for _ in range(draw(st.integers(2, 8))):
        cells = [cell(name) for name in header]
        kind = draw(st.sampled_from(ODD_ROWS)) if draw(st.integers(0, 99)) < odd_rows else "data"
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t"])))
        elif kind == "comment":
            lines.append("#" + ",".join(cells))
        elif kind == "short":
            lines.append(",".join(cells[:-1]))
        else:
            lines.append(",".join(cells + (["1"] if kind == "long" else [])))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


class TestReadCSVOracle:
    """read_csv against the per-cell reader: the same dataset bit for bit, or the same error."""

    @pytest.mark.filterwarnings("error")
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(text=csv_texts())
    def test_matches_per_cell_reader(self, tmp_path, text):
        path = tmp_path / "h.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_outcome(path)


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
