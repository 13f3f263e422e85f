import re

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
    write_rows,
)
from coxscreen.errors import CSVParseError, ValidationError
from coxscreen.screening import parse_conditioning

from conftest import random_dataset
from oracles import build_risk_sets, per_cell_read_csv, per_cell_repr_write_rows


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

    @pytest.mark.parametrize("content, message", [
        (b"time,status,z1\n1.0,1,0.5\n2.0,0,0.\xff1\n", "can't decode byte 0xff"),
        (b"time,status,\xffz\n1.0,1,0.5\n2.0,0,0.1\n", "can't decode byte 0xff"),
        (b'time,status,z1\n1.0,1,0.5\n2.0,0,"' + b"1" * 200_000 + b'"\n', "field larger than field limit"),
        (b"time,status," + b"z" * 200_000 + b"\n1.0,1,0.5\n2.0,0,0.1\n", "field larger than field limit"),
    ], ids=["bad-byte-in-cell", "bad-byte-in-header", "long-quoted-cell", "long-header"])
    def test_undecodable_bytes_and_oversized_fields(self, tmp_path, content, message):
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        with pytest.raises(CSVParseError, match=f"^{re.escape(str(path))}: .*{message}"):
            read_csv(path)

    def test_roundtrip_exact(self, tmp_path, rng):
        ds = random_dataset(rng, 20, 4, censor_upper=2.0)
        path = tmp_path / "rt.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert back == ds

    def test_write_csv_matches_per_cell_repr_writer(self, tmp_path):
        names = ["a,b", 'say "hi"', "z3"]
        z = np.array([[-0.0, 5e-324, 1e16], [1e-05, 0.1, -2.5], [3.0, -1e-300, 7.0]])
        ds = SurvivalDataset([1.5, 0.25, 1e-05], [1, 0, 1], z, names)
        write_csv(ds, tmp_path / "new.csv")
        rows = [[t, s, *row] for t, s, row in zip(ds.time, ds.status, ds.covariates)]
        per_cell_repr_write_rows(tmp_path / "old.csv", ["time", "status", *names], rows)
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "old.csv").read_bytes()
        assert written.startswith(b'time,status,"a,b","say ""hi""",z3\r\n1.5,1,-0.0,5e-324,1e+16\r\n')
        back = read_csv(tmp_path / "new.csv")
        assert back.covariate_names == names
        for got, want in ((back.time, ds.time), (back.status, ds.status), (back.covariates, ds.covariates)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_write_rows_matches_per_cell_repr_writer_on_non_finite_floats(self, tmp_path):
        values = np.array([-0.0, 5e-324, 1e16, 1e-05, np.nan, np.inf, -np.inf])
        names = ["a,b", 'say "hi"'] + [f"z{k}" for k in range(3, 8)]
        header = ["index", "name", "value"]
        write_rows(tmp_path / "new.csv", header, zip(range(1, 8), names, values.tolist()))
        per_cell_repr_write_rows(tmp_path / "old.csv", header, zip(np.arange(1, 8), names, values))
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "old.csv").read_bytes()
        assert written.decode("utf-8").split("\r\n")[1:] == [
            '1,"a,b",-0.0', '2,"say ""hi""",5e-324', "3,z3,1e+16", "4,z4,1e-05",
            "5,z5,nan", "6,z6,inf", "7,z7,-inf", "",
        ]

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


class TestReadCSVInBlocks:
    """read_csv with blocks of a few dozen characters or less, so every file spans many blocks."""

    @staticmethod
    def body(rows, row_text=lambda k: f"{k + 1}.5,{k % 2},0.{k},-{k}e-3"):
        return "time,status,z1,z2\n" + "".join(row_text(k) + "\n" for k in range(rows))

    @staticmethod
    def record_per_cell_start(monkeypatch):
        """The first_row of every call to the per-cell parser."""
        starts = []
        real = data._per_cell_table

        def recording(lines, header, columns, path, first_row):
            starts.append(first_row)
            return real(lines, header, columns, path, first_row)

        monkeypatch.setattr(data, "_per_cell_table", recording)
        return starts

    @pytest.mark.filterwarnings("error")
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(text=csv_texts(), block=st.sampled_from([1, 24, 48]))
    def test_matches_per_cell_reader(self, tmp_path, monkeypatch, text, block):
        monkeypatch.setattr(data, "_BLOCK_CHARS", block)
        path = tmp_path / "h.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_outcome(path)

    @pytest.mark.parametrize("cell", ODD_CELLS)
    def test_odd_cell_in_a_late_block_matches_per_cell_reader(self, tmp_path, monkeypatch, cell):
        monkeypatch.setattr(data, "_BLOCK_CHARS", 30)
        path = tmp_path / "d.csv"
        path.write_text(self.body(20, lambda k: f"{k}.5,1,{cell if k == 15 else k},2"), encoding="utf-8")
        assert_same_outcome(path)

    def test_written_file_is_read_in_bulk_blocks(self, tmp_path, rng, monkeypatch):
        ds = random_dataset(rng, 30, 5, censor_upper=2.0)
        path = tmp_path / "rt.csv"
        write_csv(ds, path)
        monkeypatch.setattr(data, "_BLOCK_CHARS", 40)
        starts = self.record_per_cell_start(monkeypatch)
        sizes = []
        real_bulk = data._bulk_table
        monkeypatch.setattr(data, "_bulk_table", lambda lines, width: sizes.append(len(lines)) or real_bulk(lines, width))
        assert read_outcome(read_csv, path) == read_outcome(per_cell_read_csv, path)
        assert starts == [] and sum(sizes) == 30 and len(sizes) >= 10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", [1, 8, 20, 40])
    def test_blank_lines_at_block_edges(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(data, "_BLOCK_CHARS", block)
        starts = self.record_per_cell_start(monkeypatch)
        blanks = ["\n", "\r\n", "\r", "\n\n\n", "\r\n\r"]
        text = self.body(12, lambda k: blanks[k % len(blanks)] + f"{k}.5,1,{k},2")
        path = tmp_path / "d.csv"
        path.write_text(text + "\n\n", newline="")
        assert_same_outcome(path)
        assert read_csv(path).n == 12 and starts == []

    def test_quoted_cell_in_a_late_block_is_read_per_cell_from_there(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_CHARS", 1)  # one line per block
        starts = self.record_per_cell_start(monkeypatch)
        path = tmp_path / "d.csv"
        quoted = {24: '24.5,1,"0.25",24', 27: '27.5,1,27,"27"'}
        path.write_text(self.body(30, lambda k: quoted.get(k, f"{k}.5,1,{k},{k}")))
        ds = read_csv(path)
        assert starts == [26]  # data row k is file row k + 2
        assert ds.covariates[24:28].tolist() == [[0.25, 24.0], [25.0, 25.0], [26.0, 26.0], [27.0, 27.0]]
        assert_same_outcome(path)

    @pytest.mark.parametrize("block", [1, 30, 1 << 16])
    @pytest.mark.parametrize("bad, message", [
        ("3.5,1,abc,2", "row 28, column 'z1': cannot parse 'abc'"),
        ("3.5,1,inf,2", "row 28, column 'z1': non-finite value 'inf'"),
        ("3.5,1,2", "row 28 has 3 cells, expected 4"),
    ])
    def test_bad_cell_in_a_late_block(self, tmp_path, monkeypatch, block, bad, message):
        monkeypatch.setattr(data, "_BLOCK_CHARS", block)
        # blank lines count as file rows: data row k sits at file row k + 2 + k // 10
        path = tmp_path / "d.csv"
        path.write_text(self.body(30, lambda k: ("\n" if k % 10 == 9 else "") + (bad if k == 24 else f"{k}.5,1,{k},2")))
        with pytest.raises(CSVParseError, match=re.escape(message)):
            read_csv(path)
        assert_same_outcome(path)

    def test_undecodable_byte_after_a_bad_cell_still_wins(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_CHARS", 1)
        path = tmp_path / "d.csv"
        path.write_bytes(self.body(30, lambda k: "1.5,1,abc,2" if k == 3 else f"{k}.5,1,{k},2").encode()
                         + b"9.5,1,0.\xff1,2\n")
        with pytest.raises(CSVParseError, match="can't decode byte 0xff"):
            read_csv(path)


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

    @pytest.mark.parametrize("index", [2.9, np.float64(2.5), -0.5, float("nan"), float("inf"), "2"])
    def test_non_integral_index_rejected(self, index):
        with pytest.raises(ValidationError, match=re.escape(f"conditioning index {index!r} is not an integer")):
            ConditioningSet((1, index))
        with pytest.raises(ValidationError, match="is not an integer"):
            parse_conditioning([index])

    def test_integer_indices_accepted(self):
        cond = ConditioningSet((np.int64(3), np.int32(1), 2))
        assert cond.indices == (3, 1, 2) and all(type(j) is int for j in cond.indices)
        assert parse_conditioning([np.int64(2), 4]).indices == (2, 4)
