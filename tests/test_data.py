import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxscreen import cox, data
from coxscreen.data import (
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
        assert validate(ds) == 2

    def test_all_censored_rejected(self):
        ds = make([1, 2, 3], [0, 0, 0], [[0.1], [0.2], [0.3]])
        with pytest.raises(ValidationError, match="no events"):
            validate(ds)

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

    @pytest.mark.parametrize("j", [0, 3])
    def test_column_out_of_range(self, j):
        ds = make([1, 2], [1, 1], [[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(ValidationError, match=f"^covariate index {j} out of range \\[1, 2\\]$"):
            ds.column(j)

    @pytest.mark.parametrize("time, covariates, names, message", [
        ([1, 2], [0.1, 0.2], None, "covariates must be a 2-d array (n rows, p columns)"),
        ([1, 2], np.zeros((2, 0)), None, "need at least 1 covariate column"),
        ([1, 2, 3], [[0.1], [0.2]], None, "time/status length does not match covariate rows"),
        ([1, 2], [[0.1], [0.2]], ["a", "b"], "covariate_names length does not match p"),
    ], ids=["1-d-covariates", "no-columns", "time-length", "names-length"])
    def test_malformed_input_rejected(self, time, covariates, names, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SurvivalDataset(time, [1, 1], covariates, names)


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
            assert build_risk_sets(ds).event_counts.sum() == validate(ds)

    def test_risk_sets_nested(self, rng):
        ds = random_dataset(rng, 25, 1, censor_upper=1.5)
        view = build_risk_sets(ds)
        for a, b in zip(view.risk_membership, view.risk_membership[1:]):
            assert set(b) <= set(a)

    def test_ties_sort_events_first(self):
        ds = make([2, 2, 3], [0, 1, 1], [[0.0]] * 3)
        # cox holds the rows in descending time: at t=2 the censoring (row 0) comes before the event
        assert list(cox._SortedView(ds).order) == [2, 0, 1]


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

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("time,status\n1.0,1\n2.0,0\n", "no covariate columns"),
    ], ids=["empty", "time-and-status-only"])
    def test_file_without_covariates_rejected(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(CSVParseError, match=f"^{re.escape(str(path))}: {message}$"):
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

    @pytest.mark.parametrize("quoted", [False, True], ids=["bulk", "per-cell"])
    def test_byte_order_mark_is_skipped(self, tmp_path, quoted):
        # Excel's "CSV UTF-8" export starts the file with one
        text = "time,status,z1\n1.0,1,0.5\n2.0,0," + ('"0.1"' if quoted else "0.1") + "\n3.0,1,0.2\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text("\ufeff" + text, encoding="utf-8")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbftime,")
        assert read_outcome(read_csv, bom) == read_outcome(read_csv, plain)
        assert read_csv(bom).n == 3

    @pytest.mark.parametrize("text, message", [
        ("time,status,z1\n1.0,1,0.5\n2.0,0,\ufeff0.1\n", "row 3, column 'z1': cannot parse '\ufeff0.1'"),
        ("\ufefftime,status,z1\n1.0,1,\ufeff0.5\n2.0,0,0.1\n", "row 2, column 'z1': cannot parse '\ufeff0.5'"),
        ("time,\ufeffstatus,z1\n1.0,1,0.5\n2.0,0,0.1\n", "missing required column 'status'"),
        ("\ufeff\ufefftime,status,z1\n1.0,1,0.5\n2.0,0,0.1\n", "missing required column 'time'"),
    ], ids=["in-a-cell", "in-a-cell-after-a-leading-one", "in-the-header", "second-leading"])
    def test_byte_order_mark_past_the_start_is_an_error(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CSVParseError, match=re.escape(message)):
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
        ds = read_csv(path, time_col="followup", status_col="dead")
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
            read_csv(path, time_col="t", status_col="t")

    def test_written_file_is_read_in_bulk(self, tmp_path, rng, monkeypatch):
        ds = random_dataset(rng, 30, 5, censor_upper=2.0)
        path = tmp_path / "rt.csv"
        write_csv(ds, path)

        def no_per_cell(*args):
            raise AssertionError("fell back to the per-cell parser")

        monkeypatch.setattr(data, "_per_cell_rows", no_per_cell)
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
        real = data._per_cell_rows

        def recording(lines, header, columns, path, first_row):
            starts.append(first_row)
            return real(lines, header, columns, path, first_row)

        monkeypatch.setattr(data, "_per_cell_rows", recording)
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


class TestReadCSVArrays:
    """read_csv parses into C-contiguous arrays that equal the per-cell reader's bit for bit."""

    @staticmethod
    def assert_contiguous_and_same(path):
        ds = read_csv(path)
        assert all(a.flags.c_contiguous for a in (ds.time, ds.status, ds.covariates))
        assert_same_outcome(path)

    @staticmethod
    def record_resizes(monkeypatch):
        """The row count of every resize of the reader's arrays."""
        rows = []
        real = data._resize
        monkeypatch.setattr(data, "_resize", lambda arrays, n: rows.append(n) or real(arrays, n))
        return rows

    @pytest.mark.parametrize("header", ["time,status,z1,z2,z3", "z1,status,z2,time,z3", "z3,z2,z1,time,status"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["bulk", "per-cell"])
    def test_matches_per_cell_reader(self, tmp_path, monkeypatch, rng, header, quoted):
        monkeypatch.setattr(data, "_BLOCK_CHARS", 200)  # the quoted cell sits in a late block
        names = header.split(",")
        lines = [header]
        for k in range(40):
            cells = {"time": repr(rng.exponential()), "status": str(k % 2),
                     **{f"z{j}": repr(rng.normal()) for j in (1, 2, 3)}}
            if quoted and k == 25:
                cells["z2"] = f'"{cells["z2"]}"'
            lines.append(",".join(cells[name] for name in names))
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        starts = TestReadCSVInBlocks.record_per_cell_start(monkeypatch)
        self.assert_contiguous_and_same(path)
        assert bool(starts) == quoted
        assert read_csv(path).covariate_names == [name for name in names if name.startswith("z")]

    @pytest.mark.parametrize("block", [1 << 8, 1 << 16])
    @pytest.mark.parametrize("order", ["long-then-short", "short-then-long"])
    def test_rows_shorter_or_longer_than_the_first_blocks(self, tmp_path, monkeypatch, block, order):
        monkeypatch.setattr(data, "_BLOCK_CHARS", block)
        long_rows = [f"{k}.123456789012345,1,0.123456789012345{k},-9.87654321098765e-{k % 300}" for k in range(800)]
        short_rows = [f"{k},0,{k % 10},{k % 7}" for k in range(6000)]
        body = long_rows + short_rows if order == "long-then-short" else short_rows + long_rows
        path = tmp_path / "d.csv"
        path.write_text("time,status,z1,z2\n" + "\n".join(body) + "\n")
        self.assert_contiguous_and_same(path)
        resizes = self.record_resizes(monkeypatch)
        ds = read_csv(path)
        assert ds.n == len(body)
        if order == "long-then-short":  # the first block's estimate runs out and the arrays grow
            assert len(resizes) >= 2 and resizes[1] > resizes[0]
            assert len(body) <= resizes[-1] <= len(body) * 17 // 16
        else:  # the first block's estimate is about twice the rows, and the buffers are cut
            assert resizes[0] > 1.5 * len(body) and resizes[-1] == len(body)


class TestConditioningSet:
    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            ConditioningSet((1, 1))

    def test_out_of_range_rejected(self):
        ds = make([1, 2], [1, 1], [[0.1], [0.2]])
        with pytest.raises(ValidationError, match="exceeds"):
            ConditioningSet((3,)).check_against(ds)

    @pytest.mark.parametrize("indices", [(0,), (2, -1)])
    def test_index_below_one_rejected(self, indices):
        with pytest.raises(ValidationError, match="^conditioning indices are 1-based and must be >= 1$"):
            ConditioningSet(indices)

    @pytest.mark.parametrize("indices", [(1, 2), (3, 1, 2)])
    def test_set_not_smaller_than_n_rejected(self, indices):
        ds = make([1, 2], [1, 1], [[0.1, 0.5, 0.9], [0.2, 0.7, 0.3]])
        with pytest.raises(ValidationError, match=f"^conditioning set size {len(indices)} must be < n=2$"):
            ConditioningSet(indices).check_against(ds)

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
