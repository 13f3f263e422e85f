"""Right-censored survival data: containers, validation, CSV I/O.

Conventions used throughout the package:

* observation (row) indices are 0-based,
* covariate indices are 1-based (``1..p``), matching the usual "variable j"
  language of screening output,
* at tied follow-up times, events sort before censorings.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CSVParseError, ValidationError


class SurvivalDataset:
    """Immutable container for n right-censored observations on p covariates."""

    def __init__(self, time, status, covariates, covariate_names=None):
        time = np.asarray(time, dtype=float)
        status_arr = np.asarray(status, dtype=float)
        covariates = np.asarray(covariates, dtype=float)
        if covariates.ndim != 2:
            raise ValidationError("covariates must be a 2-d array (n rows, p columns)")
        n, p = covariates.shape
        if n < 2:
            raise ValidationError(f"need at least 2 observations, got {n}")
        if p < 1:
            raise ValidationError("need at least 1 covariate column")
        if time.shape != (n,) or status_arr.shape != (n,):
            raise ValidationError("time/status length does not match covariate rows")
        if not np.all(np.isfinite(time)) or np.any(time < 0):
            bad = int(np.argmax(~np.isfinite(time) | (time < 0)))
            raise ValidationError(f"time at row {bad} must be finite and >= 0")
        if not np.all(np.isin(status_arr, (0.0, 1.0))):
            bad = int(np.argmax(~np.isin(status_arr, (0.0, 1.0))))
            raise ValidationError(f"status at row {bad} must be 0 or 1, got {status_arr[bad]}")
        if not np.all(np.isfinite(covariates)):
            r, c = np.argwhere(~np.isfinite(covariates))[0]
            raise ValidationError(f"non-finite covariate at row {r}, column {c + 1}")
        if covariate_names is None:
            covariate_names = [f"z{j}" for j in range(1, p + 1)]
        covariate_names = list(covariate_names)
        if len(covariate_names) != p:
            raise ValidationError("covariate_names length does not match p")

        self.time = time
        self.status = status_arr.astype(np.int8)
        self.covariates = covariates
        self.covariate_names = covariate_names
        for a in (self.time, self.status, self.covariates):
            a.setflags(write=False)
        # ascending time; events (status 1) before censorings at ties
        self.sorted_index = np.lexsort((1 - self.status, self.time))
        self.sorted_index.setflags(write=False)
        self._sorted_cache = None

    @property
    def n(self):
        return self.time.shape[0]

    @property
    def p(self):
        return self.covariates.shape[1]

    def column(self, j):
        """Covariate column by 1-based index j."""
        if not 1 <= j <= self.p:
            raise ValidationError(f"covariate index {j} out of range [1, {self.p}]")
        return self.covariates[:, j - 1]

    def __eq__(self, other):
        if not isinstance(other, SurvivalDataset):
            return NotImplemented
        return (
            np.array_equal(self.time, other.time)
            and np.array_equal(self.status, other.status)
            and np.array_equal(self.covariates, other.covariates)
            and self.covariate_names == other.covariate_names
        )


@dataclass(frozen=True)
class ConditioningSet:
    """Ordered set of 1-based covariate indices conditioned on during screening."""

    indices: tuple = ()

    def __post_init__(self):
        for j in self.indices:
            if not (isinstance(j, numbers.Real) and float(j).is_integer()):
                raise ValidationError(f"conditioning index {j!r} is not an integer")
        idx = tuple(int(j) for j in self.indices)
        if len(set(idx)) != len(idx):
            raise ValidationError(f"conditioning indices must be distinct: {idx}")
        if any(j < 1 for j in idx):
            raise ValidationError("conditioning indices are 1-based and must be >= 1")
        object.__setattr__(self, "indices", idx)

    @property
    def q(self):
        return len(self.indices)

    def check_against(self, dataset: SurvivalDataset):
        for j in self.indices:
            if j > dataset.p:
                raise ValidationError(f"conditioning index {j} exceeds p={dataset.p}")
        if self.q >= dataset.n:
            raise ValidationError(f"conditioning set size {self.q} must be < n={dataset.n}")

    def complement(self, p):
        excluded = set(self.indices)
        return [j for j in range(1, p + 1) if j not in excluded]


@dataclass(frozen=True)
class ValidationReport:
    n: int
    p: int
    events: int
    censored: int
    constant_columns: list = field(default_factory=list)  # 1-based


@dataclass(frozen=True)
class ScalingInfo:
    means: np.ndarray
    scales: np.ndarray


def validate(dataset: SurvivalDataset) -> ValidationReport:
    """Summarize a dataset and reject degenerate inputs (no events)."""
    events = int(np.sum(dataset.status))
    if events == 0:
        raise ValidationError("no events: all observations are censored")
    col_range = dataset.covariates.max(axis=0) - dataset.covariates.min(axis=0)
    constant = [int(j) + 1 for j in np.nonzero(col_range == 0.0)[0]]
    return ValidationReport(
        n=dataset.n,
        p=dataset.p,
        events=events,
        censored=dataset.n - events,
        constant_columns=constant,
    )


def standardize(dataset: SurvivalDataset):
    """Center each covariate column to mean 0 and scale to sample variance 1 (n-1)."""
    means = dataset.covariates.mean(axis=0)
    scales = dataset.covariates.std(axis=0, ddof=1)
    zero = np.nonzero(scales == 0.0)[0]
    if zero.size:
        name = dataset.covariate_names[zero[0]]
        raise ValidationError(f"constant column cannot be standardized: {name}")
    z = (dataset.covariates - means) / scales
    out = SurvivalDataset(dataset.time, dataset.status, z, dataset.covariate_names)
    return out, ScalingInfo(means=means, scales=scales)


@dataclass(frozen=True)
class ColumnSchema:
    time_col: str = "time"
    status_col: str = "status"


def _parse_cell(text, row, col_name):
    try:
        value = float(text)
    except ValueError:
        raise CSVParseError(f"row {row}, column '{col_name}': cannot parse '{text}'") from None
    if not math.isfinite(value):
        raise CSVParseError(f"row {row}, column '{col_name}': non-finite value '{text}'")
    return value


# read_csv reads the body in blocks of whole lines of about this many characters
_BLOCK_CHARS = 1 << 16


def _bulk_table(lines, width):
    """All cells of the lines as an (n, width) float table, or None to parse cell by cell.

    np.loadtxt converts a cell with the C routine float() uses, after stripping
    whitespace, and rejects quotes, underscores and non-ASCII digits. So a
    table it returns holds float(cell) bit for bit, once two cases are ruled
    out first: it strips the ASCII separators 0x1C-0x1F as whitespace, which
    float() rejects, and it warns when every line is blank, so an all-blank
    block is returned as no rows without calling it. Every line of a table it
    returns is one csv row, as it rejects quotes.
    """
    if all(line in ("\n", "\r\n", "\r") for line in lines):
        return np.empty((0, width))
    if any(sep in line for line in lines for sep in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


def _per_cell_rows(lines, header, columns, path, first_row):
    """The cells of the given columns of each row, one float() per cell; raises on the first bad cell.

    The first line is file row first_row.
    """
    for row_num, row in enumerate(csv.reader(lines), start=first_row):
        if not row:
            continue
        if len(row) != len(header):
            raise CSVParseError(f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}")
        yield [_parse_cell(row[k], row_num, header[k]) for k in columns]


def read_csv(path, schema: ColumnSchema = ColumnSchema()) -> SurvivalDataset:
    """Load a dataset from a comma-separated UTF-8 file with a header row.

    A byte-order mark at the start of the file is skipped. The body is read a
    block of lines at a time and parsed into the dataset's own arrays, so
    besides the dataset the reader holds one block of lines and its table.
    """
    try:
        cov_names, time, status, covariates = _read_blocks(path, schema)
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a cell over csv's field limit
        raise CSVParseError(f"{path}: {exc}") from None
    rows = time.shape[0]
    if rows < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {rows}")
    return SurvivalDataset(time, status, covariates, cov_names)


def _resize(arrays, rows):
    """Resize each array in place to `rows` rows; nothing else may view them."""
    for a in arrays:
        a.resize((rows, *a.shape[1:]), refcheck=False)


def _read_blocks(path, schema):
    """(covariate names, time, status, covariates), the arrays C-contiguous and filled as parsed.

    Each block of lines is parsed in bulk. From the first block the bulk path
    rejects, that block and the rest of the file are parsed cell by cell. The
    arrays are sized from the bytes left in the file at the latest block's
    rows per character and grown only when a block outruns that. The
    returned arrays are their first rows, and the buffers are cut to those
    rows when more than a sixteenth of them went unused.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CSVParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for required in (schema.time_col, schema.status_col):
            if required not in header:
                raise CSVParseError(f"{path}: missing required column '{required}'")
        cov_names = [h for h in header if h not in (schema.time_col, schema.status_col)]
        if not cov_names:
            raise CSVParseError(f"{path}: no covariate columns")
        if schema.time_col == schema.status_col:
            raise CSVParseError(f"{path}: column '{schema.time_col}' is both time and status")
        pos = {name: k for k, name in enumerate(header)}
        if len(pos) < len(header):
            duplicate = next(name for k, name in enumerate(header) if pos[name] != k)
            raise CSVParseError(f"{path}: duplicate column '{duplicate}'")

        columns = [pos[schema.time_col], pos[schema.status_col], *(pos[name] for name in cov_names)]
        cov_columns = np.array(columns[2:])
        arrays = time, status, covariates = np.empty(0), np.empty(0), np.empty((0, len(cov_names)))
        left = os.fstat(fh.fileno()).st_size  # bytes, at least the characters not yet read
        rows = 0
        row = 2  # the file row of the block's first line
        while lines := fh.readlines(_BLOCK_CHARS):
            table = _bulk_table(lines, len(header))
            if table is None:
                # the rest is read before parsing, so an undecodable byte anywhere still wins
                lines += fh.readlines()
                if rows + len(lines) > time.shape[0]:
                    _resize(arrays, rows + len(lines))  # a row takes at least one line
                for values in _per_cell_rows(lines, header, columns, path, row):
                    time[rows], status[rows], covariates[rows] = values[0], values[1], values[2:]
                    rows += 1
                break
            chars = sum(map(len, lines))
            left -= chars
            end = rows + table.shape[0]
            if end > time.shape[0]:
                _resize(arrays, end + math.ceil(max(left, 0) * table.shape[0] / chars))
            time[rows:end] = table[:, columns[0]]
            status[rows:end] = table[:, columns[1]]
            # mode="clip" writes straight into out; every index is in range
            np.take(table, cov_columns, axis=1, out=covariates[rows:end], mode="clip")
            rows = end
            row += len(lines)
        # A small overshoot stays unused rather than being cut: malloc then gets back a buffer of
        # the size the next read of a like file asks for and reuses its pages. With cut buffers a
        # read and the screen after it took about 2300 page faults at n=100, p=1000, not 300.
        if time.shape[0] - rows > rows // 16:
            _resize(arrays, rows)
    return cov_names, time[:rows], status[:rows], covariates[:rows]


def write_rows(path, header, rows):
    """Write a header and rows as UTF-8 CSV with csv-module quoting and \\r\\n line ends.

    Pass Python values (``.tolist()``): csv writes a Python float as its repr,
    which read_csv reads back bit for bit.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(dataset: SurvivalDataset, path):
    """Write a dataset with write_rows, converting one covariate row at a time."""
    rows = zip(dataset.time.tolist(), dataset.status.tolist(), dataset.covariates)
    write_rows(path, ["time", "status", *dataset.covariate_names], ([t, s, *z.tolist()] for t, s, z in rows))
