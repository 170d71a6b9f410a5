"""Person-level cohort table: behavior-time means, covariates, and outcome.

This is the common input to the substitution, compositional, and latent
profile analyses.  Behavior times are minutes/day averaged over a person's
valid wear days; covariates are numerically coded (dummies for categories);
missing covariates are NaN until a complete-case filter is applied.  The
CSV framing of the package lives here too: one reader (``csv_reader``) and
one line writer (``csv_lines``) for every report CSV; the cohort and day
CSVs have their own faster writers.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .composition import CANONICAL_LABELS, CompositionError, replace_zeros

BEHAVIOR_LABELS = CANONICAL_LABELS

COVARIATE_COLUMNS = (
    "age_75_84",
    "age_85p",
    "female",
    "nonwhite",
    "education_years",
    "bmi",
    "cesd",
    "fair_poor_health",
)

CSV_HEADER = (
    ("person_id",)
    + tuple(f"{b}_min" for b in BEHAVIOR_LABELS)
    + ("total_min", "valid_days")
    + COVARIATE_COLUMNS
    + ("casi_irt",)
)


ZERO_FLOOR_MINUTES = 1.0  # put in place of a zero behavior time


class CohortError(ValueError):
    pass


@dataclass
class CohortTable:
    ids: list[str]
    behaviors: np.ndarray  # N x D minutes/day
    total: np.ndarray  # N mean day length, minutes
    covariates: dict[str, np.ndarray]
    outcome: np.ndarray
    valid_days: np.ndarray
    behavior_labels: ClassVar[tuple[str, ...]] = BEHAVIOR_LABELS

    def __post_init__(self):
        n = len(self.ids)
        if len(set(self.ids)) != n:
            raise CohortError("duplicate person ids")
        if self.behaviors.shape != (n, len(self.behavior_labels)):
            raise CohortError("behavior matrix shape mismatch")
        for name, col in self.covariates.items():
            if col.shape != (n,):
                raise CohortError(f"covariate {name!r} has wrong length")
        if self.outcome.shape != (n,) or self.total.shape != (n,):
            raise CohortError("outcome/total length mismatch")

    @property
    def n(self) -> int:
        return len(self.ids)

    def behavior(self, label: str) -> np.ndarray:
        return self.behaviors[:, self.behavior_labels.index(label)]

    def covariate_matrix(self, names: list[str]) -> np.ndarray:
        cols = []
        for name in names:
            if name not in self.covariates:
                raise CohortError(f"unknown covariate {name!r}")
            cols.append(self.covariates[name])
        return np.column_stack(cols) if cols else np.empty((self.n, 0))

    def composition_array(self) -> np.ndarray:
        """The closed N x D composition matrix, one person per row: the
        minutes after ``replace_zeros`` with the fixed ``ZERO_FLOOR_MINUTES``,
        each row divided by its total.  The result is read-only."""
        minutes = replace_zeros(self.behaviors, ZERO_FLOOR_MINUTES)
        parts = minutes / minutes.sum(axis=1, keepdims=True)
        parts.flags.writeable = False
        return parts

    def compositions(self, labels: tuple[str, ...]) -> np.ndarray:
        """The closed (N, len(labels)) subcompositions of ``labels``, in
        that order: their columns of ``composition_array``, each row closed
        with one row-sum division."""
        for lab in labels:
            if lab not in self.behavior_labels:
                raise CompositionError(f"unknown label {lab!r}")
        parts = self.composition_array()[
            :, [self.behavior_labels.index(lab) for lab in labels]]
        return parts / parts.sum(axis=1, keepdims=True)

    def subset(self, mask: np.ndarray) -> "CohortTable":
        idx = np.flatnonzero(mask)
        return CohortTable(
            ids=[self.ids[i] for i in idx],
            behaviors=self.behaviors[idx],
            total=self.total[idx],
            covariates={k: v[idx] for k, v in self.covariates.items()},
            outcome=self.outcome[idx],
            valid_days=self.valid_days[idx],
        )


def complete_case(cohort: CohortTable, required: list[str]) -> tuple[CohortTable, dict]:
    """Drop persons with any missing required covariate; report what was dropped."""
    unknown = [name for name in required if name not in cohort.covariates]
    if unknown:
        raise CohortError(
            f"unknown covariate(s) {', '.join(unknown)}; "
            f"valid: {', '.join(cohort.covariates)}")
    bad_fields: dict[str, int] = {}
    keep = np.ones(cohort.n, dtype=bool)
    for name in required:
        col = cohort.covariates[name]
        miss = np.isnan(col)
        if miss.any():
            bad_fields[name] = int(miss.sum())
            keep &= ~miss
    miss_out = np.isnan(cohort.outcome)
    if miss_out.any():
        bad_fields["casi_irt"] = int(miss_out.sum())
        keep &= ~miss_out
    n_drop = int((~keep).sum())
    report = {
        "excluded": n_drop,
        "excluded_pct": round(100.0 * n_drop / cohort.n, 1) if cohort.n else 0.0,
        "fields": bad_fields,
    }
    return cohort.subset(keep), report


def check_day_totals(cohort: CohortTable, error: type[ValueError]) -> None:
    """Raise ``error`` unless every person's behavior minutes sum to their
    total day length, to a relative 1e-9."""
    gap = np.abs(cohort.total - cohort.behaviors.sum(axis=1))
    if np.any(gap > 1e-9 * cohort.total):
        raise error("behavior minutes must sum to the total day length, "
                    f"off by up to {gap.max():.3g} min")


def format_number(x: float | int | None) -> str:
    """A number as a CSV cell: a boolean as 1 or 0, an integer as is, a float
    as the shortest repr that reads back to the same value, and a missing
    value (NaN or None) as empty."""
    if type(x) is float:  # the common cell: no type tests
        return repr(x) if x == x else ""
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(x)
    if x is None or math.isnan(x):
        return ""
    return repr(float(x))


# Rows formatted at a time.  At N=20k, formatting whole columns held 28.4 MB
# of cell strings and row text at once against 0.5 MB for 256-row blocks, in
# the same time (tracemalloc peaks of save_cohort_csv).
_CSV_BLOCK_ROWS = 256


def _column_cells(col: np.ndarray) -> list[str]:
    """``format_number`` of each cell of a 1-d column, with one call per
    column for a float, integer or bool dtype."""
    kind = col.dtype.kind
    if kind == "f":
        # a longdouble cell rounds as format_number's float() rounds it
        cells = list(map(repr, col.astype(float, copy=False).tolist()))
        for i in np.flatnonzero(np.isnan(col)).tolist():
            cells[i] = ""
        return cells
    if kind in "iu":
        return list(map(str, col.tolist()))
    if kind == "b":
        return ["1" if v else "0" for v in col.tolist()]
    return [format_number(v) for v in col.tolist()]


# the characters for which a CSV field is quoted
_QUOTED_IN_CSV = re.compile('[,"\r\n]').search


def csv_field(text: str) -> str:
    """``text`` as a CSV field: as it is, or, if it holds a comma, a quote, a
    CR or an LF, in quotes with its quotes doubled."""
    if _QUOTED_IN_CSV(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def csv_lines(header, rows):
    """CSV lines: the ``header`` line, then one line per row, each cell that
    is a string quoted by ``csv_field`` and each other cell a number (or
    None) written by ``format_number``."""
    yield ",".join(map(csv_field, header)) + "\n"
    for row in rows:
        yield ",".join([csv_field(c) if isinstance(c, str) else format_number(c)
                        for c in row]) + "\n"


def read_text(path, error: type[ValueError]) -> str:
    """The text of the UTF-8 file ``path``, its line ends as they are; other
    bytes raise ``error``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text ({exc.reason})") from None


@contextmanager
def csv_reader(path, header: tuple[str, ...], what: str,
               error: type[ValueError]):
    """A ``csv.reader`` of the UTF-8 file ``path``, past its header line.
    ``error`` is raised for a header other than ``header`` (naming the file
    as holding the wrong ``what`` header), for text that is not UTF-8, and,
    naming its line, for a cell over the csv module's size limit."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if tuple(next(reader, ())) != header:
                raise error(f"unexpected {what} header in {path}")
            yield reader
        except csv.Error as exc:
            raise error(f"{path} line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text ({exc.reason})") from None


def _csv_blocks(cohort: CohortTable):
    """The cohort CSV text: the header line, then one string per block of
    ``_CSV_BLOCK_ROWS`` rows, each block formatted a column at a time."""
    yield ",".join(CSV_HEADER) + "\n"
    columns = ([cohort.behaviors[:, j] for j in range(cohort.behaviors.shape[1])]
               + [cohort.total, cohort.valid_days]
               + [cohort.covariates[c] for c in COVARIATE_COLUMNS]
               + [cohort.outcome])
    for start in range(0, cohort.n, _CSV_BLOCK_ROWS):
        block = slice(start, start + _CSV_BLOCK_ROWS)
        rows = zip(map(csv_field, cohort.ids[block]),
                   *(_column_cells(col[block]) for col in columns))
        yield "\n".join(map(",".join, rows)) + "\n"


def cohort_csv_text(cohort: CohortTable) -> str:
    """The cohort as the text ``save_cohort_csv`` writes."""
    return "".join(_csv_blocks(cohort))


def save_cohort_csv(cohort: CohortTable, path) -> None:
    """The cohort as CSV: the ``CSV_HEADER`` line, then one row per person,
    its numbers written as ``format_number`` writes them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(_csv_blocks(cohort))


def load_cohort_csv(path) -> CohortTable:
    """Read a cohort CSV.

    A row with the wrong number of fields or a cell that is not a number
    (``valid_days``: an integer that fits in int64), a behavior or
    ``total_min`` cell that is empty, NaN, infinite or negative, an infinite
    covariate or outcome cell, or a negative ``valid_days`` raises
    ``CohortError`` naming its line, and so do a row whose behavior minutes
    sum past the largest float and text that is not UTF-8.  Empty or NaN
    covariate and outcome cells read as missing (NaN).

    Plain text is parsed by ``np.loadtxt``; the csv module reads the rest
    row by row, and names the first row that does not parse.
    """
    # no name holds the text here, so _parse_plain can free it early
    parsed = _parse_plain(read_text(path, CohortError)) or _parse_rows(path)
    return _check_and_build(path, *parsed)


_PLAIN_HEADER = ",".join(CSV_HEADER) + "\n"
# The characters of a plain data row: printable ASCII and "\n", without the
# ones the csv module and float() read differently from np.loadtxt: quotes
# and "\r" (csv), "_" (float() reads 1_000) and the control characters
# loadtxt strips as blanks.
_PLAIN_BYTES = bytes([10, *range(0x20, 0x7F)]).translate(None, b'"_')
_HEADER_NOT_PLAIN = _PLAIN_HEADER.encode().translate(None, _PLAIN_BYTES)
_ROW_DTYPE = np.dtype([(name, np.int64 if name == "valid_days" else np.float64)
                       for name in CSV_HEADER[1:]])


def _parse_plain(text: str):
    """``(ids, columns, line numbers)`` of a plain cohort text, parsed by
    ``np.loadtxt``; None for any other text, or one that does not parse.

    A plain text has the exact header, ends in a newline, and its data rows
    are non-blank lines of plain characters with one comma per separator.
    """
    width = len(CSV_HEADER)
    if not (text.startswith(_PLAIN_HEADER) and text.endswith("\n")
            and text.isascii()
            and text.encode("ascii").translate(None, _PLAIN_BYTES)
            == _HEADER_NOT_PLAIN):
        return None
    commas = text.count(",")
    lines = text.split("\n")[1:-1]
    del text
    if (not lines or "" in lines
            or commas != (width - 1) * (len(lines) + 1)):
        return None
    for i, line in enumerate(lines):
        if ",," in line or line.endswith(","):
            lines[i] = _blanks_as_nan(line)
    try:
        rows = np.loadtxt(lines, dtype=_ROW_DTYPE, delimiter=",",
                          comments=None, usecols=range(1, width), ndmin=1)
    except ValueError:
        return None
    ids = [line.partition(",")[0] for line in lines]
    columns = {name: rows[name] for name in CSV_HEADER[1:]}
    return ids, columns, range(2, len(lines) + 2)


def _blanks_as_nan(line: str) -> str:
    # a run of blank cells takes two passes
    line = line.replace(",,", ",nan,").replace(",,", ",nan,")
    return line + "nan" if line.endswith(",") else line


_INT64 = np.iinfo(np.int64)


def _parse_rows(path):
    """``(ids, columns, line numbers)`` read by the csv module row by row; the
    first row that does not parse raises ``CohortError`` naming its line."""
    width = len(CSV_HEADER)
    days_col = CSV_HEADER.index("valid_days")
    ids, valid_days, values, lines = [], [], [], []
    with csv_reader(path, CSV_HEADER, "cohort", CohortError) as reader:
        for row in reader:
            if len(row) != width:
                raise CohortError(
                    f"{path} line {reader.line_num}: {len(row)} fields, "
                    f"expected {width}")
            try:
                days = int(row[days_col])
                values.append([float(v) if v != "" else math.nan
                               for v in row[1:]])
            except ValueError as exc:
                raise CohortError(
                    f"{path} line {reader.line_num}: {exc}") from None
            if not _INT64.min <= days <= _INT64.max:
                raise CohortError(f"{path} line {reader.line_num}: "
                                  "valid_days does not fit in int64")
            valid_days.append(days)
            ids.append(row[0])
            lines.append(reader.line_num)
    columns = dict(zip(CSV_HEADER[1:],
                       np.array(values).reshape(-1, width - 1).T))
    columns["valid_days"] = np.array(valid_days, dtype=np.int64)
    return ids, columns, lines


_MINUTE_COLUMNS = tuple(f"{b}_min" for b in BEHAVIOR_LABELS) + ("total_min",)
_VALUE_COLUMNS = ("total_min",) + COVARIATE_COLUMNS + ("casi_irt",)


def _bad_cells(name: str, col: np.ndarray) -> np.ndarray:
    if name in _MINUTE_COLUMNS:
        return ~np.isfinite(col) | (col < 0)
    if name == "valid_days":
        return col < 0
    return np.isinf(col)  # covariates and outcome: NaN is missing


def _check_and_build(path, ids: list[str], columns: dict[str, np.ndarray],
                     lines) -> CohortTable:
    """The parsed cohort as a ``CohortTable``, once every cell passes the
    value checks of ``load_cohort_csv``; the first failing cell, in file
    order, raises ``CohortError`` naming its line and column, and then the
    first row whose behavior minutes do not sum to a finite number."""
    if not ids:
        raise CohortError("empty cohort file")
    failed = [(int(bad.argmax()), j) for j, name in enumerate(CSV_HEADER[1:])
              if (bad := _bad_cells(name, columns[name])).any()]
    if failed:
        i, j = min(failed)
        name = CSV_HEADER[1 + j]
        value = columns[name][i]
        problem = ("negative" if value < 0 and np.isfinite(value)
                   else "empty or NaN" if np.isnan(value) else "infinite")
        raise CohortError(f"{path} line {lines[i]}: {name} is {problem}")
    behaviors = np.column_stack([columns[f"{b}_min"] for b in BEHAVIOR_LABELS])
    with np.errstate(over="ignore"):
        overflow = np.isinf(behaviors.sum(axis=1))
    if overflow.any():
        raise CohortError(f"{path} line {lines[int(overflow.argmax())]}: "
                          "behavior minutes sum past the largest float")
    total, *covariates, outcome = np.array(
        [columns[name] for name in _VALUE_COLUMNS])
    return CohortTable(ids, behaviors, total,
                       dict(zip(COVARIATE_COLUMNS, covariates)), outcome,
                       columns["valid_days"].copy())
