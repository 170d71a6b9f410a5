"""The cohort CSV loader: its value checks, and its loadtxt path against the
csv row parser it replaced."""

import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from daycycle import cohort as cohort_module
from daycycle.cohort import (
    BEHAVIOR_LABELS,
    COVARIATE_COLUMNS,
    CSV_HEADER,
    CohortError,
    CohortTable,
    load_cohort_csv,
)
from daycycle.simulate import default_sim_spec, simulate_cohort


def reference_load_cohort_csv(path):
    """The csv module row by row, then each cell's value check in file
    order."""
    width = len(CSV_HEADER)
    days_col = CSV_HEADER.index("valid_days")
    ids, valid_days, values, lines = [], [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != CSV_HEADER:
                raise CohortError(f"unexpected cohort header in {path}")
            for row in reader:
                where = f"{path} line {reader.line_num}"
                if len(row) != width:
                    raise CohortError(
                        f"{where}: {len(row)} fields, expected {width}")
                try:
                    days = int(row[days_col])
                    values.append([float(v) if v != "" else math.nan
                                   for v in row[1:]])
                except ValueError as exc:
                    raise CohortError(f"{where}: {exc}") from None
                if not -2 ** 63 <= days < 2 ** 63:
                    raise CohortError(
                        f"{where}: valid_days does not fit in int64")
                valid_days.append(days)
                ids.append(row[0])
                lines.append(reader.line_num)
    except UnicodeDecodeError as exc:
        raise CohortError(f"{path} is not UTF-8 text ({exc.reason})") from None
    if not ids:
        raise CohortError("empty cohort file")
    minute_columns = {f"{b}_min" for b in BEHAVIOR_LABELS} | {"total_min"}
    for row, days, line in zip(values, valid_days, lines):
        for name, v in zip(CSV_HEADER[1:], row):
            if name == "valid_days":
                problem = "negative" if days < 0 else None
            elif name in minute_columns:
                problem = ("empty or NaN" if math.isnan(v)
                           else "infinite" if math.isinf(v)
                           else "negative" if v < 0 else None)
            else:
                problem = "infinite" if math.isinf(v) else None
            if problem:
                raise CohortError(f"{path} line {line}: {name} is {problem}")
    d = len(BEHAVIOR_LABELS)
    for row, line in zip(values, lines):
        if math.isinf(sum(row[:d])):
            raise CohortError(f"{path} line {line}: behavior minutes sum "
                              "past the largest float")
    values = np.array(values)
    cols = np.ascontiguousarray(values.T)
    covariates = dict(zip(COVARIATE_COLUMNS, cols[d + 2:-1]))
    return CohortTable(ids, values[:, :d].copy(), cols[d], covariates,
                       cols[-1], np.array(valid_days))


def _arrays(table):
    return ([table.behaviors, table.total, table.valid_days, table.outcome]
            + [table.covariates[c] for c in COVARIATE_COLUMNS])


def _outcome(load, path):
    try:
        return load(path)
    except CohortError as exc:
        return str(exc)


def assert_same_load(path):
    got = _outcome(load_cohort_csv, path)
    want = _outcome(reference_load_cohort_csv, path)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.ids == want.ids
    assert list(got.covariates) == list(want.covariates)
    for a, b in zip(_arrays(got), _arrays(want)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def _cohort_text(n=6, seed=40):
    spec = default_sim_spec()
    spec.missing_covariate_rate = 0.15
    cohort = simulate_cohort(spec, n, seed=seed).cohort
    cohort.outcome[1] = math.nan
    return cohort_module.cohort_csv_text(cohort)


BASE_TEXT = _cohort_text()
BASE_ROWS = BASE_TEXT.splitlines()
# number spellings (drawn three times as often), then cells that are not
# numbers or not integers, or that make the text not plain
NUMBERS = ["", " ", "1.5", " 1.5", "1.5 ", "+3", "-0.0", "-1", "0", "7",
           "07", "-3", "1e3", "9223372036854775807", "nan", "NaN", "-nan",
           "inf", "-inf", "+Infinity", "INF", "1e400", "-1e400", "1e-400",
           "1e308"]
OTHERS = ["7.0", "1e1", "9223372036854775808", "99999999999999999999999",
          "\t2", "1_0", "１", "\x1c1", "1\x00", "#", "1 #2", "x", "0x10",
          '"1.5"', '"1,5"', "é", "pé", '"p,1"']


def _set_cell(rows, i, j, cell):
    fields = rows[i].split(",")
    if j < len(fields):
        fields[j] = cell
    rows[i] = ",".join(fields)


def _mangle(rows, edit):
    kind, i, j, cell = edit
    i %= len(rows)
    if kind == "cell":
        _set_cell(rows, i, j, cell)
    elif kind == "extra":
        rows[i] += "," + cell
    elif kind == "drop":
        rows[i] = rows[i].rsplit(",", 1)[0]
    elif kind == "blank-line":
        rows.insert(i, "")
    elif kind == "comment":
        rows.insert(i, "#" + cell)
    elif kind == "crlf":
        rows[i] += "\r"
    elif kind == "pad":
        fields = rows[i].split(",")
        j %= len(fields)
        fields[j] = f" {fields[j]} "
        rows[i] = ",".join(fields)
    elif kind == "duplicate":
        rows.insert(i, rows[i])


edits = st.tuples(
    st.sampled_from(["cell"] * 12 + ["extra", "drop", "blank-line",
                                     "comment", "crlf", "pad", "duplicate"]),
    st.integers(1, len(BASE_ROWS) - 1), st.integers(0, len(CSV_HEADER) - 1),
    st.sampled_from(NUMBERS * 3 + OTHERS))


@given(st.lists(edits, max_size=4), st.sampled_from([True] * 7 + [False]))
@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_matches_the_row_parser_on_mangled_text(tmp_path, mangles,
                                                     final_newline):
    rows = list(BASE_ROWS)
    for edit in mangles:
        _mangle(rows, edit)
    path = tmp_path / "mangled.csv"
    path.write_bytes(("\n".join(rows) + "\n" * final_newline).encode())
    assert_same_load(path)


def _edited_text(*cells):
    """BASE_TEXT with ``(row, column, cell)`` edits; row 1 is the first
    data row."""
    rows = list(BASE_ROWS)
    for i, column, cell in cells:
        _set_cell(rows, i, CSV_HEADER.index(column), cell)
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("text", [
    BASE_TEXT,
    _edited_text((2, "female", ""), (2, "nonwhite", ""),
                 (2, "education_years", ""), (3, "casi_irt", "")),
    _edited_text((1, "bmi", "nan"), (2, "cesd", "-nan"), (3, "bmi", "NaN")),
    _edited_text((1, "valid_days", " 7 "), (2, "sit_min", " 600.5"),
                 (3, "bmi", "+27")),
    _edited_text((4, "sit_min", "-1"), (3, "bmi", "-Infinity")),
    "\n".join(BASE_ROWS[:2]) + "\n",
], ids=["saved", "blank-runs", "nan-cells", "padded", "bad-values",
        "one-row"])
def test_plain_text_takes_the_loadtxt_path(tmp_path, monkeypatch, text):
    path = tmp_path / "c.csv"
    path.write_text(text, encoding="utf-8")
    want = _outcome(reference_load_cohort_csv, path)

    def no_row_parser(path):
        raise AssertionError("plain text went to the row parser")

    monkeypatch.setattr(cohort_module, "_parse_rows", no_row_parser)
    if isinstance(want, str):
        with pytest.raises(CohortError) as info:
            load_cohort_csv(path)
        assert str(info.value) == want
    else:
        assert_same_load(path)


@pytest.mark.parametrize("text", [
    BASE_TEXT.rstrip("\n"),
    BASE_TEXT.replace("\n", "\r\n"),
    BASE_TEXT.replace("\n", "\n\n", 2),
    BASE_TEXT.replace("p1", '"p1"', 1),
    BASE_TEXT.replace("p1", "pé", 1),
    BASE_TEXT.replace(",7,", ",\x1c7,", 1),
    BASE_TEXT.replace(",7,", ",7,1,", 1),
], ids=["no-final-newline", "crlf", "blank-line", "quoted", "non-ascii",
        "control-character", "extra-field"])
def test_other_text_goes_to_the_row_parser(tmp_path, text):
    assert cohort_module._parse_plain(text) is None
    path = tmp_path / "c.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_load(path)


@pytest.mark.parametrize("first_id", ["p1", '"p1"'],
                         ids=["loadtxt", "row-parser"])
def test_row_whose_minutes_overflow_names_its_line(tmp_path, first_id):
    rows = list(BASE_ROWS)
    rows[1] = rows[1].replace("p1", first_id, 1)
    for column in ("sit_min", "sleep_min"):
        _set_cell(rows, 3, CSV_HEADER.index(column), "1e308")
    _set_cell(rows, 4, CSV_HEADER.index("bmi"), "inf")  # a later bad cell
    path = tmp_path / "c.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CohortError) as info:
        load_cohort_csv(path)
    assert str(info.value) == f"{path} line 5: bmi is infinite"
    _set_cell(rows, 4, CSV_HEADER.index("bmi"), "27")
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CohortError) as info:
        load_cohort_csv(path)
    assert str(info.value) == (f"{path} line 4: behavior minutes sum past "
                               "the largest float")
    assert_same_load(path)


def test_first_bad_cell_in_file_order_names_the_load_error(tmp_path):
    rows = list(BASE_ROWS)
    _set_cell(rows, 4, CSV_HEADER.index("sit_min"), "-1")
    _set_cell(rows, 3, CSV_HEADER.index("casi_irt"), "inf")
    _set_cell(rows, 3, CSV_HEADER.index("bmi"), "-inf")
    path = tmp_path / "c.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CohortError, match="line 4: bmi is infinite$"):
        load_cohort_csv(path)
