"""Day-level ingestion: CSV parsing, valid-day filtering, person aggregation,
and cohort descriptive statistics.

Day CSV schema (header exactly)::

    person_id,date,sit_min,stand_min,step_min,in_bed,out_bed,wear_min

``in_bed`` is the bedtime ending the day and ``out_bed`` the next morning's
rise time that closes it (a day runs out-of-bed to the next out-of-bed, so
its length need not be 24 hours).  Sleep is the in-bed interval; timestamps
are ISO-8601.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .cohort import (BEHAVIOR_LABELS, COVARIATE_COLUMNS, CohortTable,
                     csv_field, csv_reader, format_number)

DAY_CSV_HEADER = (
    "person_id", "date", "sit_min", "stand_min", "step_min",
    "in_bed", "out_bed", "wear_min",
)

MIN_WEAR_MINUTES = 600  # 10 or more hours of waking wear
MIN_VALID_DAYS = 4


class IngestError(ValueError):
    pass


class DayRecord(NamedTuple):
    """One day of one person: an immutable tuple of the day-CSV columns,
    so building one is a tuple allocation."""

    person_id: str
    date: str
    sit_min: float
    stand_min: float
    step_min: float
    in_bed: datetime
    out_bed: datetime
    wear_min: float


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


def load_day_csv(path) -> tuple[list[DayRecord], list[RowError]]:
    """Parse day records; malformed rows go into the error report.

    Each row is checked in this order: field count, the four minute cells as
    numbers, none negative, both timestamps as ISO-8601, ``out_bed`` after
    ``in_bed`` (both naive or both with a UTC offset), then the minute cells
    finite.  The first failed check is the row's error, naming the line the
    row ends on.  A bad header, a cell over the csv module's field size
    limit, or text that is not UTF-8 raises ``IngestError``.
    """
    fromiso, inf = datetime.fromisoformat, math.inf
    # one C call per record; DayRecord(...) runs a Python-level __new__
    make = DayRecord._make
    # one str per distinct person id and date, shared by the rows that
    # repeat it: 20k persons x 7 days hold 20k ids, not 140k
    share = {}.setdefault
    records: list[DayRecord] = []
    errors: list[RowError] = []
    with csv_reader(path, DAY_CSV_HEADER, "day", IngestError) as reader:
        for row in reader:
            try:
                pid, date, sit, stand, step, in_bed, out_bed, wear = row
            except ValueError:
                errors.append(RowError(reader.line_num, "wrong field count"))
                continue
            try:
                sit, stand, step, wear = (
                    float(sit), float(stand), float(step), float(wear))
                if sit < 0 or stand < 0 or step < 0 or wear < 0:
                    raise IngestError(
                        "negative " + _first_minute_column(
                            lambda v: v < 0, sit, stand, step, wear))
                in_bed, out_bed = fromiso(in_bed), fromiso(out_bed)
                try:
                    if out_bed <= in_bed:
                        raise IngestError("out_bed must follow in_bed")
                except TypeError:
                    raise IngestError(
                        "in_bed and out_bed mix naive and UTC-offset "
                        "timestamps") from None
                # NaN and +inf pass the checks above; -inf is negative
                if not (sit < inf and stand < inf and step < inf
                        and wear < inf):
                    raise IngestError(
                        "non-finite " + _first_minute_column(
                            lambda v: not math.isfinite(v),
                            sit, stand, step, wear))
            except ValueError as exc:  # IngestError is one
                errors.append(RowError(reader.line_num, str(exc)))
                continue
            records.append(make((
                share(pid, pid), share(date, date),
                sit, stand, step, in_bed, out_bed, wear)))
    return records, errors


_MINUTE_COLUMNS = ("sit_min", "stand_min", "step_min", "wear_min")


def _first_minute_column(failed, *values: float) -> str:
    """The name of the first minute column whose value ``failed``."""
    return next(name for name, v in zip(_MINUTE_COLUMNS, values) if failed(v))


def write_day_csv(records: list[DayRecord], path) -> None:
    """Day records as a day CSV that ``load_day_csv`` reads back to equal
    records: the id and date quoted by ``csv_field``, the minute cells
    written by ``format_number`` and the timestamps by ``isoformat``, which
    never need quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(DAY_CSV_HEADER) + "\n")
        fh.writelines(
            f"{csv_field(pid)},{csv_field(date)},{format_number(sit)},"
            f"{format_number(stand)},{format_number(step)},"
            f"{in_bed.isoformat()},{out_bed.isoformat()},"
            f"{format_number(wear)}\n"
            for pid, date, sit, stand, step, in_bed, out_bed, wear in records)


def validate_days(records: list[DayRecord]) -> dict[str, list[DayRecord]]:
    """Valid days (wear >= 600 min) grouped by person, keeping only persons
    with at least 4 valid days."""
    by_person: dict[str, list[DayRecord]] = {}
    for r in records:
        if r.wear_min >= MIN_WEAR_MINUTES:
            by_person.setdefault(r.person_id, []).append(r)
    return {pid: days for pid, days in by_person.items()
            if len(days) >= MIN_VALID_DAYS}


def aggregate_person(
    valid: dict[str, list[DayRecord]],
    covariate_table: dict[str, dict[str, float]],
) -> CohortTable:
    """Arithmetic means over valid days plus covariates and outcome.

    ``covariate_table`` maps person_id to a dict holding the numeric
    covariate columns plus ``casi_irt``; missing values may be NaN.
    """
    ids = sorted(valid)
    missing = [pid for pid in ids if pid not in covariate_table]
    if missing:
        raise IngestError(f"persons absent from covariate table: {missing[:5]}")
    n = len(ids)
    ndays = np.fromiter((len(valid[pid]) for pid in ids), dtype=int, count=n)
    days = list(chain.from_iterable(valid[pid] for pid in ids))
    person = np.repeat(np.arange(n), ndays)

    def day_column(name: str) -> np.ndarray:
        return np.fromiter(map(attrgetter(name), days), dtype=float,
                           count=len(days))

    def person_mean(values: np.ndarray) -> np.ndarray:
        # bincount adds each person's days in order, as np.mean does for up
        # to seven of them
        return np.bincount(person, weights=values, minlength=n) / ndays

    sit, stand, step = map(day_column, ("sit_min", "stand_min", "step_min"))
    sleep = np.fromiter(((d.out_bed - d.in_bed).total_seconds() / 60
                         for d in days), dtype=float, count=len(days))
    behaviors = np.column_stack(
        [person_mean(col) for col in (sit, stand, step, sleep)])
    total = person_mean(sit + stand + step + sleep)
    rows = [covariate_table[pid] for pid in ids]
    covariates = {name: np.array([row.get(name, math.nan) for row in rows])
                  for name in COVARIATE_COLUMNS}
    outcome = np.array([row.get("casi_irt", math.nan) for row in rows])
    return CohortTable(ids, behaviors, total, covariates, outcome, ndays)


# a mean or SD that overflows is inf or NaN, without numpy's warning: the
# strict JSON writer rejects it
@np.errstate(over="ignore", invalid="ignore")
def describe(cohort: CohortTable) -> dict:
    """Descriptive summary: behavior hours/day mean (SD), total median [IQR],
    covariate means/counts, and outcome summary."""
    out: dict = {"n": cohort.n}
    behaviors = {}
    for j, lab in enumerate(BEHAVIOR_LABELS):
        hrs = cohort.behaviors[:, j] / 60.0
        behaviors[lab] = {
            "mean_h": round(float(hrs.mean()), 3),
            "sd_h": round(float(hrs.std(ddof=1)), 3) if cohort.n > 1 else None,
        }
    out["behaviors_hours_per_day"] = behaviors
    q25, q50, q75 = np.percentile(cohort.total, [25, 50, 75])
    out["total_min_median_iqr"] = [round(float(q50), 1),
                                   round(float(q25), 1), round(float(q75), 1)]
    cont = {}
    for name in ("education_years", "bmi", "cesd"):
        col = cohort.covariates[name]
        col = col[~np.isnan(col)]
        cont[name] = {
            "mean": round(float(col.mean()), 3) if col.size else None,
            "sd": round(float(col.std(ddof=1)), 3) if col.size > 1 else None,
        }
    cat = {}
    for name in ("age_75_84", "age_85p", "female", "nonwhite", "fair_poor_health"):
        col = cohort.covariates[name]
        known = col[~np.isnan(col)]
        count = int(np.nansum(col))
        cat[name] = {
            "n": count,
            "pct": round(100.0 * count / known.size, 1) if known.size else None,
        }
    out["continuous"] = cont
    out["categorical"] = cat
    y = cohort.outcome[~np.isnan(cohort.outcome)]
    out["outcome"] = {
        "mean": round(float(y.mean()), 3) if y.size else None,
        "sd": round(float(y.std(ddof=1)), 3) if y.size > 1 else None,
    }
    out["valid_days_min"] = int(cohort.valid_days.min())
    return out
