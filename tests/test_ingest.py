"""Day-level ingestion, cohort CSV round trips, and the simulator."""

import csv
import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from daycycle.cohort import (
    BEHAVIOR_LABELS,
    COVARIATE_COLUMNS,
    CSV_HEADER,
    CohortError,
    CohortTable,
    complete_case,
    load_cohort_csv,
    save_cohort_csv,
)
from daycycle.ingest import (
    MIN_VALID_DAYS,
    MIN_WEAR_MINUTES,
    DAY_CSV_HEADER,
    DayRecord,
    IngestError,
    RowError,
    aggregate_person,
    describe,
    load_day_csv,
    validate_days,
    write_day_csv,
)
from daycycle.simulate import (
    SimSpec,
    SimulationError,
    default_sim_spec,
    simulate_cohort,
    simulate_day_records,
)


def make_day(pid="p1", date="2020-01-01", sit=600.0, stand=200.0, step=80.0,
             wear=880.0, sleep_h=8.0):
    in_bed = datetime.fromisoformat(f"{date}T22:00:00")
    return DayRecord(pid, date, sit, stand, step, in_bed,
                     in_bed + timedelta(hours=sleep_h), wear)


def test_day_record_derived_fields():
    """A day's sleep is its in-bed interval, and its four behaviors make its
    total; a day worn 880 minutes is valid."""
    days = [make_day(date=f"2020-01-0{i}") for i in range(1, 5)]
    valid = validate_days(days)
    assert valid == {"p1": days}
    table = {"p1": {c: 0.0 for c in COVARIATE_COLUMNS} | {"casi_irt": 0.0}}
    cohort = aggregate_person(valid, table)
    assert cohort.behavior("sleep")[0] == 480.0
    assert cohort.total[0] == 600.0 + 200.0 + 80.0 + 480.0


def test_wear_boundary_is_inclusive():
    def days(pid, wear):
        return [make_day(pid, f"2020-01-0{i}", wear=wear)
                for i in range(1, MIN_VALID_DAYS + 1)]

    valid = validate_days(days("at", float(MIN_WEAR_MINUTES))
                          + days("below", MIN_WEAR_MINUTES - 1e-9))
    assert set(valid) == {"at"}


def test_load_day_csv_round_trip(tmp_path):
    records = [make_day(date=f"2020-01-0{i}") for i in range(1, 6)]
    # the same days with numpy-float minutes, as arrays hand them out
    minutes = ("sit_min", "stand_min", "step_min", "wear_min")
    as_numpy = [r._replace(**{f: np.float64(getattr(r, f)) for f in minutes})
                for r in records]
    path = tmp_path / "days.csv"
    path2 = tmp_path / "days2.csv"
    for days in (records, as_numpy):
        write_day_csv(days, path)
        back, errors = load_day_csv(path)
        assert errors == []
        assert back == records
        # byte-stable second pass
        write_day_csv(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_load_day_csv_header_and_row_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(IngestError, match="^unexpected day header in "):
        load_day_csv(path)
    rows = [
        "person_id,date,sit_min,stand_min,step_min,in_bed,out_bed,wear_min",
        "p1,2020-01-01,600,200,80,2020-01-01T22:00:00,2020-01-02T06:00:00,880",
        "p1,2020-01-02,-5,200,80,2020-01-02T22:00:00,2020-01-03T06:00:00,880",
        "p1,2020-01-03,600,200,80,not-a-time,2020-01-04T06:00:00,880",
        "p1,2020-01-04,600,200,80,2020-01-04T22:00:00,2020-01-04T21:00:00,880",
        "p1,too,few",
    ]
    path.write_text("\n".join(rows) + "\n")
    records, errors = load_day_csv(path)
    assert len(records) == 1
    assert [e.line for e in errors] == [3, 4, 5, 6]
    assert "negative" in errors[0].message


def test_row_errors_name_the_physical_line(tmp_path):
    """A quoted id that spans two lines makes its row end on line 3, so the
    next row, whose sit_min is not a number, sits on line 4."""
    path = tmp_path / "days.csv"
    path.write_text("\n".join([",".join(DAY_CSV_HEADER),
                               _day_row(pid='"p\n1"'), _day_row(sit="abc")])
                    + "\n")
    records, errors = load_day_csv(path)
    assert [r.person_id for r in records] == ["p\n1"]
    assert errors == [
        RowError(4, "could not convert string to float: 'abc'")]


def test_validate_days_requires_four_valid():
    three = [make_day(date=f"2020-01-0{i}") for i in range(1, 4)]
    four = [make_day(pid="p2", date=f"2020-01-0{i}") for i in range(1, 5)]
    invalidating = make_day(pid="p2", date="2020-01-05",
                            wear=MIN_WEAR_MINUTES - 1)
    valid = validate_days(three + four + [invalidating])
    assert set(valid) == {"p2"}
    assert len(valid["p2"]) == MIN_VALID_DAYS


def test_aggregate_person_means():
    days = [make_day(date=f"2020-01-0{i}", sit=600.0 + 10 * i)
            for i in range(1, 5)]
    table = {"p1": {c: 0.0 for c in COVARIATE_COLUMNS} | {"casi_irt": 0.5}}
    cohort = aggregate_person({"p1": days}, table)
    assert cohort.n == 1
    assert cohort.behavior("sit")[0] == pytest.approx(625.0)
    assert cohort.behavior("sleep")[0] == pytest.approx(480.0)
    assert cohort.valid_days[0] == 4
    assert cohort.outcome[0] == 0.5
    with pytest.raises(IngestError):
        aggregate_person({"p1": days}, {})


def test_cohort_csv_round_trip_byte_stable(tmp_path):
    spec = default_sim_spec()
    cohort = simulate_cohort(spec, 80, seed=5).cohort
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_cohort_csv(cohort, p1)
    back = load_cohort_csv(p1)
    save_cohort_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.ids == cohort.ids
    assert np.array_equal(back.behaviors, cohort.behaviors)
    assert np.array_equal(back.outcome, cohort.outcome)


def test_cohort_csv_golden_file(tmp_path):
    """A tiny cohort with awkward floats and a missing covariate must
    serialize to exactly this text."""
    from daycycle.cohort import CohortTable
    cohort = CohortTable(
        ids=["p1", "p2"],
        behaviors=np.array([[600.1, 200.0, 80.0, 480.0],
                            [610.0, 190.5, 70.25, 500.0]]),
        total=np.array([1360.1, 1370.75]),
        covariates={c: np.array([0.0, 1.0]) for c in COVARIATE_COLUMNS}
        | {"bmi": np.array([27.3, math.nan])},
        outcome=np.array([0.123456789, -1.0]),
        valid_days=np.array([4, 7]),
    )
    path = tmp_path / "golden.csv"
    save_cohort_csv(cohort, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].startswith("p1,600.1,200.0,80.0,480.0,1360.1,4,")
    assert ",27.3," in lines[1]
    assert ",0.123456789" in lines[1]
    assert ",," in lines[2]  # NaN bmi serialized as the empty string
    back = load_cohort_csv(path)
    assert math.isnan(back.covariates["bmi"][1])
    save_cohort_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == text


def test_complete_case_report():
    spec = default_sim_spec()
    spec.missing_covariate_rate = 0.15
    cohort = simulate_cohort(spec, 400, seed=9).cohort
    kept, report = complete_case(cohort, ["bmi", "cesd"])
    assert report["excluded"] > 0
    assert kept.n == cohort.n - report["excluded"]
    for col in ("bmi", "cesd"):
        assert not np.isnan(kept.covariates[col]).any()
    assert report["excluded_pct"] == round(
        100 * report["excluded"] / cohort.n, 1)


def test_describe_keys_and_values():
    cohort = simulate_cohort(default_sim_spec(), 300, seed=11).cohort
    rep = describe(cohort)
    assert rep["n"] == 300
    assert set(rep["behaviors_hours_per_day"]) == set(BEHAVIOR_LABELS)
    sit = rep["behaviors_hours_per_day"]["sit"]
    assert 8.0 < sit["mean_h"] < 12.0
    med, lo, hi = rep["total_min_median_iqr"]
    assert lo <= med <= hi
    assert rep["valid_days_min"] >= MIN_VALID_DAYS
    assert 0 <= rep["categorical"]["female"]["pct"] <= 100


def test_simulate_deterministic():
    spec = default_sim_spec()
    a = simulate_cohort(spec, 150, seed=42).cohort
    b = simulate_cohort(spec, 150, seed=42).cohort
    assert a.ids == b.ids
    assert np.array_equal(a.behaviors, b.behaviors)
    assert np.array_equal(a.outcome, b.outcome)
    c = simulate_cohort(spec, 150, seed=43).cohort
    assert not np.array_equal(a.behaviors, c.behaviors)


def test_simulate_recovers_design_means():
    """Large-sample class-conditional hour means match the generator spec."""
    spec = default_sim_spec()
    result = simulate_cohort(spec, 10000, seed=7)
    cohort, classes = result.cohort, result.classes
    props = cohort.behaviors[:, :3] / cohort.total[:, None]
    for k in range(4):
        mask = classes == k
        got = props[mask].mean(axis=0)
        want = np.asarray(spec.class_means[k])
        assert np.allclose(got, want, atol=0.012)
    weights = np.bincount(classes, minlength=4) / len(classes)
    assert np.allclose(weights, spec.class_weights, atol=0.02)
    assert abs(cohort.total.mean() - spec.day_length_mean) < 0.5


def test_simulate_rejects_bad_weights():
    spec = default_sim_spec()
    spec.class_weights = [0.5, 0.5, 0.5, 0.5]
    with pytest.raises(SimulationError):
        simulate_cohort(spec, 50)


def test_sim_spec_json_round_trip():
    spec = default_sim_spec()
    back = SimSpec.from_json(spec.to_json())
    assert back == spec
    assert back.to_json() == spec.to_json()


def test_simulate_day_records_aggregate_back(tmp_path):
    """Day-level expansion feeds the ingestion pipeline and lands near the
    person-level cohort it came from."""
    cohort = simulate_cohort(default_sim_spec(), 30, seed=13).cohort
    records = simulate_day_records(cohort, seed=1, n_days=7)
    valid = validate_days(records)
    assert set(valid) <= set(cohort.ids)
    table = {
        pid: {c: cohort.covariates[c][i] for c in COVARIATE_COLUMNS}
        | {"casi_irt": cohort.outcome[i]}
        for i, pid in enumerate(cohort.ids)
    }
    agg = aggregate_person(valid, table)
    idx = [cohort.ids.index(pid) for pid in agg.ids]
    assert np.allclose(agg.behaviors, cohort.behaviors[idx], atol=60.0)


def test_cohort_table_validation():
    from daycycle.cohort import CohortTable
    with pytest.raises(CohortError):
        CohortTable(
            ids=["p1", "p1"],
            behaviors=np.ones((2, 4)),
            total=np.ones(2),
            covariates={},
            outcome=np.ones(2),
            valid_days=np.ones(2, dtype=int),
        )
    with pytest.raises(CohortError):
        CohortTable(
            ids=["p1"],
            behaviors=np.ones((1, 3)),
            total=np.ones(1),
            covariates={},
            outcome=np.ones(1),
            valid_days=np.ones(1, dtype=int),
        )


# --- the array path against the per-row arithmetic it replaced ---

def reference_composition_array(behaviors, labels):
    """Each row floored at 1 minute if it has a zero, then closed on its
    own."""
    from conftest import floored_row
    from daycycle.composition import closure_values
    return np.array([closure_values(floored_row(row), labels).parts
                     for row in behaviors])


def test_composition_array_matches_per_row_closure():
    from conftest import make_cohort
    cohort = make_cohort(n=500, seed=21)
    cohort.behaviors[3, 2] = 0.0
    cohort.behaviors[10, [0, 2]] = 0.0
    cohort.behaviors[11, 1:] = 0.0
    parts = cohort.composition_array()
    assert np.array_equal(parts, reference_composition_array(
        cohort.behaviors, cohort.behavior_labels))
    assert not parts.flags.writeable
    # whole minutes: the floored rows must not be truncated back to integers
    cohort = cohort.subset(np.ones(cohort.n, dtype=bool))
    cohort.behaviors = np.round(cohort.behaviors).astype(int)
    assert np.array_equal(cohort.composition_array(),
                          reference_composition_array(
                              cohort.behaviors, cohort.behavior_labels))


def test_composition_array_follows_new_behaviors():
    """Assigning ``behaviors`` after a call changes the next call's array."""
    from conftest import make_cohort
    cohort = make_cohort(n=40, seed=3)
    before = cohort.composition_array()
    cohort.behaviors = cohort.behaviors * [2, 1, 1, 1]
    after = cohort.composition_array()
    assert not np.array_equal(after, before)
    assert np.array_equal(after, reference_composition_array(
        cohort.behaviors, cohort.behavior_labels))


@pytest.mark.parametrize("row", [
    [0.0, 0.0, 0.0, 0.0],
    [600.0, -1.0, 80.0, 480.0],
    [600.0, math.nan, 80.0, 480.0],
    [600.0, 200.0, math.inf, 480.0],
], ids=["all-zero", "negative", "nan", "inf"])
def test_composition_array_rejects_unrepairable_rows(row):
    from conftest import make_cohort
    from daycycle.composition import CompositionError
    cohort = make_cohort(n=20, seed=22)
    cohort.behaviors[5] = row
    with pytest.raises(CompositionError):
        cohort.composition_array()


def _sleep_min(day):
    return (day.out_bed - day.in_bed).total_seconds() / 60.0


def _reference_aggregate(valid):
    """Per-person np.mean over each day's behavior minutes, sleep taken from
    the timestamps, as before the column path."""
    ids = sorted(valid)
    behaviors = np.array([[np.mean([getattr(d, f"{b}_min") for d in valid[p]])
                           for b in BEHAVIOR_LABELS[:3]]
                          + [np.mean([_sleep_min(d) for d in valid[p]])]
                          for p in ids])
    total = np.array([np.mean([d.sit_min + d.stand_min + d.step_min
                               + _sleep_min(d) for d in valid[p]])
                      for p in ids])
    return behaviors, total


def _random_days(rng, pid, n_days):
    return [make_day(pid, f"2020-01-{i + 1:02d}",
                     *(rng.uniform([300, 60, 0], [700, 300, 150])
                       * rng.uniform(0.5, 1.5)),
                     wear=rng.uniform(600, 1000), sleep_h=rng.uniform(5, 10))
            for i in range(n_days)]


def test_aggregate_person_matches_per_person_mean():
    rng = np.random.default_rng(23)
    table = {}
    short, long = {}, {}
    for i in range(300):
        pid = f"p{i:03d}"
        table[pid] = {c: float(i) for c in COVARIATE_COLUMNS} | {"casi_irt": 0.0}
        short[pid] = _random_days(rng, pid, 1 + i % 7)
        long[pid] = _random_days(rng, pid, 8 + i % 20)
    got = aggregate_person(short, table)
    want_b, want_t = _reference_aggregate(short)
    assert np.array_equal(got.behaviors, want_b)
    assert np.array_equal(got.total, want_t)
    assert got.valid_days.tolist() == [1 + i % 7 for i in range(300)]
    got = aggregate_person(long, table)
    want_b, want_t = _reference_aggregate(long)
    np.testing.assert_allclose(got.behaviors, want_b, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.total, want_t, rtol=1e-12, atol=0)
    assert got.covariates["bmi"].tolist() == [float(i) for i in range(300)]


def test_day_record_has_slots():
    assert not hasattr(make_day(), "__dict__")


def _reference_cohort_csv(cohort):
    """Row by row through format_number and the csv module.  The rows end in
    CRLF, so that the csv module quotes a cell holding a CR as well as one
    holding an LF; each line's CRLF is then cut to LF."""
    import io
    from daycycle.cohort import format_number

    def line(cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(cells)
        return buf.getvalue()[:-2] + "\n"

    return line(CSV_HEADER) + "".join(
        line([cohort.ids[i]]
             + [format_number(v) for v in cohort.behaviors[i]]
             + [format_number(cohort.total[i]),
                format_number(cohort.valid_days[i])]
             + [format_number(cohort.covariates[c][i])
                for c in COVARIATE_COLUMNS]
             + [format_number(cohort.outcome[i])])
        for i in range(cohort.n))


# ids the csv module quotes or passes through as they are
AWKWARD_IDS = ["a,b", 'say "hi"', "cr\rid", "lf\nid", " lead", "trail ",
               "é漢字", "", '"', ",", "\r\n"]


def _awkward_cohort():
    spec = default_sim_spec()
    spec.missing_covariate_rate = 0.2
    cohort = simulate_cohort(spec, 300, seed=24).cohort
    cohort.outcome[[0, 7]] = math.nan
    cohort.covariates["bmi"][1] = 1e-310  # subnormal
    cohort.covariates["cesd"][2] = -0.0
    cohort.covariates["cesd"][3] = math.inf
    cohort.valid_days[4] = 2 ** 62
    for i, pid in enumerate(AWKWARD_IDS):
        cohort.ids[10 + 25 * i] = pid
    # a covariate column of each dtype the writer formats on its own
    cohort.covariates["age_75_84"] = np.arange(300, dtype=np.int64) - 150
    cohort.covariates["female"] = np.arange(300) % 3 == 0
    cohort.covariates["education_years"] = np.array(
        [None, math.nan, 12, np.float64(1.5), True, 2 ** 70]
        + cohort.covariates["education_years"][6:].tolist(), dtype=object)
    assert np.isnan(cohort.covariates["bmi"]).any()
    return cohort


def test_save_cohort_csv_matches_row_by_row_writer(tmp_path, monkeypatch):
    from daycycle import cohort as cohort_module
    cohort = _awkward_cohort()
    empty = cohort.subset(np.zeros(cohort.n, dtype=bool))
    # several blocks, the last one partial
    monkeypatch.setattr(cohort_module, "_CSV_BLOCK_ROWS", 64)
    path = tmp_path / "c.csv"
    for table in (cohort, empty):
        want = _reference_cohort_csv(table)
        save_cohort_csv(table, path)
        assert path.read_bytes().decode("utf-8") == want
        assert cohort_module.cohort_csv_text(table) == want
    assert want == ",".join(CSV_HEADER) + "\n"


def test_awkward_ids_read_back(tmp_path):
    """Every awkward id, a lone CR among them, survives both writers and
    their loaders; an awkward date survives the day writer."""
    cohort = simulate_cohort(default_sim_spec(), 40, seed=25).cohort
    cohort.ids[:len(AWKWARD_IDS)] = AWKWARD_IDS
    path = tmp_path / "c.csv"
    save_cohort_csv(cohort, path)
    assert load_cohort_csv(path).ids == cohort.ids
    days = [make_day(pid=pid)._replace(date=f"day {pid}")
            for pid in AWKWARD_IDS]
    write_day_csv(days, path)
    back, errors = load_day_csv(path)
    assert errors == []
    assert back == days


def _rows(n, width, cell):
    return st.lists(st.lists(cell, min_size=width, max_size=width),
                    min_size=n, max_size=n)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    # behaviors and total: finite, not negative, summing below overflow
    _rows(n, len(BEHAVIOR_LABELS) + 1, st.floats(0, 1e300)),
    # covariates and outcome: NaN is a blank cell
    _rows(n, len(COVARIATE_COLUMNS) + 1, st.floats(allow_infinity=False)),
    st.lists(st.integers(0, 2 ** 63 - 1), min_size=n, max_size=n))))
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_saved_cohort_reads_back_bit_for_bit(tmp_path, table):
    minutes, values, valid_days = (np.array(t) for t in table)
    cohort = CohortTable(
        [f"p{i}" for i in range(len(valid_days))], minutes[:, :-1],
        minutes[:, -1], dict(zip(COVARIATE_COLUMNS, values[:, :-1].T)),
        values[:, -1], valid_days)
    path = tmp_path / "c.csv"
    save_cohort_csv(cohort, path)
    back = load_cohort_csv(path)
    assert back.ids == cohort.ids
    assert back.valid_days.tobytes() == cohort.valid_days.tobytes()
    assert back.behaviors.tobytes() == cohort.behaviors.tobytes()
    assert back.total.tobytes() == cohort.total.tobytes()
    for got, want in ([(back.covariates[c], cohort.covariates[c])
                       for c in COVARIATE_COLUMNS]
                      + [(back.outcome, cohort.outcome)]):
        blank = np.isnan(want)  # any NaN is written as an empty cell
        assert (np.isnan(got) == blank).all()
        assert got[~blank].tobytes() == want[~blank].tobytes()


@pytest.mark.parametrize("column,cell,message", [
    ("stand_min", "", "stand_min is empty"),
    ("sleep_min", "nan", "sleep_min is empty or NaN"),
    ("total_min", "inf", "total_min is infinite"),
    ("sit_min", "-inf", "sit_min is infinite"),
    ("sit_min", "-1.5", "sit_min is negative"),
    ("total_min", "-1440", "total_min is negative"),
    ("bmi", "inf", "bmi is infinite"),
    ("female", "-Infinity", "female is infinite"),
    ("valid_days", "-3", "valid_days is negative"),
    ("valid_days", "9223372036854775808", "valid_days does not fit in int64"),
])
def test_load_cohort_csv_rejects_missing_behavior_cells(tmp_path, column,
                                                        cell, message):
    cohort = simulate_cohort(default_sim_spec(), 20, seed=25).cohort
    path = tmp_path / "c.csv"
    save_cohort_csv(cohort, path)
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[4].split(",")
    fields[CSV_HEADER.index(column)] = cell
    lines[4] = ",".join(fields)
    path.write_text("".join(lines))
    with pytest.raises(CohortError, match=f"line 5: {message}"):
        load_cohort_csv(path)


def test_load_cohort_csv_reads_blank_covariates_and_outcome_as_nan(tmp_path):
    cohort = simulate_cohort(default_sim_spec(), 20, seed=26).cohort
    cohort.covariates["cesd"][3] = math.nan
    cohort.outcome[4] = math.nan
    path = tmp_path / "c.csv"
    save_cohort_csv(cohort, path)
    back = load_cohort_csv(path)
    assert math.isnan(back.covariates["cesd"][3])
    assert math.isnan(back.outcome[4])
    # so do NaN cells
    text = path.read_text().replace(",,", ",nan,", 1).replace(",\n", ",NaN\n")
    path.write_text(text)
    again = load_cohort_csv(path)
    assert math.isnan(again.covariates["cesd"][3])
    assert math.isnan(again.outcome[4])


def test_compositions_of_labels_match_per_point_subcomposition():
    """The subcompositions are closed from the array, bit for bit as closing
    each point's picked parts closes them, in the order asked for."""
    from conftest import closed_subcompositions, make_cohort
    cohort = make_cohort(n=400, seed=27)
    cohort.behaviors[3, 2] = 0.0
    cohort.behaviors[10, [0, 2]] = 0.0
    cohort.behaviors[11, 1:] = 0.0
    for labels in [("sit", "stand", "step"), ("sleep", "sit", "step"),
                   ("step", "stand"), cohort.behavior_labels]:
        got = cohort.compositions(labels)
        assert got.shape == (cohort.n, len(labels))
        assert np.array_equal(
            got, closed_subcompositions(cohort.behaviors, labels))


def test_compositions_reject_an_unknown_label():
    from conftest import make_cohort
    from daycycle.composition import CompositionError
    cohort = make_cohort(n=20, seed=28)
    with pytest.raises(CompositionError, match="unknown label 'nap'"):
        cohort.compositions(("sit", "nap", "step"))


# --- the one-pass day parser against the per-row parser it replaced ---

def _reference_parse_row(row):
    sit, stand, step, wear = (float(row[i]) for i in (2, 3, 4, 7))
    for name, v in (("sit_min", sit), ("stand_min", stand),
                    ("step_min", step), ("wear_min", wear)):
        if v < 0:
            raise IngestError(f"negative {name}")
    in_bed = datetime.fromisoformat(row[5])
    out_bed = datetime.fromisoformat(row[6])
    if out_bed <= in_bed:
        raise IngestError("out_bed must follow in_bed")
    return DayRecord(row[0], row[1], sit, stand, step, in_bed, out_bed, wear)


def reference_load_day_csv(path):
    """The per-row loop: a field-count check, then ``_reference_parse_row``."""
    records, errors = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == DAY_CSV_HEADER
        for row in reader:
            if len(row) != len(DAY_CSV_HEADER):
                errors.append(RowError(reader.line_num, "wrong field count"))
                continue
            try:
                records.append(_reference_parse_row(row))
            except (ValueError, IngestError) as exc:
                errors.append(RowError(reader.line_num, str(exc)))
    return records, errors


def _day_row(pid="p1", date="2020-01-01", sit="600", stand="200", step="80",
             in_bed="2020-01-01T22:00:00", out_bed="2020-01-02T06:00:00",
             wear="880"):
    return ",".join([pid, date, sit, stand, step, in_bed, out_bed, wear])


def test_load_day_csv_matches_per_row_parser(tmp_path):
    minute_cells = ("sit", "stand", "step", "wear")
    rows = [_day_row(), _day_row(sit="600.25", wear="1e3"),
            _day_row(in_bed="2020-01-01T22:00:00+02:00",
                     out_bed="2020-01-02T06:00:00+02:00"),
            _day_row(pid='"p,2"', in_bed="2020-01-01 22:00"),
            # a quoted id over two lines: later rows' line numbers are not
            # their row numbers
            _day_row(pid='"p\n3"'),
            "p1,too,few", _day_row() + ",extra", "",
            _day_row(in_bed="not-a-time"), _day_row(out_bed="2020-13-01"),
            _day_row(in_bed="2020-13-01", out_bed="not-a-time"),
            _day_row(out_bed="2020-01-01T21:00:00"),
            _day_row(out_bed="2020-01-01T22:00:00"),
            # several faults: the first check in order names the row
            _day_row(sit="-1", stand="x", in_bed="bad"),
            _day_row(stand="-1", wear="-2", out_bed="bad"),
            _day_row(step="-0.5", out_bed="2020-01-01T21:00:00")]
    for cell in minute_cells:
        rows += [_day_row(**{cell: "x"}), _day_row(**{cell: ""}),
                 _day_row(**{cell: "-1"}), _day_row(**{cell: "-inf"}),
                 _day_row(**{cell: "-0.0"})]
    path = tmp_path / "days.csv"
    path.write_text("\n".join([",".join(DAY_CSV_HEADER)] + rows) + "\n")
    records, errors = load_day_csv(path)
    want_records, want_errors = reference_load_day_csv(path)
    assert records == want_records
    assert errors == want_errors
    assert len(records) == 9 and len(errors) == 27
    assert errors[0].line == 8
    assert {e.message for e in errors} >= {
        "wrong field count", "out_bed must follow in_bed",
        "negative sit_min", "negative stand_min", "negative step_min",
        "negative wear_min", "could not convert string to float: 'x'"}


@pytest.mark.parametrize("cell", ["nan", "inf", "NaN", "Infinity"])
@pytest.mark.parametrize("column", ["sit", "stand", "step", "wear"])
def test_load_day_csv_rejects_non_finite_minutes(tmp_path, column, cell):
    path = tmp_path / "days.csv"
    path.write_text("\n".join([",".join(DAY_CSV_HEADER), _day_row(),
                               _day_row(**{column: cell})]) + "\n")
    records, errors = load_day_csv(path)
    assert len(records) == 1
    assert errors == [RowError(3, f"non-finite {column}_min")]


def test_load_day_csv_rejects_mixed_timestamps(tmp_path):
    path = tmp_path / "days.csv"
    path.write_text("\n".join([
        ",".join(DAY_CSV_HEADER),
        _day_row(out_bed="2020-01-02T06:00:00+00:00"),
        _day_row(in_bed="2020-01-01T22:00:00Z"),
        _day_row(in_bed="2020-01-01T22:00:00Z",
                 out_bed="2020-01-02T06:00:00+01:00")]) + "\n")
    records, errors = load_day_csv(path)
    message = "in_bed and out_bed mix naive and UTC-offset timestamps"
    assert errors == [RowError(2, message), RowError(3, message)]
    assert len(records) == 1
    assert records[0].out_bed - records[0].in_bed == timedelta(minutes=420)


def test_load_day_csv_names_the_line_of_an_oversized_cell(tmp_path):
    path = tmp_path / "days.csv"
    header = ",".join(DAY_CSV_HEADER)
    texts = {3: [header, _day_row(), _day_row(sit="1" * 200_000), _day_row()],
             1: [header + "w" * 200_000]}
    for line, rows in texts.items():
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestError) as exc:
            load_day_csv(path)
        assert str(exc.value) == (f"{path} line {line}: field larger than "
                                  "field limit (131072)")


def test_load_day_csv_that_is_not_utf8_raises_ingest_error(tmp_path):
    path = tmp_path / "days.csv"
    header = ",".join(DAY_CSV_HEADER).encode()
    for text in (b"\xff" + header + b"\n",
                 header + b"\n" + _day_row(pid="p\xe9").encode("latin-1")):
        path.write_bytes(text + b"\n")
        with pytest.raises(IngestError) as exc:
            load_day_csv(path)
        assert str(exc.value).startswith(f"{path} is not UTF-8 text (")


# --- DayRecord's contract as a NamedTuple ---

def test_day_record_contract():
    in_bed = datetime(2020, 1, 1, 22, 0)
    out_bed = datetime(2020, 1, 2, 6, 30)
    fields = ("p1", "2020-01-01", 600.0, 200.0, 80.0, in_bed, out_bed, 880.0)
    by_position = DayRecord(*fields)
    by_keyword = DayRecord(person_id="p1", date="2020-01-01", sit_min=600.0,
                           stand_min=200.0, step_min=80.0, in_bed=in_bed,
                           out_bed=out_bed, wear_min=880.0)
    assert DayRecord._fields == DAY_CSV_HEADER
    assert by_position == by_keyword == fields
    assert hash(by_position) == hash(by_keyword) == hash(fields)
    assert len({by_position, by_keyword}) == 1
    assert by_position != by_position._replace(wear_min=599.0)
    for name in DayRecord._fields:
        with pytest.raises(AttributeError):
            setattr(by_position, name, 0.0)
    with pytest.raises(TypeError):
        DayRecord(*fields[:7])


# --- the vectorised day-record simulator against the loop it replaced ---

def reference_simulate_day_records(cohort, seed=0, n_days=7):
    """One noise draw of four per person-day, then datetime arithmetic."""
    rng = np.random.default_rng(seed)
    records = []
    base = datetime(2024, 1, 1, 7, 0)
    for i, pid in enumerate(cohort.ids):
        means = cohort.behaviors[i]
        for day in range(n_days):
            noise = rng.normal(1.0, 0.05, 4)
            sit, stand, step, sleep = np.maximum(means * noise, 1.0)
            wake_start = base + timedelta(days=day)
            in_bed = wake_start + timedelta(minutes=float(sit + stand + step))
            out_bed = in_bed + timedelta(minutes=float(sleep))
            records.append(DayRecord(
                person_id=pid,
                date=wake_start.date().isoformat(),
                sit_min=float(sit), stand_min=float(stand),
                step_min=float(step),
                in_bed=in_bed, out_bed=out_bed,
                wear_min=float(sit + stand + step),
            ))
    return records


@pytest.mark.parametrize("n_days", [1, 7])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_simulate_day_records_match_the_loop(seed, n_days):
    cohort = simulate_cohort(default_sim_spec(), 200, seed=30 + seed).cohort
    cohort.behaviors[3] = 0.0  # every minute floored at 1.0
    cohort.behaviors[4, 2] = 0.0
    got = simulate_day_records(cohort, seed=seed, n_days=n_days)
    want = reference_simulate_day_records(cohort, seed=seed, n_days=n_days)
    assert got == want
    assert [tuple(map(type, r)) for r in got] == [
        tuple(map(type, r)) for r in want]
    assert got[3 * n_days].sit_min == 1.0


def test_timedelta_microseconds_round_as_datetime_does():
    """Including exact ties of the leftover half microsecond, which round to
    the even total."""
    from daycycle.simulate import _timedelta_us
    rng = np.random.default_rng(31)
    minutes = np.concatenate([
        rng.uniform(0.0, 2000.0, 5000), rng.uniform(-2000.0, 0.0, 500),
        np.arange(1, 4000) * 2.0 ** -33, 1.0 + np.arange(1, 4000) * 2.0 ** -27,
        [0.0, 1.0, 1439.999999999, 0.5 / 60e6, 1.5 / 60e6, -2.5 / 60e6]])
    frac_us = np.modf(np.modf(minutes)[0] * 60e6)[0]
    assert (np.abs(frac_us) == 0.5).sum() >= 3  # ties are in the sample
    want = [timedelta(minutes=m) // timedelta(microseconds=1)
            for m in minutes.tolist()]
    assert _timedelta_us(minutes).tolist() == want


@pytest.mark.parametrize("minutes,problem", [
    (math.nan, "must be finite"), (math.inf, "must be finite"),
    (1e10, "too long"),
])
def test_simulate_day_records_rejects_unusable_minutes(minutes, problem):
    cohort = simulate_cohort(default_sim_spec(), 5, seed=32).cohort
    cohort.behaviors[2, 3] = minutes
    with pytest.raises(SimulationError, match=problem):
        simulate_day_records(cohort)
