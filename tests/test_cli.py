"""Command-line interface: subcommands, exit codes, and output artifacts."""

import csv
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import daycycle
from daycycle.cli import main
from daycycle.cohort import load_cohort_csv, save_cohort_csv


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cohort.csv"
    rc = main(["simulate", "--n", "250", "--seed", "42", "-o", str(path)])
    assert rc == 0
    return path


def run(args):
    return main([str(a) for a in args])


def assert_numeric_cells(path, label_columns=0):
    """Every data cell after the leading label columns is a float or empty."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows
    for row in rows:
        for cell in row[label_columns:]:
            if cell:
                float(cell)


def test_simulate_deterministic(tmp_path, cohort_csv):
    other = tmp_path / "again.csv"
    assert run(["simulate", "--n", "250", "--seed", "42", "-o", other]) == 0
    assert other.read_bytes() == cohort_csv.read_bytes()


def test_describe_formats(tmp_path, cohort_csv):
    out = tmp_path / "out"
    assert run(["describe", cohort_csv, "-o", out, "--format", "both"]) == 0
    rep = json.loads((out / "describe.json").read_text())
    assert rep["n"] == 250
    # every leaf of the JSON report is one CSV row, named by its key, after
    # the key of the object holding it and "_" below the top level; the
    # total's [median, q25, q75] list is three rows
    med, q25, q75 = rep.pop("total_min_median_iqr")
    want = {"total_min_median": med, "total_min_q25": q25,
            "total_min_q75": q75}

    def add_leaves(obj, prefix):
        for key, value in obj.items():
            if isinstance(value, dict):
                add_leaves(value, f"{key}_")
            else:
                want[prefix + key] = value

    add_leaves(rep, "")
    with open(out / "describe.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["field", "value"]
    assert len({name for name, _ in rows}) == len(rows)
    assert dict(rows) == {name: "" if value is None else str(value)
                          for name, value in want.items()}


def test_ism_outputs(tmp_path, cohort_csv):
    out = tmp_path / "out"
    assert run(["ism", cohort_csv, "-o", out, "--minutes", "30",
                "--subgroup-step-cut", "60", "--flexible"]) == 0
    tables = json.loads((out / "ism_table.json").read_text())
    assert set(tables) == {"overall", "step_gt_60", "step_le_60"}
    cells = tables["overall"]["cells"]
    assert cells["sit->step"]["estimate"] == pytest.approx(
        -cells["step->sit"]["estimate"])
    flex = json.loads((out / "ism_flexible.json").read_text())
    assert flex["selected_knots"] in (3, 4, 5)
    assert set(flex["behavior_wald_p"]) == {"sit", "stand", "sleep"}
    body = (out / "ism_table_overall.csv").read_text().splitlines()
    assert body[0] == "from,to,estimate,ci_low,ci_high"
    assert len(body) == 1 + 12
    for name in tables:
        assert_numeric_cells(out / f"ism_table_{name}.csv", label_columns=2)


def test_coda_outputs(tmp_path, cohort_csv):
    out = tmp_path / "out"
    assert run(["coda", cohort_csv, "-o", out, "--pivot", "step",
                "--delta-grid=-20:20:10", "--pairwise"]) == 0
    pivots = json.loads((out / "coda_pivots.json").read_text())
    assert [r["pivot"] for r in pivots] == ["sit", "stand", "step", "sleep"]
    for r in pivots:
        assert r["ci_low"] <= r["estimate"] <= r["ci_high"]
    curve = (out / "coda_curve_step.csv").read_text().splitlines()
    assert len(curve) == 1 + 5
    svg = (out / "coda_curve_step.svg").read_text()
    ET.fromstring(svg)  # well-formed XML
    pairwise = (out / "coda_pairwise.csv").read_text().splitlines()
    assert len(pairwise) == 1 + 3
    assert_numeric_cells(out / "coda_pivots.csv", label_columns=1)
    assert_numeric_cells(out / "coda_curve_step.csv")
    assert_numeric_cells(out / "coda_pairwise.csv", label_columns=2)
    assert curve[3] == "0.0,0.0,0.0,0.0"  # delta = 0


def test_coda_validates_arguments_before_writing(tmp_path, cohort_csv,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DAYCYCLE_OUT", raising=False)
    assert run(["coda", cohort_csv, "--delta-grid", "oops"]) == 1
    assert list(tmp_path.iterdir()) == []


def test_ism_requires_behaviors_summing_to_total(tmp_path, cohort_csv):
    cohort = load_cohort_csv(cohort_csv)
    cohort.total[0] += 5.0
    path = tmp_path / "off_total.csv"
    save_cohort_csv(cohort, path)
    assert run(["ism", path, "-o", tmp_path / "out"]) == 2
    assert not (tmp_path / "out").exists()


def test_ism_flexible_fits_a_constant_day_length(tmp_path):
    """With every day 1440 minutes long, the spline ISM leaves out the
    intercept as the partition model does, and fits."""
    from conftest import make_cohort
    from daycycle.ism import fit_flexible_ism
    path = tmp_path / "cohort.csv"
    save_cohort_csv(make_cohort(n=300, seed=2, constant_total=True), path)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="constant"):
        assert run(["ism", path, "-o", out, "--flexible",
                    "--covariates", "female", "bmi"]) == 0
    flex = json.loads((out / "ism_flexible.json").read_text())
    with pytest.warns(UserWarning, match="constant"):
        lib = fit_flexible_ism(load_cohort_csv(path), ["female", "bmi"],
                               dropped="step")
    assert "intercept" not in lib.fit.labels
    assert flex["selected_knots"] == lib.n_knots
    assert flex["behavior_wald_p"] == {b: t.p_value for b, t
                                       in lib.behavior_tests.items()}


def test_report_csv_quotes_cells_as_the_cohort_csv_does():
    """A report CSV quotes a cell holding a comma, a quote, a CR or an LF,
    as the cohort and day CSVs do, so that every cell reads back."""
    from daycycle.cohort import csv_lines
    cells = ["plain", "a,b", 'say "hi"', "lone\rcr", "lone\nlf", "cr\r\nlf"]
    text = "".join(csv_lines(["label", "value"], [[c, 1.5] for c in cells]
                             + [["missing", None]]))
    rows = list(csv.reader(text.splitlines(keepends=True)))
    assert rows == [["label", "value"], *([c, "1.5"] for c in cells),
                    ["missing", ""]]


@pytest.fixture(scope="module")
def lpa_out(tmp_path_factory, cohort_csv):
    out = tmp_path_factory.mktemp("lpa")
    rc = main(["lpa", str(cohort_csv), "-o", str(out), "--classes", "1:2",
               "--starts", "8", "--seed", "1"])
    assert rc == 0
    return out


def test_lpa_outputs(lpa_out):
    table = json.loads((lpa_out / "lpa_selection.json").read_text())
    assert [row["K"] for row in table] == [1, 2]
    for row in table:
        assert row["BIC"] == pytest.approx(
            -2 * row["loglik"]
            + np.log(250) * (row["K"] * 3 + row["K"] - 1 + row["K"] * 6),
            abs=1e-6)
    model = json.loads((lpa_out / "lpa_model.json").read_text())
    assert model["format_version"] == 1
    assert len(model["weights"]) == min(
        (row["K"] for row in table),
        key=lambda k: next(r["BIC"] for r in table if r["K"] == k))
    D = json.loads((lpa_out / "lpa_error_matrix.json").read_text())["D"]
    assert np.allclose(np.sum(D, axis=1), 1.0)
    prof = json.loads((lpa_out / "lpa_profiles.json").read_text())
    assert set(prof["derived_remainder"]) == {"mean", "sd", "corr"}
    assert_numeric_cells(lpa_out / "lpa_selection.csv")
    health = ("converged", "n_iter", "n_degenerate_starts")
    with open(lpa_out / "lpa_selection.csv", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    for row, csv_row in zip(table, csv_rows):
        # no BLRT ran: both of its columns are missing values
        assert row["blrt_p"] is None and row["blrt_n_boot_failed"] is None
        assert csv_row["blrt_p"] == csv_row["blrt_n_boot_failed"] == ""
        assert isinstance(row["converged"], bool)
        assert row["n_iter"] >= 1 and row["n_degenerate_starts"] >= 0
        assert [csv_row[f] for f in health] == [
            str(int(row[f])) for f in health]
    assert model["n_iter"] == next(
        row["n_iter"] for row in table if row["K"] == len(model["weights"]))


def test_lpa_blrt_reports_failed_replicates(tmp_path, cohort_csv):
    out = tmp_path / "out"
    assert run(["lpa", cohort_csv, "-o", out, "--classes", "1:2",
                "--starts", "4", "--seed", "1", "--blrt", "--blrt-boot", "19",
                "--blrt-starts", "2"]) == 0
    table = json.loads((out / "lpa_selection.json").read_text())
    with open(out / "lpa_selection.csv", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    assert table[0]["blrt_n_boot_failed"] is None
    assert csv_rows[0]["blrt_n_boot_failed"] == ""
    failed = table[1]["blrt_n_boot_failed"]
    assert isinstance(failed, int) and 0 <= failed <= 3
    assert 0 < table[1]["blrt_p"] <= 1
    assert csv_rows[1]["blrt_n_boot_failed"] == str(failed)
    assert_numeric_cells(out / "lpa_selection.csv")


def test_step3_outputs(tmp_path, cohort_csv, lpa_out):
    out = tmp_path / "out"
    assert run(["step3", lpa_out / "lpa_model.json", cohort_csv,
                "-o", out, "--method", "bch"]) == 0
    rep = json.loads((out / "step3_report.json").read_text())
    assert set(rep) == {"naive", "bch"}
    for method in rep:
        assert len(rep[method]["coef"]) == len(rep[method]["robust_se"])
        assert 0 <= rep[method]["overall_wald"]["p_value"] <= 1
    csv_lines = (out / "step3_report.csv").read_text().splitlines()
    assert csv_lines[0].startswith("contrast,")
    assert_numeric_cells(out / "step3_report.csv", label_columns=1)


def test_plot_kinds(tmp_path, cohort_csv, lpa_out):
    out = tmp_path / "plots"
    assert run(["plot", cohort_csv, "-o", out, "--kind", "ternary"]) == 0
    assert run(["plot", cohort_csv, "-o", out, "--kind", "realloc",
                "--pivot", "step", "--delta-grid=-20:20:10"]) == 0
    assert run(["plot", cohort_csv, "-o", out, "--kind", "profiles",
                "--model", lpa_out / "lpa_model.json"]) == 0
    for name in ("ternary.svg", "realloc_step.svg", "profiles.svg"):
        root = ET.fromstring((out / name).read_text())
        assert root.tag.endswith("svg")


def test_plot_realloc_drops_incomplete_cases(tmp_path, cohort_csv):
    cohort = load_cohort_csv(cohort_csv)
    cohort.covariates["bmi"][3] = math.nan
    path = tmp_path / "missing_bmi.csv"
    save_cohort_csv(cohort, path)
    out = tmp_path / "plots"
    assert run(["plot", path, "-o", out, "--kind", "realloc"]) == 0
    ET.fromstring((out / "realloc_step.svg").read_text())


def test_plot_deterministic(tmp_path, cohort_csv):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["plot", cohort_csv, "-o", out, "--kind", "ternary"]) == 0
    assert (a / "ternary.svg").read_bytes() == (b / "ternary.svg").read_bytes()


def test_exit_codes(tmp_path, cohort_csv):
    assert run(["describe", tmp_path / "missing.csv"]) == 2
    assert run(["coda", cohort_csv, "--delta-grid", "oops"]) == 1
    assert run(["lpa", cohort_csv, "--classes", "nope"]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,cohort\n1,2,3\n")
    assert run(["describe", bad]) == 2
    assert main(["describe"]) == 1  # missing positional
    assert run(["lpa", cohort_csv, "--classes", "3:2"]) == 1


def test_unknown_covariate_exits_2_before_writing(tmp_path, cohort_csv,
                                                  lpa_out, capsys):
    out = tmp_path / "out"
    for args in (["ism", cohort_csv], ["coda", cohort_csv],
                 ["step3", lpa_out / "lpa_model.json", cohort_csv]):
        assert run(args + ["-o", out, "--covariates", "bmi", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err and "bmi" in err and "Traceback" not in err
    assert not out.exists()


def _edited_cohort(src, tmp_path, line, edit):
    lines = src.read_text().splitlines(keepends=True)
    lines[line - 1] = edit(lines[line - 1])
    path = tmp_path / "edited.csv"
    path.write_text("".join(lines))
    return path


def _set_field(line, j, value):
    fields = line.split(",")
    fields[j] = value
    return ",".join(fields)


@pytest.mark.parametrize("edit", [
    lambda s: s.rsplit(",", 3)[0] + "\n",
    lambda s: _set_field(s, 2, "n/a"),
    lambda s: _set_field(s, 6, "7.5"),
    lambda s: s.rstrip("\n") + ",1\n",
], ids=["truncated", "non-numeric", "fractional-days", "extra-field"])
def test_malformed_cohort_row_exits_2_naming_its_line(tmp_path, cohort_csv,
                                                      capsys, edit):
    path = _edited_cohort(cohort_csv, tmp_path, 7, edit)
    out = tmp_path / "out"
    for cmd in ("describe", "lpa", "ism"):
        assert run([cmd, path, "-o", out]) == 2
        err = capsys.readouterr().err
        assert "line 7" in err and "Traceback" not in err
    assert not out.exists()


def test_blank_outcome_drops_the_row_as_incomplete(tmp_path, cohort_csv):
    """``ism`` on a cohort whose row 6 has a blank ``casi_irt`` writes the
    tables of the cohort without that row."""
    from daycycle.cohort import CSV_HEADER
    blank = _edited_cohort(cohort_csv, tmp_path, 7, lambda s: _set_field(
        s.rstrip("\n"), CSV_HEADER.index("casi_irt"), "") + "\n")
    lines = cohort_csv.read_text().splitlines(keepends=True)
    dropped = tmp_path / "dropped.csv"
    dropped.write_text("".join(lines[:6] + lines[7:]))
    tables = []
    for path, out in ((blank, tmp_path / "a"), (dropped, tmp_path / "b")):
        assert run(["ism", path, "-o", out]) == 0
        tables.append((out / "ism_table.json").read_bytes())
    assert tables[0] == tables[1]


def test_header_only_cohort_exits_2(tmp_path, cohort_csv, capsys):
    path = tmp_path / "header.csv"
    path.write_text(cohort_csv.read_text().splitlines(keepends=True)[0])
    out = tmp_path / "out"
    for cmd in ("describe", "lpa", "ism"):
        assert run([cmd, path, "-o", out]) == 2
        assert capsys.readouterr().err == "data error: empty cohort file\n"
    assert not out.exists()


def test_failed_output_rename_leaves_no_temporary_file(tmp_path, cohort_csv,
                                                       capsys, monkeypatch):
    def no_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", no_replace)
    out = tmp_path / "out"
    assert run(["describe", cohort_csv, "-o", out]) == 2
    assert capsys.readouterr().err == (
        "data error: [Errno 28] No space left on device\n")
    assert list(out.iterdir()) == []


def test_simulate_creates_its_output_directory(tmp_path, cohort_csv):
    target = tmp_path / "new" / "dir" / "cohort.csv"
    assert run(["simulate", "--n", "250", "--seed", "42", "-o", target]) == 0
    assert target.read_bytes() == cohort_csv.read_bytes()
    assert [p.name for p in target.parent.iterdir()] == ["cohort.csv"]


def test_env_var_output_dir(tmp_path, cohort_csv, monkeypatch):
    monkeypatch.setenv("DAYCYCLE_OUT", str(tmp_path / "envout"))
    assert run(["describe", cohort_csv, "--format", "json"]) == 0
    assert (tmp_path / "envout" / "describe.json").exists()


@pytest.mark.parametrize("column", ["stand_min", "total_min"])
def test_blank_behavior_cell_exits_2_before_writing(tmp_path, cohort_csv,
                                                    lpa_out, capsys, column):
    from daycycle.cohort import CSV_HEADER
    path = _edited_cohort(cohort_csv, tmp_path, 9,
                          lambda s: _set_field(s, CSV_HEADER.index(column), ""))
    out = tmp_path / "out"
    model = lpa_out / "lpa_model.json"
    for args in (["describe", path], ["lpa", path, "--classes", "1:2"],
                 ["ism", path], ["coda", path], ["step3", model, path],
                 ["plot", path, "--kind", "ternary"],
                 ["plot", path, "--kind", "realloc"],
                 ["plot", path, "--kind", "profiles", "--model", model]):
        assert run(args + ["-o", out]) == 2, args
        err = capsys.readouterr().err
        assert f"line 9: {column} is empty" in err
        assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("column,cell,problem", [
    ("sit_min", "-12.5", "sit_min is negative"),
    ("total_min", "-1440.0", "total_min is negative"),
    ("bmi", "inf", "bmi is infinite"),
    ("casi_irt", "-inf", "casi_irt is infinite"),
    ("valid_days", "-3", "valid_days is negative"),
    ("valid_days", "12345678901234567890123",
     "valid_days does not fit in int64"),
], ids=["negative-minutes", "negative-total", "infinite-covariate",
        "infinite-outcome", "negative-valid-days", "valid-days-past-int64"])
def test_unusable_cohort_value_exits_2_before_writing(tmp_path, cohort_csv,
                                                      lpa_out, capsys,
                                                      column, cell, problem):
    from daycycle.cohort import CSV_HEADER
    path = _edited_cohort(
        cohort_csv, tmp_path, 11,
        lambda s: _set_field(s.rstrip("\n"), CSV_HEADER.index(column),
                             cell) + "\n")
    out = tmp_path / "out"
    model = lpa_out / "lpa_model.json"
    for args in (["describe", path], ["lpa", path, "--classes", "1:2"],
                 ["ism", path], ["coda", path], ["step3", model, path],
                 ["plot", path, "--kind", "ternary"]):
        assert run(args + ["-o", out]) == 2, args
        err = capsys.readouterr().err
        assert err == f"data error: {path} line 11: {problem}\n", args
    assert not out.exists()


def test_row_whose_minutes_overflow_exits_2_before_writing(
        tmp_path, cohort_csv, lpa_out, capsys):
    # each cell is finite, but their sum is not
    path = _edited_cohort(
        cohort_csv, tmp_path, 6,
        lambda s: ",".join([s.split(",")[0]] + ["1e308"] * 4
                           + s.split(",")[5:]))
    out = tmp_path / "out"
    model = lpa_out / "lpa_model.json"
    for args in (["describe", path], ["lpa", path, "--classes", "1:2"],
                 ["ism", path], ["coda", path], ["step3", model, path],
                 ["plot", path, "--kind", "ternary"]):
        assert run(args + ["-o", out]) == 2, args
        err = capsys.readouterr().err
        assert err == (f"data error: {path} line 6: behavior minutes sum "
                       "past the largest float\n"), args
    assert not out.exists()


def test_non_finite_json_number_exits_3_before_writing(tmp_path, cohort_csv,
                                                       capsys):
    # one finite sit cell whose square, in the standard deviation, is not;
    # two finite bmi cells whose sum, in the mean, is not
    for cells in ([(6, 1)], [(5, 12), (6, 12)]):
        path = cohort_csv
        for line, j in cells:
            path = _edited_cohort(path, tmp_path, line,
                                  lambda s, j=j: _set_field(s, j, "1e308"))
        out = tmp_path / "out"
        assert run(["describe", path, "-o", out, "--format", "both"]) == 3
        err = capsys.readouterr().err
        assert err == (f"numerical failure: {out / 'describe.json'} would "
                       "hold a number that is not finite\n")
        assert not out.exists()


def test_cell_over_the_csv_size_limit_exits_2(tmp_path, cohort_csv, capsys):
    def oversized(line):
        fields = line.split(",")
        fields[0] = f'"{fields[0]}"'  # a quote sends the text to csv
        fields[1] = "1" * 200_000
        return ",".join(fields)

    path = _edited_cohort(cohort_csv, tmp_path, 5, oversized)
    out = tmp_path / "out"
    for cmd in ("describe", "lpa", "ism"):
        assert run([cmd, path, "-o", out]) == 2
        err = capsys.readouterr().err
        assert err == (f"data error: {path} line 5: field larger than field "
                       "limit (131072)\n")
    assert not out.exists()


def test_unusable_model_artifact_exits_2(tmp_path, cohort_csv,
                                                lpa_out, capsys):
    data = json.loads((lpa_out / "lpa_model.json").read_text())
    del data["covs"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    stub = tmp_path / "stub.json"
    stub.write_text('{"format_version": 1}')
    two_d = tmp_path / "two_d.json"
    data = json.loads((lpa_out / "lpa_model.json").read_text())
    data["means"] = [m[:2] for m in data["means"]]
    data["covs"] = [[row[:2] for row in c[:2]] for c in data["covs"]]
    data["labels"] = data["labels"][:2]
    two_d.write_text(json.dumps(data))
    out = tmp_path / "out"
    for path in (model, stub, two_d):
        for args in (["step3", path, cohort_csv],
                     ["plot", cohort_csv, "--kind", "profiles",
                      "--model", path]):
            assert run(args + ["-o", out]) == 2
            err = capsys.readouterr().err
            assert "model" in err and "Traceback" not in err
    assert not out.exists()


def test_step3_on_a_one_class_model_exits_2(tmp_path, cohort_csv, capsys):
    """One class has no contrast to report: exit 2 and nothing written, not
    NaN p-values and an empty table."""
    model_dir = tmp_path / "k1"
    assert run(["lpa", cohort_csv, "-o", model_dir, "--classes", "1:1",
                "--starts", "2"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["step3", model_dir / "lpa_model.json", cohort_csv,
                "-o", out]) == 2
    assert "at least 2 latent classes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["naive", "bch"])
def test_step3_needs_more_persons_than_coefficients(tmp_path, cohort_csv,
                                                    lpa_out, capsys, method):
    """The K=2 model and the 8 default covariates make p = 10 coefficients:
    the first 9 or 10 persons (all complete) exit 2 with nothing written,
    the first 11 fit."""
    model = lpa_out / "lpa_model.json"
    assert len(json.loads(model.read_text())["weights"]) == 2
    lines = cohort_csv.read_text().splitlines(keepends=True)
    for n in (9, 10, 11):
        path = tmp_path / f"first_{n}.csv"
        path.write_text("".join(lines[:n + 1]))
        out = tmp_path / f"out_{n}"
        rc = run(["step3", model, path, "-o", out, "--method", method])
        err = capsys.readouterr().err
        if n <= 10:
            assert (rc, err) == (
                2, f"data error: need N > p; got N={n}, p=10\n")
            assert not out.exists()
        else:
            assert (rc, err) == (0, "")


def test_zero_length_day_exits_2_with_one_line(tmp_path, cohort_csv, lpa_out,
                                               capsys):
    """A row whose minutes and day length are all 0 loads, but its LPA
    indicators are not finite: lpa, step3 and the profiles plot say so in
    one line, without numpy's warning first."""
    from daycycle.cohort import CSV_HEADER

    def zero_day(line):
        for b in ("sit", "stand", "step", "sleep", "total"):
            line = _set_field(line, CSV_HEADER.index(f"{b}_min"), "0")
        return line

    path = _edited_cohort(cohort_csv, tmp_path, 8, zero_day)
    model = lpa_out / "lpa_model.json"
    out = tmp_path / "out"
    for args in (["lpa", path, "--classes", "1:2"], ["step3", model, path],
                 ["plot", path, "--kind", "profiles", "--model", model]):
        assert run(args + ["-o", out]) == 2, args
        assert capsys.readouterr().err == (
            "data error: 1 of 250 data rows hold a non-finite value\n"), args
    assert not out.exists()


@pytest.mark.parametrize("command", ["lpa", "step3", "profiles"])
def test_day_total_off_the_behaviors_exits_2_with_one_line(
        tmp_path, cohort_csv, lpa_out, capsys, command):
    """LPA indicators are proportions of the day, so lpa, step3 and the
    profiles plot refuse, as ism does, a person whose behavior minutes do
    not sum to their total_min."""
    from daycycle.cohort import CSV_HEADER
    j = CSV_HEADER.index("total_min")
    line = cohort_csv.read_text().splitlines()[1].split(",")
    gap = abs(100.0 - sum(map(float, line[1:j])))
    path = _edited_cohort(cohort_csv, tmp_path, 2,
                          lambda s: _set_field(s, j, "100"))
    model = lpa_out / "lpa_model.json"
    out = tmp_path / "out"
    args = {"lpa": ["lpa", path, "--classes", "2:2", "--starts", "4"],
            "step3": ["step3", model, path],
            "profiles": ["plot", path, "--kind", "profiles", "--model", model]}
    assert run(args[command] + ["-o", out]) == 2
    assert capsys.readouterr().err == (
        "data error: behavior minutes must sum to the total day length, "
        f"off by up to {gap:.3g} min\n")
    assert not out.exists()


def test_ternary_svg_matches_per_row_compositions(tmp_path, cohort_csv):
    """The plot built from the composition array is byte-identical to one
    built from per-row zero replacement and closure, in either label
    order."""
    from daycycle import plotting
    from conftest import closed_subcompositions
    cohort = load_cohort_csv(cohort_csv)
    cohort.behaviors[[2, 5], 2] = 0.0  # zero step time: floored
    path = tmp_path / "zeros.csv"
    save_cohort_csv(cohort, path)
    cohort = load_cohort_csv(path)
    for labels in [("sit", "stand", "step"), ("step", "sleep", "sit")]:
        want = plotting.ternary_svg(
            closed_subcompositions(cohort.behaviors, labels), labels,
            cohort.outcome, "-".join(labels))
        out = tmp_path / "-".join(labels)
        assert run(["plot", path, "-o", out, "--kind", "ternary",
                    "--behaviors", *labels]) == 0
        assert (out / "ternary.svg").read_text(encoding="utf-8") == want


def test_ternary_plot_with_a_missing_outcome(tmp_path, cohort_csv, capsys):
    """A blank outcome is drawn in the no-value fill; the colour range comes
    from the finite outcomes, so the plot equals one where that person has
    the lowest of the other outcomes."""
    from daycycle import plotting
    cohort = load_cohort_csv(cohort_csv)
    cohort.outcome[7] = math.nan
    path = tmp_path / "missing.csv"
    save_cohort_csv(cohort, path)
    out = tmp_path / "plots"
    assert run(["plot", path, "-o", out, "--kind", "ternary"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    svg = (out / "ternary.svg").read_text(encoding="utf-8")
    circles = ET.fromstring(svg).findall("{http://www.w3.org/2000/svg}circle")
    assert len(circles) == cohort.n
    assert circles[7].get("fill") == "#4477aa"
    labels = ("sit", "stand", "step")
    lowest = cohort.outcome.copy()
    lowest[7] = np.nanmin(lowest)
    assert svg == plotting.ternary_svg(cohort.compositions(labels), labels,
                                       lowest, "-".join(labels))
    # the ends of the range are the lowest and highest known outcomes
    assert circles[int(np.nanargmin(cohort.outcome))].get("fill") == "#4477aa"
    assert circles[int(np.nanargmax(cohort.outcome))].get("fill") == "#ee7733"
    assert len(set(c.get("fill") for c in circles)) > 2


@pytest.mark.parametrize("args", [
    ["ism", "{csv}", "--flexible", "--dropped", "nope"],
    ["lpa", "{csv}", "--starts", "0"],
    ["lpa", "{csv}", "--max-iter", "0"],
    ["lpa", "{csv}", "--classes", "1:2", "--blrt", "--blrt-boot", "5"],
    ["lpa", "{csv}", "--classes", "1:2", "--blrt", "--blrt-starts", "0"],
    ["plot", "{csv}", "--kind", "profiles"],
    ["ism", "{csv}", "--minutes", "nan"],
    ["ism", "{csv}", "--subgroup-step-cut", "nan"],
    ["ism", "{csv}", "--subgroup-step-cut", "inf"],
    ["coda", "{csv}", "--pairwise", "--pairwise-minutes", "nan"],
    ["coda", "{csv}", "--delta-grid", "nan:30:5"],
    ["plot", "{csv}", "--kind", "ternary", "--behaviors", "sit", "sit",
     "stand"],
    ["plot", "{csv}", "--kind", "realloc", "--delta-grid", "nan:30:5"],
    ["coda", "{csv}", "--delta-grid", "0:1e9:1e-9"],
    ["plot", "{csv}", "--kind", "realloc", "--delta-grid", "0:1e9:1e-9"],
    ["ism", "{csv}", "--minutes", "1e308"],
    ["describe", "{csv}", "--seed", "1"],
    ["ism", "{csv}", "--seed", "1"],
    ["coda", "{csv}", "--seed", "1"],
    ["step3", "{csv}", "{csv}", "--seed", "1"],
    ["plot", "{csv}", "--kind", "ternary", "--seed", "1"],
    ["lpa", "{csv}", "--classes", "1:2", "--seed", "-1"],
    ["simulate", "--n", "20", "--seed", "-1"],
], ids=["ism-dropped", "lpa-starts", "lpa-max-iter", "lpa-blrt-boot",
        "lpa-blrt-starts", "plot-profiles-no-model", "ism-minutes-nan",
        "ism-cut-nan", "ism-cut-inf", "coda-pairwise-minutes-nan",
        "coda-delta-grid-nan", "plot-ternary-repeated-label",
        "plot-delta-grid-nan", "coda-delta-grid-too-fine",
        "plot-delta-grid-too-fine", "ism-minutes-over-a-day",
        "describe-seed", "ism-seed", "coda-seed", "step3-seed", "plot-seed",
        "lpa-seed-negative", "simulate-seed-negative"])
def test_bad_arguments_exit_1_before_reading_or_writing(tmp_path, cohort_csv,
                                                        capsys, args):
    out = tmp_path / "out"
    out.mkdir()
    for csv_path in (cohort_csv, tmp_path / "missing.csv"):
        argv = [str(csv_path) if a == "{csv}" else a for a in args]
        assert run(argv + ["-o", out]) == 1
        assert "usage error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_failed_run_writes_nothing(tmp_path, capsys):
    # the flexible fit fails after the linear tables are computed
    path = tmp_path / "small.csv"
    assert run(["simulate", "--n", "20", "--seed", "3", "-o", path]) == 0
    out = tmp_path / "out"
    assert run(["ism", path, "--flexible", "-o", out]) == 2
    assert "need N > p" in capsys.readouterr().err
    assert not out.exists()


def test_collinear_covariates_exit_3_before_writing(tmp_path, cohort_csv,
                                                    capsys):
    out = tmp_path / "out"
    assert run(["ism", cohort_csv, "-o", out, "--covariates", "bmi",
                "bmi"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "rank deficient" in err
    assert not out.exists()


def test_dead_em_worker_exits_3_before_writing(tmp_path, cohort_csv, capsys,
                                              em_worker_dying_at_seed_3):
    import multiprocessing
    out = tmp_path / "out"
    assert run(["lpa", cohort_csv, "-o", out, "--classes", "2:2",
                "--starts", "4"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "exit code 9" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_no_complete_cases_exits_2_before_writing(tmp_path, cohort_csv,
                                                  lpa_out, capsys):
    from daycycle.cohort import CSV_HEADER
    lines = cohort_csv.read_text().splitlines(keepends=True)
    path = tmp_path / "no_bmi.csv"
    path.write_text(lines[0] + "".join(
        _set_field(line, CSV_HEADER.index("bmi"), "") for line in lines[1:]))
    out = tmp_path / "out"
    for args in (["ism", path], ["coda", path],
                 ["step3", lpa_out / "lpa_model.json", path],
                 ["plot", path, "--kind", "realloc"]):
        assert run(args + ["-o", out]) == 2, args
        assert capsys.readouterr().err == (
            "data error: no complete cases remain\n")
    assert not out.exists()


@pytest.mark.parametrize("cut", ["-5", "1e9"])
def test_ism_cut_that_leaves_a_subgroup_empty_exits_1(tmp_path, cohort_csv,
                                                      capsys, cut):
    out = tmp_path / "out"
    assert run(["ism", cohort_csv, "-o", out, "--subgroup-step-cut",
                cut]) == 1
    assert "leaves a subgroup empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,problem", [
    ("{not json", "not JSON"),
    ("[1, 2]", "JSON object"),
    ('{"class_weights": [1.0], "class_means": [[0.3, 0.2, 0.1]], '
     '"class_covs": [[[0.01, 0, 0], [0, 0.01, 0], [0, 0, 0.01]]], '
     '"colour": "red"}', "colour"),
    ('{"class_weights": [1.0]}', "class_means"),
], ids=["not-json", "not-object", "unknown-key", "missing-key"])
def test_simulate_bad_spec_exits_2(tmp_path, capsys, text, problem):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    target = tmp_path / "out" / "cohort.csv"
    assert run(["simulate", "--spec", spec, "-o", target]) == 2
    err = capsys.readouterr().err
    assert problem in err and "Traceback" not in err
    assert not target.parent.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_simulate_needs_a_positive_n(tmp_path, capsys, n):
    target = tmp_path / "out" / "cohort.csv"
    assert run(["simulate", "--n", n, "-o", target]) == 1
    assert "--n" in capsys.readouterr().err
    assert not target.parent.exists()


def test_simulate_negative_seed_exits_1_before_writing(tmp_path, capsys):
    target = tmp_path / "out" / "cohort.csv"
    assert run(["simulate", "--n", "20", "--seed", "-1", "-o", target]) == 1
    _assert_one_line_error(capsys, "usage")
    assert not target.parent.exists()


def _assert_one_line_error(capsys, kind):
    err = capsys.readouterr().err
    assert err.startswith(f"{kind} error: ") and err.count("\n") == 1, err


NOT_UTF8 = b"\xff\xfe not utf-8 \x80\n"


@pytest.mark.parametrize("args", [
    ["describe", "{bad}"],
    ["ism", "{bad}"],
    ["lpa", "{bad}", "--classes", "1:2"],
    ["step3", "{model}", "{bad}"],
    ["plot", "{bad}", "--kind", "ternary"],
    ["step3", "{bad}", "{csv}"],
    ["plot", "{csv}", "--kind", "profiles", "--model", "{bad}"],
], ids=["describe", "ism", "lpa", "step3-cohort", "plot", "step3-model",
        "plot-model"])
def test_input_that_is_not_utf8_exits_2(tmp_path, cohort_csv, lpa_out,
                                        capsys, args):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(NOT_UTF8)
    paths = {"{bad}": bad, "{csv}": cohort_csv,
             "{model}": lpa_out / "lpa_model.json"}
    out = tmp_path / "out"
    assert run([paths.get(a, a) for a in args] + ["-o", out]) == 2
    _assert_one_line_error(capsys, "data")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["describe", "{dir}", "-o", "{out}"],
    ["coda", "{dir}", "-o", "{out}"],
    ["lpa", "{dir}", "--classes", "1:2", "-o", "{out}"],
    ["step3", "{dir}", "{csv}", "-o", "{out}"],
    ["simulate", "--spec", "{dir}", "-o", "{out}/cohort.csv"],
], ids=["describe", "coda", "lpa", "step3-model", "simulate-spec"])
def test_directory_given_as_input_exits_2(tmp_path, cohort_csv, capsys,
                                          args):
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "out"
    paths = {"{dir}": str(folder), "{csv}": str(cohort_csv)}
    argv = [paths.get(a, a).replace("{out}", str(out)) for a in args]
    assert run(argv) == 2
    _assert_one_line_error(capsys, "data")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["describe", "{bad}"],
    ["lpa", "{bad}", "--classes", "1:2"],
    ["step3", "{bad}", "{csv}"],
    ["simulate", "--spec", "{bad}", "-o", "{out}/cohort.csv"],
], ids=["describe", "lpa", "step3-model", "simulate-spec"])
@pytest.mark.parametrize("bad", ["cohort.csv/x.csv", "a" * 300 + ".csv"],
                         ids=["under-a-file", "name-too-long"])
def test_input_path_that_cannot_be_opened_exits_2(tmp_path, cohort_csv,
                                                  capsys, args, bad):
    out = tmp_path / "out"
    paths = {"{bad}": str(cohort_csv.parent / bad), "{csv}": str(cohort_csv)}
    argv = [paths.get(a, a).replace("{out}", str(out)) for a in args]
    assert run(argv + (["-o", out] if args[0] != "simulate" else [])) == 2
    _assert_one_line_error(capsys, "data")
    assert not out.exists()


def test_class_range_too_long_to_list_exits_2(tmp_path, cohort_csv, capsys):
    out = tmp_path / "out"
    assert run(["lpa", cohort_csv, "-o", out, "--classes", "2:1000000000000",
                "--starts", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: need N > ") and "Traceback" not in err
    assert not out.exists()


def test_out_of_memory_exits_3_before_writing(tmp_path, cohort_csv, capsys,
                                              monkeypatch):
    from daycycle import lpa

    def plan_starts(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(lpa, "_plan_starts", plan_starts)
    out = tmp_path / "out"
    assert run(["lpa", cohort_csv, "-o", out, "--classes", "2:2"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: Unable to allocate 7.28 TiB for an array\n")
    assert not out.exists()


def test_every_package_error_has_an_exit_code():
    """Each exception class that a ``daycycle`` module defines is caught by
    ``main`` as a data error or a numerical failure, or is ``UsageError``."""
    import importlib
    import inspect
    import pkgutil

    from daycycle.cli import DATA_ERRORS, NUMERIC_ERRORS, UsageError

    errors = []
    for info in pkgutil.iter_modules(daycycle.__path__):
        module = importlib.import_module(f"daycycle.{info.name}")
        errors += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                   if issubclass(cls, BaseException)
                   and cls.__module__ == module.__name__]
    assert len(errors) >= 12
    unmapped = [f"{cls.__module__}.{cls.__name__}" for cls in errors
                if cls is not UsageError
                and not issubclass(cls, DATA_ERRORS + NUMERIC_ERRORS)]
    assert unmapped == []


@pytest.mark.parametrize("args", [
    ["describe", "{csv}"],
    ["ism", "{csv}"],
    ["coda", "{csv}"],
    ["lpa", "{csv}", "--classes", "1:2"],
    ["step3", "{model}", "{csv}"],
    ["plot", "{csv}", "--kind", "ternary"],
], ids=["describe", "ism", "coda", "lpa", "step3", "plot"])
def test_output_directory_that_is_a_file_exits_1_before_reading(
        tmp_path, cohort_csv, lpa_out, capsys, args):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    paths = {"{csv}": cohort_csv, "{model}": lpa_out / "lpa_model.json"}
    for out in (taken, taken / "below"):
        for present in (True, False):
            # with a missing input the usage error still comes first
            argv = [paths[a] if present and a in paths
                    else tmp_path / "missing" if a in paths else a
                    for a in args]
            assert run(argv + ["-o", out]) == 1
            _assert_one_line_error(capsys, "usage")
    assert taken.read_text() == "a file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_simulate_output_that_is_a_directory_exits_1(tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    for target in (folder, taken / "cohort.csv"):
        assert run(["simulate", "--n", "20", "-o", target]) == 1
        _assert_one_line_error(capsys, "usage")
    assert list(folder.iterdir()) == []
    assert taken.read_text() == "a file\n"


def _spec_with(**fields):
    from daycycle.simulate import default_sim_spec
    spec = json.loads(default_sim_spec().to_json())
    spec.update(fields)
    return json.dumps(spec)


@pytest.mark.parametrize("text,problem", [
    (_spec_with(class_weights="abc"), "class_weights"),
    (_spec_with(class_means=[[0.3, 0.2]] * 4), "class_means"),
    (_spec_with(class_covs=[[[0.01, 0.0], [0.0, 0.01]]] * 4), "class_covs"),
    (_spec_with(class_covs=[[[0.01, 0, 0]] * 3] * 3), "class_covs"),
    (_spec_with(class_effects=[0.0, 0.1]), "class_effects"),
    (_spec_with(covariate_effects={"nope": 1.0}), "nope"),
    (_spec_with(class_means=[[0.3, 0.2, 0.05]] * 3 + [[0.3, 0.2]]),
     "class_means"),
    (_spec_with(bmi_mean="27"), "bmi_mean must be a number"),
    (_spec_with(covariate_effects=[["bmi", 0.1]]),
     "covariate_effects must be an object"),
    (_spec_with(covariate_effects={"bmi": "0.1"}),
     "covariate_effects['bmi'] must be a number"),
    # every class's mean outside the simplex: no draw is accepted
    (_spec_with(class_means=[[0.6, 0.6, 0.6]] * 4), "spec infeasible"),
], ids=["weights-text", "means-rows-of-2", "covs-2x2", "covs-for-3-classes",
        "effects-length", "unknown-covariate-effect", "means-ragged",
        "scalar-text", "covariate-effects-list", "covariate-effect-text",
        "infeasible"])
def test_simulate_spec_with_ill_shaped_values_exits_2(tmp_path, capsys, text,
                                                      problem):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    target = tmp_path / "out" / "cohort.csv"
    assert run(["simulate", "--spec", spec, "--n", "20", "-o", target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and problem in err
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_simulate_spec_that_is_not_utf8_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(NOT_UTF8)
    target = tmp_path / "out" / "cohort.csv"
    assert run(["simulate", "--spec", spec, "-o", target]) == 2
    _assert_one_line_error(capsys, "data")
    assert not target.parent.exists()


def test_simulate_accepts_the_default_spec_as_json(tmp_path):
    from daycycle.simulate import default_sim_spec
    spec = tmp_path / "spec.json"
    spec.write_text(default_sim_spec().to_json())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    # the JSON sorts the covariate effects; the outcome sums them in column
    # order all the same
    for seed in ("0", "3"):
        assert run(["simulate", "--spec", spec, "--n", "500", "--seed", seed,
                    "-o", a]) == 0
        assert run(["simulate", "--n", "500", "--seed", seed, "-o", b]) == 0
        assert a.read_bytes() == b.read_bytes()


# --- which scipy modules a CLI process loads ---

_SCIPY_PROBE = """
import json, sys

import numpy as np

from daycycle.cli import main


def run(*args):
    assert main([str(a) for a in args]) == 0, args


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


out = sys.argv[1]
cohort = out + "/cohort.csv"
run("simulate", "--n", "200", "--seed", "3", "-o", cohort)
run("describe", cohort, "-o", out)
run("lpa", cohort, "-o", out, "--classes", "2:2", "--starts", "2",
    "--max-iter", "30", "--blrt", "--blrt-boot", "19", "--blrt-starts", "1")
for kind in ("ternary", "realloc", "profiles"):
    run("plot", cohort, "-o", out, "--kind", kind,
        "--model", out + "/lpa_model.json")
no_p_values = scipy_modules()
run("ism", cohort, "-o", out)
run("coda", cohort, "-o", out)
run("step3", out + "/lpa_model.json", cohort, "-o", out, "--method", "bch")
p_values = scipy_modules()

from daycycle.step3 import step3_covariate

rng = np.random.default_rng(0)
x = rng.normal(size=(300, 1))
classes = rng.binomial(1, 1.0 / (1.0 + np.exp(0.5 - 0.8 * x[:, 0])))
fit = step3_covariate(classes, np.eye(2), x)
print(json.dumps({"no_p_values": no_p_values, "p_values": p_values,
                  "covariate_p": fit.wald.p_value,
                  "after_covariate": scipy_modules()}))
"""


def _python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(daycycle.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))


def test_cli_loads_scipy_only_for_p_values(tmp_path):
    """``simulate``, ``describe``, ``lpa`` and ``plot`` load no scipy module;
    the subcommands that report p-values, and ``step3_covariate``, load
    ``scipy.special`` and nothing of ``scipy.stats`` or ``scipy.optimize``."""
    proc = _python("-c", _SCIPY_PROBE, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["no_p_values"] == []
    assert "scipy.special" in loaded["p_values"]
    assert not [m for m in loaded["p_values"]
                if m.startswith(("scipy.stats", "scipy.optimize"))]
    assert 0.0 <= loaded["covariate_p"] <= 1.0
    assert "scipy.optimize" not in loaded["after_covariate"]


def test_python_dash_m_daycycle_runs_the_cli():
    proc = _python("-m", "daycycle", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: daycycle")


def test_cli_import_loads_no_multiprocessing():
    """The EM worker pool's modules load only when a call runs its blocks
    in parallel, so the CLI's start-up does not pay for them."""
    proc = _python("-c", "import daycycle.cli, sys; "
                   "print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
