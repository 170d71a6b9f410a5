"""Random argument lists for every subcommand: ``main`` always ends in an
exit code, a failed run writes nothing, and a run that succeeds writes
strict JSON."""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daycycle.cli import main

# bad values that every numeric flag is offered; each count stays small, so
# an example that runs takes milliseconds
BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "1e308", ""]
BAD_LABELS = ["nope", ""]
LABELS = ["sit", "stand", "step", "sleep"]
COVARIATES = ["age", "female", "bmi"]
GRIDS = ["-30:30:5", "0:10:5"]
BAD_GRIDS = ["nan:30:5", "0:1e308:1", "5:0:1", "0:1:inf", "1:2", ""]
SEEDS = ["0", "1", "99999999999999999999"]
BAD_SEEDS = ["-1", "-7", "nan", ""]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """An N=200 cohort, its LPA model and a path under a regular file."""
    root = tmp_path_factory.mktemp("fuzz")
    cohort = str(root / "cohort.csv")
    assert main(["simulate", "--n", "200", "--seed", "5", "-o", cohort]) == 0
    assert main(["lpa", cohort, "-o", str(root), "--classes", "2:2",
                 "--starts", "3", "--max-iter", "30"]) == 0
    return {"root": root, "cohort": cohort,
            "model": str(root / "lpa_model.json"),
            "under_file": os.path.join(cohort, "x.csv"),
            "missing": str(root / "missing.csv")}


def _pick(good, bad):
    """A value from ``good`` four times in five, else one from ``bad``."""
    return st.sampled_from([False] * 4 + [True]).flatmap(
        lambda is_bad: st.sampled_from(bad if is_bad else good))


def _value(flag, good, bad, given=False):
    """``[flag=value]``, or (unless ``given``) nothing."""
    good = list(good) if given else [None, *good]
    return _pick(good, bad).map(
        lambda v: [] if v is None else [f"{flag}={v}"])


def _values(flag, good, bad):
    """``[flag, v1, ...]`` with up to three values, or nothing."""
    return st.one_of(st.just([]), st.lists(_pick(good, bad), max_size=3)
                     .map(lambda vs: [flag, *vs]))


def _switch(flag):
    return st.sampled_from([[], [flag]])


def _argv(command, *parts):
    """The command, then its parts (lists of arguments)."""
    return st.tuples(*parts).map(
        lambda ps: [command] + [a for p in ps for a in p])


def _commands(paths):
    bad_paths = [paths["under_file"], paths["missing"], ""]
    cohort = _pick([paths["cohort"]], bad_paths).map(lambda p: [p])
    model = _pick([paths["model"]], [paths["cohort"], *bad_paths])
    return st.one_of(
        _argv("describe", cohort,
              _value("--format", ["json", "csv", "both"], ["nope"])),
        _argv("ism", cohort, _value("--minutes", ["30", "0"], BAD_NUMBERS),
              _value("--subgroup-step-cut", ["60"], BAD_NUMBERS),
              _switch("--flexible"), _value("--dropped", LABELS, BAD_LABELS),
              _values("--covariates", COVARIATES, BAD_LABELS)),
        _argv("coda", cohort, _value("--pivot", LABELS, BAD_LABELS),
              _value("--delta-grid", GRIDS, BAD_GRIDS), _switch("--pairwise"),
              _value("--pairwise-minutes", ["30"], BAD_NUMBERS),
              _values("--covariates", COVARIATES, BAD_LABELS)),
        # --classes, --starts and --max-iter are always given: their
        # defaults are the paper's 2:6 with 160 starts of 250 iterations
        _argv("lpa", cohort, _value("--seed", SEEDS, BAD_SEEDS),
              _value("--classes", ["1:2", "2:3", "2:2"],
                     ["3:2", "0:1", "1", "nan:2", "2:1000000000000", ""],
                     given=True),
              _value("--starts", ["1", "3"], BAD_NUMBERS, given=True),
              _value("--max-iter", ["5", "30"], BAD_NUMBERS, given=True),
              _value("--covariance", ["equal-var-zero-cov",
                                      "free-var-free-cov"], BAD_LABELS),
              _pick([[], ["--blrt", "--blrt-boot=19", "--blrt-starts=1"]],
                    [["--blrt", "--blrt-boot=5", "--blrt-starts=1"],
                     ["--blrt", "--blrt-boot=19", "--blrt-starts=-1"]])),
        _argv("step3", model.map(lambda p: [p]), cohort,
              _value("--method", ["bch", "naive"], BAD_LABELS),
              _values("--covariates", COVARIATES, BAD_LABELS)),
        _argv("simulate",
              _value("--n", ["1", "20", "50"], BAD_NUMBERS, given=True),
              _value("--seed", SEEDS, BAD_SEEDS),
              _value("--spec", [], [paths["cohort"], *bad_paths])),
        _argv("plot", cohort,
              _value("--kind", ["ternary", "realloc", "profiles"],
                     BAD_LABELS, given=True),
              _values("--behaviors", LABELS[:3], LABELS[3:] + BAD_LABELS),
              _value("--pivot", LABELS, BAD_LABELS),
              _value("--delta-grid", GRIDS, BAD_GRIDS),
              _value("--model", [paths["model"]],
                     [paths["cohort"], *bad_paths])),
    )


def _strict(constant):
    raise ValueError(f"{constant} in JSON output")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_arguments_end_in_an_exit_code(files, data):
    argv = data.draw(_commands(files))
    root = files["root"]
    before = sorted(os.listdir(root))
    scratch = tempfile.mkdtemp(dir=root)
    out = os.path.join(scratch, "out")
    target = data.draw(_pick([out], [os.path.join(files["cohort"], "out")]))
    if argv[0] == "simulate":
        target = os.path.join(target, "cohort.csv")
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = main(argv + ["-o", target])
        assert rc in (0, 1, 2, 3), (argv, rc)
        assert "Traceback" not in err.getvalue(), argv
        if rc == 0:
            for name in os.listdir(out):
                if name.endswith(".json"):
                    with open(os.path.join(out, name), encoding="utf-8") as fh:
                        json.load(fh, parse_constant=_strict)
        else:
            assert not os.path.exists(out), argv
        assert os.listdir(scratch) in ([], ["out"])
    finally:
        shutil.rmtree(scratch)
    assert sorted(os.listdir(root)) == before
