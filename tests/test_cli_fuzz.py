"""Random argument lists for every subcommand: ``main`` always ends in an
exit code, a failed run writes nothing, and a run that succeeds writes
strict JSON."""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np
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
BAD_MODELS = ("one-class", "means-1e200", "covs-1e-300", "covs-1e300",
              "weight-1e-300", "loglik-nan", "no-covs", "cut")


def _bad_models(root, model_path):
    """Model files, by name, that ``MixtureModel.from_json`` may read but no
    analysis can use, or that it must reject: a one-class model, and copies
    of the K=2 model at ``model_path`` with values at the edge of floating
    point, a NaN log-likelihood, a field missing, or the text cut in half.
    """
    assert main(["lpa", str(root / "cohort.csv"), "-o", str(root / "k1"),
                 "--classes", "1:1", "--starts", "2"]) == 0
    with open(model_path, encoding="utf-8") as fh:
        text = fh.read()
    model = json.loads(text)
    K, d = len(model["means"]), len(model["labels"])
    edits = {
        "means-1e200": {"means": [[v * 1e200 for v in m]
                                  for m in model["means"]]},
        "covs-1e-300": {"covs": [(1e-300 * np.eye(d)).tolist()] * K},
        "covs-1e300": {"covs": [(1e300 * np.eye(d)).tolist()] * K},
        "weight-1e-300": {"weights": [1e-300, 1.0]},
        "loglik-nan": {"loglik": math.nan},
        "no-covs": {"covs": None},
    }
    texts = {name: json.dumps({k: v for k, v in {**model, **edit}.items()
                               if v is not None})
             for name, edit in edits.items()}
    texts["cut"] = text[:len(text) // 2]
    paths = {"one-class": str(root / "k1" / "lpa_model.json")}
    for name, model_text in texts.items():
        paths[name] = str(root / f"model-{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(model_text)
    assert tuple(paths) == BAD_MODELS
    return paths


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """An N=200 cohort, its LPA model, model files no analysis can use, and a
    path under a regular file."""
    root = tmp_path_factory.mktemp("fuzz")
    cohort = str(root / "cohort.csv")
    assert main(["simulate", "--n", "200", "--seed", "5", "-o", cohort]) == 0
    assert main(["lpa", cohort, "-o", str(root), "--classes", "2:2",
                 "--starts", "3", "--max-iter", "30"]) == 0
    model = str(root / "lpa_model.json")
    return {"root": root, "cohort": cohort, "model": model,
            "bad_models": _bad_models(root, model),
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
    # as often as not, a model file that no analysis can use
    model = st.one_of(_pick([paths["model"]], [paths["cohort"], *bad_paths]),
                      st.sampled_from(list(paths["bad_models"].values())))
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
              st.one_of(st.just([]),
                        model.map(lambda p: [f"--model={p}"]))),
    )


def _strict(constant):
    raise ValueError(f"{constant} in JSON output")


def _run(files, argv, into_file=False):
    """``main(argv)`` with ``-o`` a new directory (with ``into_file``, a path
    below the cohort file) ends in an exit code without a traceback, writes
    nothing when it fails and strict JSON when it succeeds."""
    root = files["root"]
    before = sorted(os.listdir(root))
    scratch = tempfile.mkdtemp(dir=root)
    out = os.path.join(scratch, "out")
    target = os.path.join(files["cohort"], "out") if into_file else out
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


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_arguments_end_in_an_exit_code(files, data):
    argv = data.draw(_commands(files))
    _run(files, argv, into_file=data.draw(_pick([False], [True])))


@pytest.mark.parametrize("name", BAD_MODELS)
@pytest.mark.parametrize("command", ["step3", "plot-profiles"])
def test_unusable_model_files_end_in_an_exit_code(files, command, name):
    model, cohort = files["bad_models"][name], files["cohort"]
    _run(files, ["step3", model, cohort] if command == "step3" else
         ["plot", cohort, "--kind", "profiles", "--model", model])
