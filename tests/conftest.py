"""Shared synthetic-cohort builders, fixtures and test settings for the
suite."""

import multiprocessing
import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from daycycle import lpa
from daycycle.cohort import BEHAVIOR_LABELS, COVARIATE_COLUMNS, CohortTable

# No example database, so a test writes nothing outside its tmp_path.  Each
# test's own settings (max_examples, derandomize) still apply.
settings.register_profile("daycycle", database=None)
settings.load_profile("daycycle")

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    """Hypothesis also caches the constants it finds in the code, while the
    tests are collected, under its storage directory (``.hypothesis`` in the
    working directory by default): keep it in a temporary one."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a child process running (an EM worker that
    outlived its call, say); such children are ended first."""
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.terminate()
        proc.join()
    assert leaked == [], f"{len(leaked)} child process(es) outlived the test"


def seed_3_means(Xs, K):
    """The initial means (1, K, d) of the random-point start of seed 3 on
    the data set ``Xs[0]``."""
    rng = np.random.default_rng(3)
    return Xs[0][rng.choice(Xs.shape[1], K, replace=False)][None]


@pytest.fixture
def em_worker_dying_at_seed_3(monkeypatch):
    """EM with one start per block in two worker processes, where the worker
    that runs the start of seed 3 ends with exit code 9."""
    parent, em_block = os.getpid(), lpa._em_block

    def em_block_dying_at_seed_3(Xs, sets, weights, means, *rest):
        if (np.array_equal(means, seed_3_means(Xs, weights.shape[1]))
                and os.getpid() != parent):
            os._exit(9)
        return em_block(Xs, sets, weights, means, *rest)

    monkeypatch.setattr(lpa, "_cpus", lambda: 2)
    monkeypatch.setattr(lpa, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(lpa, "_em_block", em_block_dying_at_seed_3)


def make_cohort(n=300, seed=0, behavior_effects=None, outcome_fn=None,
                noise_sd=0.5, constant_total=False):
    """Cohort with Dirichlet time use and a known outcome model.

    ``behavior_effects`` maps behavior label to a per-minute linear effect;
    ``outcome_fn`` (taking the N x 4 minutes matrix) overrides it for
    nonlinear truths.
    """
    rng = np.random.default_rng(seed)
    props = rng.dirichlet([20.0, 8.0, 3.0, 17.0], size=n)
    total = np.full(n, 1440.0) if constant_total else rng.normal(1440, 8, n)
    behaviors = props * total[:, None]
    covariates = {c: np.zeros(n) for c in COVARIATE_COLUMNS}
    covariates["female"] = rng.binomial(1, 0.5, n).astype(float)
    covariates["bmi"] = rng.normal(27, 4, n)
    if outcome_fn is not None:
        signal = outcome_fn(behaviors)
    elif behavior_effects is not None:
        signal = sum(behavior_effects.get(b, 0.0) * behaviors[:, j]
                     for j, b in enumerate(BEHAVIOR_LABELS))
    else:
        signal = np.zeros(n)
    y = (0.5 + signal + 0.08 * covariates["female"]
         - 0.004 * covariates["bmi"] + rng.normal(0, noise_sd, n))
    return CohortTable(
        ids=[f"p{i:05d}" for i in range(n)],
        behaviors=behaviors,
        total=total,
        covariates=covariates,
        outcome=y,
        valid_days=np.full(n, 7, dtype=int),
    )


def floored_row(minutes, floor=1.0):
    """One row's zeros replaced by ``floor`` minutes and its other parts
    shrunk to keep the total, by the per-row arithmetic of the fixed-floor
    rule (Martin-Fernandez et al. 2003)."""
    vals = np.array(minutes, dtype=float)
    zero = vals == 0
    if zero.any():
        total = vals.sum()
        vals = vals * ((total - floor * zero.sum()) / total)
        vals[zero] = floor
    return vals


def closed_subcompositions(behaviors, picked):
    """The per-point path to ``CohortTable.compositions(picked)``: each row
    of the (N, 4) minutes floored and closed with ``closure_values``, then
    its ``picked`` parts closed again with ``closure_values``."""
    from daycycle.composition import closure_values
    rows = []
    for row in behaviors:
        point = closure_values(floored_row(row), BEHAVIOR_LABELS)
        rows.append(closure_values([point.part(lab) for lab in picked],
                                   picked).parts)
    return np.array(rows)
