"""Isotemporal substitution models: design, antisymmetry, and recovery."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import make_cohort
from daycycle.coda import fit_coda
from daycycle.cohort import CohortError
from daycycle.ism import (
    IsmError,
    build_ism_design,
    fit_flexible_ism,
    fit_ism,
    profile_contrast,
    substitution_effect,
    substitution_table,
)
from daycycle.linmod import LinmodError, linear_combination

COVS = ["female", "bmi"]

TRUE_EFFECTS = {"sit": -0.0004, "stand": 0.0006, "step": 0.0020,
                "sleep": 0.0001}


def test_design_columns_and_order():
    cohort = make_cohort(n=50)
    X, labels, y = build_ism_design(cohort, dropped="step", covariates=COVS)
    assert labels == ("intercept", "sit", "stand", "sleep", "total",
                      "female", "bmi")
    assert X.shape == (50, 7)
    assert y.shape == (50,)
    assert np.allclose(X[:, 0], 1.0)


def test_constant_total_drops_intercept_with_warning():
    cohort = make_cohort(n=50, constant_total=True)
    with pytest.warns(UserWarning, match="constant"):
        X, labels, _ = build_ism_design(cohort, dropped="step", covariates=[])
    assert "intercept" not in labels
    # no intercept column: the behaviors and total only
    assert labels == ("sit", "stand", "sleep", "total")
    assert X.shape == (50, 4)


def test_unknown_behavior_raises():
    cohort = make_cohort(n=30)
    with pytest.raises(IsmError):
        build_ism_design(cohort, dropped="nap", covariates=[])
    with pytest.raises(IsmError):
        substitution_effect(cohort, [], "sit", "sit")


def test_substitution_recovers_known_contrast():
    """With a linear truth, 30 min from -> to estimates
    30 * (beta_to - beta_from)."""
    cohort = make_cohort(n=4000, seed=3, behavior_effects=TRUE_EFFECTS,
                         noise_sd=0.05)
    for from_, to in (("sit", "step"), ("sleep", "stand"), ("step", "sit")):
        est = substitution_effect(cohort, COVS, from_, to, minutes=30.0)
        truth = 30.0 * (TRUE_EFFECTS[to] - TRUE_EFFECTS[from_])
        assert est.ci_low <= truth <= est.ci_high
        assert est.estimate == pytest.approx(truth, abs=3 * est.se)


def test_zero_minutes_gives_zero_estimate():
    cohort = make_cohort(n=60)
    est = substitution_effect(cohort, [], "sit", "step", minutes=0.0)
    assert (est.estimate, est.se, est.ci_low, est.ci_high) == (0, 0, 0, 0)


def test_table_antisymmetry_exact():
    cohort = make_cohort(n=500, seed=5, behavior_effects=TRUE_EFFECTS)
    tab = substitution_table(cohort, COVS, minutes=30.0)
    d = len(tab.labels)
    for i in range(d):
        assert np.isnan(tab.estimate[i, i])
        for j in range(d):
            if i == j:
                continue
            assert tab.estimate[i, j] == -tab.estimate[j, i]
            assert tab.ci_low[i, j] == -tab.ci_high[j, i]


def test_table_mirrors_match_independent_fits():
    """Each mirrored cell must agree with an independently fitted model
    that drops the destination behavior, where moving 30 minutes from ``a``
    changes the outcome by -30 times ``a``'s coefficient (the two
    parameterizations are algebraic re-codings of one partition model)."""
    cohort = make_cohort(n=400, seed=8, behavior_effects=TRUE_EFFECTS)
    tab = substitution_table(cohort, COVS, minutes=30.0)
    labels = tab.labels
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            if i == j:
                continue
            fit = fit_ism(cohort, dropped=b, covariates=COVS).fit
            w = np.zeros(fit.p)
            w[fit.index(a)] = -30.0
            direct = linear_combination(fit, w)
            assert tab.estimate[i, j] == pytest.approx(direct.estimate,
                                                       abs=1e-8)
            assert tab.ci_low[i, j] == pytest.approx(direct.ci_low, abs=1e-8)


def test_dropped_behavior_equivalence():
    """The same reallocation estimated from two different dropped-behavior
    models agrees: drop `to` (negate source coef) vs drop `from` (destination
    coef direct)."""
    cohort = make_cohort(n=600, seed=9, behavior_effects=TRUE_EFFECTS)
    minutes = 30.0
    f_to = fit_ism(cohort, dropped="step", covariates=COVS)
    w = np.zeros(f_to.fit.p)
    w[f_to.fit.index("sit")] = -minutes
    via_drop_to = linear_combination(f_to.fit, w)
    f_from = fit_ism(cohort, dropped="sit", covariates=COVS)
    w2 = np.zeros(f_from.fit.p)
    w2[f_from.fit.index("step")] = minutes
    via_drop_from = linear_combination(f_from.fit, w2)
    assert via_drop_to.estimate == pytest.approx(via_drop_from.estimate,
                                                 abs=1e-9)
    assert via_drop_to.se == pytest.approx(via_drop_from.se, abs=1e-9)


def test_table_requires_behaviors_summing_to_total():
    cohort = make_cohort(n=200, seed=13)
    cohort.total[7] += 5.0
    with pytest.raises(IsmError, match="sum to the total"):
        substitution_table(cohort, COVS)
    with pytest.raises(IsmError, match="sum to the total"):
        substitution_effect(cohort, COVS, "sit", "step")


def test_subgroup_uses_subset_rows():
    cohort = make_cohort(n=300, seed=12, behavior_effects=TRUE_EFFECTS)
    mask = cohort.behavior("step") > np.median(cohort.behavior("step"))
    tab = substitution_table(cohort, COVS, subgroup=mask)
    direct = substitution_table(cohort.subset(mask), COVS)
    assert tab.n == int(mask.sum())
    assert np.allclose(tab.estimate[0, 1], direct.estimate[0, 1])


def test_flexible_ism_detects_curvature():
    """A quadratic stepping effect should yield a significant spline block
    for step and an essentially linear block for the other behaviors."""
    def truth(behaviors):
        step = behaviors[:, 2]
        return 1e-5 * (step - 60.0) ** 2

    cohort = make_cohort(n=3000, seed=15, outcome_fn=truth, noise_sd=0.05)
    flex = fit_flexible_ism(cohort, COVS, dropped="sleep")
    assert flex.n_knots in (3, 4, 5)
    assert set(flex.gcv_by_knots) == {3, 4, 5}
    assert flex.behavior_tests["step"].p_value < 1e-6
    # linear behaviors: spline blocks indistinguishable from zero effect is
    # not required, but the step block must dominate
    assert flex.behavior_tests["step"].statistic > \
        flex.behavior_tests["stand"].statistic


def test_flexible_ism_gcv_selects_among_grid():
    cohort = make_cohort(n=500, seed=16, behavior_effects=TRUE_EFFECTS)
    flex = fit_flexible_ism(cohort, COVS, dropped="step", knot_grid=(3, 4))
    assert flex.n_knots == min(flex.gcv_by_knots,
                               key=flex.gcv_by_knots.get)
    with pytest.raises(IsmError):
        fit_flexible_ism(cohort, COVS, dropped="step", knot_grid=())


def test_flexible_ism_on_a_constant_total_warns_once_and_fits():
    """A constant day length leaves out the intercept in the spline design
    too, so every knot count fits."""
    cohort = make_cohort(n=300, seed=2, constant_total=True)
    with pytest.warns(UserWarning, match="constant") as record:
        flex = fit_flexible_ism(cohort, COVS, dropped="step")
    assert len(record) == 1
    assert record[0].filename == __file__
    assert "intercept" not in flex.fit.labels
    assert set(flex.gcv_by_knots) == {3, 4, 5}
    assert flex.n_knots == min(flex.gcv_by_knots, key=flex.gcv_by_knots.get)


def test_totals_constant_up_to_rounding_drop_the_intercept():
    """Totals that are 1440 only up to rounding (here, the sums of the
    behaviors) fit as the exact-1440 cohort does, each fit warning once."""
    exact = make_cohort(n=300, seed=2, constant_total=True)
    near = replace(exact, total=exact.behaviors.sum(axis=1))
    assert 0.0 < np.ptp(near.total) < 1e-9
    fits = []
    for cohort in (exact, near):
        for fit in (lambda: substitution_table(cohort, COVS),
                    lambda: fit_flexible_ism(cohort, COVS, dropped="step")):
            with pytest.warns(UserWarning, match="constant") as record:
                fits.append(fit())
            assert len(record) == 1
    table, flex, near_table, near_flex = fits
    for got, want in ((near_table.estimate, table.estimate),
                      (near_table.ci_low, table.ci_low),
                      (near_flex.fit.coef, flex.fit.coef)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    assert near_flex.fit.labels == flex.fit.labels
    assert near_flex.n_knots == flex.n_knots


def test_profile_contrast_matches_substitution():
    """Two profiles differing by one 30-minute swap reproduce the pairwise
    substitution estimate."""
    cohort = make_cohort(n=800, seed=17, behavior_effects=TRUE_EFFECTS)
    ismfit = fit_ism(cohort, dropped="sleep", covariates=COVS)
    base = {"sit": 600.0, "stand": 220.0, "step": 80.0, "sleep": 540.0}
    alt = dict(base, sit=570.0, step=110.0)
    pc = profile_contrast(ismfit, base, alt)
    sub = substitution_effect(cohort, COVS, "sit", "step", minutes=30.0)
    # different dropped behaviors, same reallocation
    assert pc.estimate == pytest.approx(sub.estimate, abs=1e-9)
    same = profile_contrast(ismfit, base, dict(base))
    assert same.estimate == 0.0 and same.se == 0.0


def test_profile_contrast_requires_all_behaviors():
    cohort = make_cohort(n=100, seed=18)
    ismfit = fit_ism(cohort, dropped="sleep", covariates=[])
    with pytest.raises(IsmError):
        profile_contrast(ismfit, {"sit": 600.0}, {"sit": 630.0})


@pytest.mark.parametrize("fit", [
    lambda c, covs: build_ism_design(c, "step", covs),
    lambda c, covs: fit_flexible_ism(c, covs, dropped="step"),
    lambda c, covs: fit_coda(c, "step", covs),
], ids=["build_ism_design", "fit_flexible_ism", "fit_coda"])
def test_unknown_covariate_raises_cohort_error(fit):
    with pytest.raises(CohortError, match="'nope'"):
        fit(make_cohort(n=50), ["bmi", "nope"])


def _with_nan(cohort, column):
    """``cohort`` with one NaN cell in ``column`` (the outcome or a
    covariate)."""
    if column == "outcome":
        outcome = cohort.outcome.copy()
        outcome[5] = np.nan
        return replace(cohort, outcome=outcome)
    col = cohort.covariates[column].copy()
    col[5] = np.nan
    return replace(cohort, covariates={**cohort.covariates, column: col})


@pytest.mark.parametrize("column", ["outcome", "bmi"])
@pytest.mark.parametrize("fit", [
    lambda c: fit_ism(c, "step", COVS),
    lambda c: substitution_table(c, COVS),
    lambda c: fit_flexible_ism(c, COVS, dropped="step"),
    lambda c: fit_coda(c, "step", COVS),
], ids=["fit_ism", "substitution_table", "fit_flexible_ism", "fit_coda"])
def test_non_finite_cell_raises_linmod_error(fit, column):
    """A NaN outcome or covariate is a data error in every least-squares
    fit, not NaN coefficients or a failed SVD."""
    with pytest.raises(LinmodError, match="non-finite"):
        fit(_with_nan(make_cohort(n=80, seed=4), column))
