"""Compositional regression: basis invariance, closed forms, and curves."""

import numpy as np
import pytest

from conftest import make_cohort
from daycycle import composition as comp
from daycycle.coda import (
    DEFAULT_DAY_MINUTES,
    CodaError,
    compare_group_means,
    composition_contrast,
    fit_coda,
    one_vs_remaining_effect,
    pairwise_reallocation,
    pairwise_reallocation_curve,
    pivot_coefficients,
    proportional_reallocation_composition,
    reallocation_curve_proportional,
)
from daycycle.linmod import Estimate
from daycycle.composition import (
    CANONICAL_LABELS,
    SBPartition,
    closure_values,
    ilr_array,
    pivot_basis,
)

COVS = ["female", "bmi"]


def ilr_truth_cohort(n=1500, seed=2, beta=(0.4, -0.2, 0.1), noise=0.3):
    """Cohort whose outcome is linear in the step-pivot ilr coordinates."""
    cohort = make_cohort(n=n, seed=seed)
    basis = pivot_basis("step", CANONICAL_LABELS)
    Z = ilr_array(cohort.composition_array(), basis)
    rng = np.random.default_rng(seed + 1)
    cohort.outcome = (0.3 + Z @ np.asarray(beta)
                      + 0.05 * cohort.covariates["female"]
                      + rng.normal(0, noise, n))
    return cohort, np.asarray(beta)


def test_fit_coda_recovers_ilr_coefficients():
    cohort, beta = ilr_truth_cohort()
    cfit = fit_coda(cohort, "step", COVS)
    est = cfit.fit.coef[1:4]
    for j in range(3):
        assert est[j] == pytest.approx(beta[j],
                                       abs=3.5 * cfit.fit.se(f"z{j + 1}"))
    assert cfit.fit.labels[:4] == ("intercept", "z1", "z2", "z3")
    assert cfit.baseline.labels == CANONICAL_LABELS


def test_basis_invariance_of_contrasts():
    """Predicted contrasts between two fixed compositions must be identical
    (to numerical precision) across unrelated orthonormal bases."""
    cohort, _ = ilr_truth_cohort(n=1000, seed=4)
    xa = closure_values([10, 3, 2, 9], CANONICAL_LABELS)
    xb = closure_values([7.6, 5.4, 2, 9], CANONICAL_LABELS)
    preds = []
    bases = [
        pivot_basis("step", CANONICAL_LABELS),
        pivot_basis("sleep", CANONICAL_LABELS),
        SBPartition(((1, 1, -1, -1), (1, -1, 0, 0), (0, 0, 1, -1)),
                    CANONICAL_LABELS),
    ]
    for basis in bases:
        # refit on this basis by monkey-building the design by hand
        Z = ilr_array(cohort.composition_array(), basis)
        from daycycle.linmod import fit_ols, linear_combination
        X = np.column_stack([np.ones(cohort.n), Z,
                             cohort.covariates["female"],
                             cohort.covariates["bmi"]])
        fit = fit_ols(X, cohort.outcome)
        za = ilr_array(xa.array()[None, :], basis)[0]
        zb = ilr_array(xb.array()[None, :], basis)[0]
        w = np.zeros(fit.p)
        w[1:4] = zb - za
        preds.append(linear_combination(fit, w).estimate)
    assert abs(preds[0] - preds[1]) < 1e-8
    assert abs(preds[0] - preds[2]) < 1e-8


def test_one_vs_remaining_closed_form_equals_constructive():
    """The closed-form pivot-coefficient formula must equal the generic
    composition contrast on the explicitly perturbed composition."""
    cohort, _ = ilr_truth_cohort(n=800, seed=6)
    cfit = fit_coda(cohort, "step", COVS)
    for r in (-0.5, -0.2, -0.05, 0.05, 0.13, 0.5, 1.0, 3.0):
        closed = one_vs_remaining_effect(cfit, r)
        moved = proportional_reallocation_composition(cfit, r)
        generic = composition_contrast(cfit, cfit.baseline, moved,
                                       warn_extrapolation=False)
        assert closed.estimate == pytest.approx(generic.estimate,
                                                abs=1e-10)
        assert closed.se == pytest.approx(generic.se, abs=1e-10)


def test_one_vs_remaining_range_check():
    cohort, _ = ilr_truth_cohort(n=300, seed=7)
    cfit = fit_coda(cohort, "step", COVS)
    x1 = cfit.baseline.part("step")
    upper = (1 - x1) / x1
    with pytest.raises(CodaError):
        one_vs_remaining_effect(cfit, -1.0)
    with pytest.raises(CodaError):
        one_vs_remaining_effect(cfit, upper + 0.01)
    zero = one_vs_remaining_effect(cfit, 0.0)
    assert zero.estimate == 0.0 and zero.se == 0.0


def test_proportional_reallocation_composition_properties():
    cohort, _ = ilr_truth_cohort(n=300, seed=8)
    cfit = fit_coda(cohort, "step", COVS)
    r = 0.2
    moved = proportional_reallocation_composition(cfit, r)
    x1 = cfit.baseline.part("step")
    assert moved.part("step") == pytest.approx(x1 * 1.2)
    # remaining parts shrink by a common factor
    ratios = [moved.part(b) / cfit.baseline.part(b)
              for b in ("sit", "stand", "sleep")]
    assert np.ptp(ratios) < 1e-12
    assert sum(moved.parts) == pytest.approx(1.0)


def test_reallocation_curve_monotone_for_positive_pivot_slope():
    cohort, beta = ilr_truth_cohort(n=1200, seed=9, beta=(0.5, 0.0, 0.0))
    cfit = fit_coda(cohort, "step", COVS)
    deltas = np.arange(-30, 31, 5, dtype=float)
    curve = reallocation_curve_proportional(cfit, "step", deltas)
    assert curve.mode == "one-vs-remaining"
    if cfit.fit.coef[1] > 0:
        assert np.all(np.diff(curve.estimate) > 0)
    # nonlinearity in minutes: adding 30 min is smaller in magnitude than
    # removing 30 min for a behavior occupying a small share of the day
    assert abs(curve.estimate[0]) != pytest.approx(
        abs(curve.estimate[-1]), rel=1e-3)
    assert np.all(curve.ci_low <= curve.estimate)
    assert np.all(curve.estimate <= curve.ci_high)
    assert curve.estimate[deltas.tolist().index(0.0)] == 0.0


def test_pivot_coefficients_match_separate_fits():
    """One fit gives every pivot's z1 coefficient and SE, whichever pivot
    basis it was fitted on."""
    cohort, _ = ilr_truth_cohort(n=700, seed=17)
    direct = {p: fit_coda(cohort, p, COVS) for p in CANONICAL_LABELS}
    for fitted in ("step", "sleep"):
        piv = pivot_coefficients(direct[fitted])
        for k, p in enumerate(CANONICAL_LABELS):
            assert piv.estimate[k] == pytest.approx(direct[p].fit.coef[1],
                                                    abs=1e-10)
            assert piv.se[k] == pytest.approx(direct[p].fit.se("z1"),
                                              abs=1e-10)


def test_curve_requires_matching_pivot():
    cohort, _ = ilr_truth_cohort(n=300, seed=10)
    cfit = fit_coda(cohort, "step", COVS)
    with pytest.raises(CodaError):
        reallocation_curve_proportional(cfit, "sit", np.array([10.0]))


def test_pairwise_reallocation_antisymmetric_in_endpoints():
    cohort, _ = ilr_truth_cohort(n=900, seed=11)
    cfit = fit_coda(cohort, "step", COVS)
    fwd = pairwise_reallocation(cfit, "sit", "step", 30.0)
    back = pairwise_reallocation(cfit, "step", "sit", -30.0)
    assert fwd.estimate == pytest.approx(back.estimate, abs=1e-12)
    zero = pairwise_reallocation(cfit, "sit", "step", 0.0)
    assert zero.estimate == 0.0
    with pytest.raises(CodaError):
        pairwise_reallocation(cfit, "step", "step", 10.0)
    with pytest.raises(CodaError):
        pairwise_reallocation(cfit, "step", "sit", 1e9)


def test_pairwise_curve_shapes():
    cohort, _ = ilr_truth_cohort(n=600, seed=12)
    cfit = fit_coda(cohort, "step", COVS)
    deltas = np.array([-20.0, -10.0, 0.0, 10.0, 20.0])
    curve = pairwise_reallocation_curve(cfit, "sit", "step", deltas)
    assert curve.mode == "pairwise"
    assert curve.estimate.shape == deltas.shape
    assert curve.estimate[2] == 0.0


def _pairwise_reference(cfit, from_, to, delta):
    """One reallocation as an explicit contrast between the baseline and the
    moved composition, closed on its own."""
    if delta == 0:
        return Estimate(0.0, 0.0, 0.0, 0.0)
    labels = cfit.baseline.labels
    moved = cfit.baseline.array() * DEFAULT_DAY_MINUTES
    moved[labels.index(from_)] -= delta
    moved[labels.index(to)] += delta
    return composition_contrast(cfit, cfit.baseline,
                                closure_values(moved, labels))


def test_pairwise_curve_matches_per_delta_calls():
    cohort, _ = ilr_truth_cohort(n=600, seed=18)
    cfit = fit_coda(cohort, "sleep", COVS)
    deltas = np.arange(-60.0, 61.0, 7.5)
    assert 0.0 in deltas
    for from_, to in (("sit", "step"), ("sleep", "stand"), ("step", "sit")):
        curve = pairwise_reallocation_curve(cfit, from_, to, deltas)
        assert curve.behavior == f"{from_}->{to}"
        assert np.array_equal(curve.delta_minutes, deltas)
        for i, d in enumerate(deltas):
            e = pairwise_reallocation(cfit, from_, to, d)
            ref = _pairwise_reference(cfit, from_, to, d)
            # a single delta takes the same arithmetic as the per-delta
            # contrast, bit for bit
            assert e == ref and isinstance(e.estimate, float)
            for got, want in ((curve.estimate[i], e.estimate),
                              (curve.ci_low[i], e.ci_low),
                              (curve.ci_high[i], e.ci_high)):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        zero = deltas == 0
        assert curve.estimate[zero][0] == 0.0
        assert curve.ci_low[zero][0] == 0.0 and curve.ci_high[zero][0] == 0.0


@pytest.mark.parametrize("from_,to", [("nap", "step"), ("sit", "nap")])
def test_pairwise_reallocation_names_an_unknown_behavior(from_, to):
    cohort, _ = ilr_truth_cohort(n=300, seed=19)
    cfit = fit_coda(cohort, "step", COVS)
    with pytest.raises(CodaError, match="unknown behavior 'nap'"):
        pairwise_reallocation(cfit, from_, to, 10.0)
    with pytest.raises(CodaError, match="unknown behavior 'nap'"):
        pairwise_reallocation_curve(cfit, from_, to, np.array([5.0, 10.0]))


def test_pairwise_curve_range_checks():
    cohort, _ = ilr_truth_cohort(n=300, seed=19)
    cfit = fit_coda(cohort, "step", COVS)
    step_min = cfit.baseline.part("step") * DEFAULT_DAY_MINUTES
    with pytest.raises(CodaError):
        pairwise_reallocation_curve(cfit, "sit", "sit", np.array([10.0]))
    with pytest.raises(CodaError, match="out of 'step'"):
        pairwise_reallocation_curve(cfit, "step", "sit",
                                    np.array([0.0, step_min]))
    with pytest.raises(CodaError, match="'step' nonpositive"):
        pairwise_reallocation_curve(cfit, "sit", "step",
                                    np.array([-step_min, 10.0]))


def test_contrast_fixture_weights():
    """The contrast between the two reference compositions uses the
    documented coordinate differences (-0.1, -0.48, 0.44)."""
    cohort, _ = ilr_truth_cohort(n=700, seed=13)
    cfit = fit_coda(cohort, "step", COVS)
    xa = closure_values([10, 3, 2, 9], CANONICAL_LABELS)
    xb = closure_values([7.6, 5.4, 2, 9], CANONICAL_LABELS)
    got = composition_contrast(cfit, xa, xb, warn_extrapolation=False)
    b1, b2, b3 = cfit.fit.coef[1:4]
    za = ilr_array(xa.array()[None, :], cfit.basis)[0]
    zb = ilr_array(xb.array()[None, :], cfit.basis)[0]
    dz = zb - za
    assert np.allclose(dz, [-0.1, -0.48, 0.44], atol=0.03)
    assert got.estimate == pytest.approx(
        dz[0] * b1 + dz[1] * b2 + dz[2] * b3, abs=1e-12)


def test_extrapolation_warning():
    cohort, _ = ilr_truth_cohort(n=300, seed=14)
    cfit = fit_coda(cohort, "step", COVS)
    extreme = closure_values([0.95, 0.03, 0.01, 0.01], CANONICAL_LABELS)
    with pytest.warns(UserWarning, match="extrapolat"):
        composition_contrast(cfit, cfit.baseline, extreme)
    # moving 500 of the baseline's ~609 sitting minutes to stepping leaves
    # the observed range; the warning points at the caller
    with pytest.warns(UserWarning, match="reallocated composition .* "
                      "extrapolat") as record:
        pairwise_reallocation(cfit, "sit", "step", np.array([30.0, 500.0]))
    assert [w.filename for w in record] == [__file__]


def test_baseline_defaults_to_compositional_mean():
    cohort, _ = ilr_truth_cohort(n=200, seed=15)
    cfit = fit_coda(cohort, "step", COVS)
    expected = comp.compositional_mean(cohort.composition_array(),
                                       cohort.behavior_labels)
    assert np.allclose(cfit.baseline.array(), expected.array(), atol=1e-14)


def test_compare_group_means():
    cohort, _ = ilr_truth_cohort(n=600, seed=16)
    groups = (cohort.covariates["female"] > 0.5).astype(int)
    res = compare_group_means(cohort, groups)
    assert set(res.group_means) == {"0", "1"}
    assert sum(res.group_sizes.values()) == cohort.n
    assert 0.0 <= res.p_value <= 1.0
    # shifted step share should be detected
    shifted = cohort.subset(np.ones(cohort.n, dtype=bool))
    shifted.behaviors = shifted.behaviors.copy()
    mask = groups == 1
    shifted.behaviors[mask, 2] *= 3.0
    res2 = compare_group_means(shifted, groups)
    assert res2.p_value < 1e-4
