"""Regression engine: OLS, Wald tests, contrasts, splines and GCV."""

import math

import numpy as np
import pytest
from scipy import stats

from daycycle.linmod import (
    Z95,
    LinmodError,
    RankDeficientError,
    chi2_sf,
    fit_ols,
    gcv_score,
    linear_combination,
    natural_cubic_spline_basis,
    normal_sf,
    wald_test,
)


def _toy_fit(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    beta = np.array([1.0, 2.0, -0.5])
    y = X @ beta + rng.normal(size=n)
    return X, y, beta


def test_ols_matches_normal_equations():
    X, y, _ = _toy_fit()
    fit = fit_ols(X, y, ("intercept", "a", "b"))
    expected = np.linalg.solve(X.T @ X, X.T @ y)
    assert np.allclose(fit.coef, expected, atol=1e-12)
    rss = float(fit.residuals @ fit.residuals)
    cov = rss / (fit.n - fit.p) * np.linalg.inv(X.T @ X)
    assert np.allclose(fit.cov_model, cov, atol=1e-12)
    assert fit.index("b") == 2
    with pytest.raises(LinmodError, match="no coefficient named 'c'"):
        fit.index("c")
    i = fit.index("a")
    assert math.sqrt(fit.cov_model[i, i]) == pytest.approx(math.sqrt(cov[1, 1]))


def test_ols_exact_interpolation_noise_free():
    X, _, beta = _toy_fit()
    y = X @ beta
    fit = fit_ols(X, y)
    assert np.allclose(fit.coef, beta, atol=1e-10)
    assert np.abs(fit.residuals).max() < 1e-10


def test_rank_deficient_design_raises():
    X, y, _ = _toy_fit()
    X2 = np.column_stack([X, X[:, 1] + X[:, 2]])
    with pytest.raises(RankDeficientError):
        fit_ols(X2, y)


def test_design_matrix_validation():
    X, y, _ = _toy_fit(n=30)
    with pytest.raises(LinmodError, match="labels"):
        fit_ols(X, y, ("only",))
    bad = X.copy()
    bad[4, 2] = np.nan
    with pytest.raises(LinmodError, match="design contains non-finite"):
        fit_ols(bad, y, ("i", "a", "b"))
    with pytest.raises(LinmodError, match="2-D"):
        fit_ols(X[:, 1], y)
    with pytest.raises(LinmodError, match="30 design rows"):
        fit_ols(X, y[:-1])
    for cell in (np.nan, np.inf):
        bad = y.copy()
        bad[7] = cell
        with pytest.raises(LinmodError, match="outcome contains non-finite"):
            fit_ols(X, bad)
    fit = fit_ols(X, y, ("i", "a", "b"))
    assert fit.labels == ("i", "a", "b")


def test_wald_single_coefficient_equals_z_squared():
    X, y, _ = _toy_fit()
    fit = fit_ols(X, y)
    C = np.array([[0.0, 1.0, 0.0]])
    wt = wald_test(fit, C)
    i = fit.index("x1")
    z = fit.coef[i] / math.sqrt(fit.cov_model[i, i])
    assert wt.statistic == pytest.approx(z * z, rel=1e-12)
    assert wt.df == 1
    assert wt.p_value == pytest.approx(2 * stats.norm.sf(abs(z)), rel=1e-9)


def test_wald_validation():
    X, y, _ = _toy_fit(n=40)
    fit = fit_ols(X, y)
    with pytest.raises(LinmodError):
        wald_test(fit, np.ones((1, 5)))
    with pytest.raises(LinmodError):
        wald_test(fit, np.vstack([np.eye(3)[0], np.eye(3)[0]]))
    with pytest.raises(LinmodError, match="not of full row rank"):
        wald_test(fit, np.vstack([np.eye(3), np.ones(3)]))
    # y = 0 fits exactly: the coefficients' covariance is exactly zero
    zero = fit_ols(X, np.zeros(len(X)))
    with pytest.raises(LinmodError, match="singular contrast covariance"):
        wald_test(zero, np.eye(3)[1:])


def test_linear_combination_matches_manual():
    X, y, _ = _toy_fit()
    fit = fit_ols(X, y)
    w = np.array([0.0, 1.0, -2.0])
    est = linear_combination(fit, w)
    assert est.estimate == pytest.approx(fit.coef[1] - 2 * fit.coef[2])
    se = math.sqrt(w @ fit.cov_model @ w)
    assert est.se == pytest.approx(se)
    assert est.ci_low == pytest.approx(est.estimate - Z95 * se)
    assert est.ci_high == pytest.approx(est.estimate + Z95 * se)
    # a weight matrix gives one entry per row; an all-zero row is exactly 0
    rows = linear_combination(fit, np.vstack([w, -w, np.zeros(3)]))
    assert rows.estimate.tolist() == pytest.approx(
        [est.estimate, -est.estimate, 0.0])
    assert rows.se.tolist() == pytest.approx([se, se, 0.0])
    assert str(rows.ci_low[2]) == "0.0" and str(rows.ci_high[2]) == "0.0"
    for bad in (w[:2], np.zeros((2, 4)), np.zeros((1, 1, 3))):
        with pytest.raises(LinmodError, match="weight length"):
            linear_combination(fit, bad)


def test_spline_reproduces_linear_functions():
    x = np.linspace(0, 10, 200)
    B = natural_cubic_spline_basis(x, 5)
    assert B.shape == (200, 4)
    X = np.column_stack([np.ones_like(x), B])
    y = 3.0 - 0.7 * x
    fit = fit_ols(X, y)
    assert np.abs(fit.residuals).max() < 1e-8
    assert np.allclose(fit.coef[2:], 0.0, atol=1e-8)


def test_spline_knot_validation():
    with pytest.raises(LinmodError):
        natural_cubic_spline_basis(np.linspace(0, 1, 10), 1)
    with pytest.raises(LinmodError):
        natural_cubic_spline_basis(np.full(10, 2.0), 3)


def test_gcv_hand_formula():
    X, y, _ = _toy_fit(n=50)
    fit = fit_ols(X, y)
    rss = float(fit.residuals @ fit.residuals)
    assert gcv_score(fit) == pytest.approx(50 * rss / (50 - 3) ** 2)


# --- tail probabilities without scipy.stats ---

_EDGE_X = [-math.inf, -1.0, -0.0, 0.0, 1e-320, 1.0, 50.0, math.inf, math.nan]


def _same(a, b):
    """Equal to the last bit, NaN equal to NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(
        np.all((a == b) | (np.isnan(a) & np.isnan(b))))


@pytest.mark.parametrize("df", [0, 1, 2, 3, 7, 12, -1, 2.5, math.nan])
def test_chi2_sf_is_scipy_stats_at_the_edges(df):
    for x in _EDGE_X:
        assert _same(chi2_sf(x, df), stats.chi2.sf(x, df)), (x, df)
    assert _same(chi2_sf(_EDGE_X, df), stats.chi2.sf(_EDGE_X, df))


def test_normal_sf_and_z95_are_scipy_stats():
    for x in _EDGE_X:
        assert _same(normal_sf(x), stats.norm.sf(x)), x
    assert _same(normal_sf(_EDGE_X), stats.norm.sf(_EDGE_X))
    assert Z95 == stats.norm.ppf(0.975)


def test_tail_probabilities_match_scipy_stats_on_random_points():
    rng = np.random.default_rng(0)
    x = rng.exponential(8.0, 5000)
    df = rng.integers(1, 30, 5000)
    assert _same(chi2_sf(x, df), stats.chi2.sf(x, df))
    z = rng.normal(0.0, 4.0, 5000)
    assert _same(normal_sf(z), stats.norm.sf(z))
