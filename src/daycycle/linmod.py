"""Shared linear-model machinery: OLS, Wald tests, contrasts, natural cubic
splines and GCV.

A fit carries the model-based covariance, which every contrast and Wald test
uses.

The tail probabilities (``chi2_sf``, ``normal_sf``) import ``scipy.special``
on their first call, so a process that computes no p-value never loads
scipy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Z95 = 1.959963984540054  # scipy.special.ndtri(0.975), the normal 97.5% point


def chi2_sf(x, df):
    """Chi-square upper tail P(X > x) on ``df`` degrees of freedom, equal to
    ``scipy.stats.chi2.sf``: 1 for x below 0 and NaN for df <= 0, where
    ``chdtrc`` alone gives NaN and 0."""
    from scipy.special import chdtrc

    x, df = np.asarray(x, dtype=float), np.asarray(df, dtype=float)
    return np.where(df > 0, chdtrc(df, np.maximum(x, 0.0)), np.nan)[()]


def normal_sf(x):
    """Standard normal upper tail P(Z > x), equal to
    ``scipy.stats.norm.sf``."""
    from scipy.special import ndtr

    return ndtr(-np.asarray(x, dtype=float))


class RankDeficientError(ValueError):
    """Design matrix is not of full column rank (collinearity)."""


class LinmodError(ValueError):
    pass


@dataclass(frozen=True)
class FitResult:
    coef: np.ndarray
    cov_model: np.ndarray
    n: int
    p: int
    labels: tuple[str, ...]
    residuals: np.ndarray
    fitted: np.ndarray

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LinmodError(f"no coefficient named {label!r}") from None


@dataclass(frozen=True)
class WaldTest:
    statistic: float
    df: int
    p_value: float


@dataclass(frozen=True)
class Estimate:
    estimate: float
    se: float
    ci_low: float
    ci_high: float


def fit_ols(X: np.ndarray, y: np.ndarray,
            labels: tuple[str, ...] | None = None) -> FitResult:
    """Ordinary least squares with the model-based covariance.

    The ISM, spline ISM and CoDA fits all come through here, so this is
    where their input is checked: LinmodError when X is not 2-D, when
    ``labels`` does not name its columns, when y does not hold one value per
    row, or when a cell of X or y is not finite.  Raises RankDeficientError
    when the design is numerically rank deficient (e.g. all behaviors plus
    an intercept with constant total time).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise LinmodError(f"design must be 2-D; got {X.ndim} dimensions")
    n, p = X.shape
    if labels is None:
        labels = tuple(f"x{j}" for j in range(p))
    elif len(labels) != p:
        raise LinmodError(f"{len(labels)} labels for {p} design columns")
    if y.shape != (n,):
        raise LinmodError(f"outcome of shape {y.shape} for {n} design rows")
    if not np.isfinite(X).all():
        raise LinmodError("design contains non-finite entries")
    if not np.isfinite(y).all():
        raise LinmodError("outcome contains non-finite entries")
    if n <= p:
        raise LinmodError(f"need N > p; got N={n}, p={p}")
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    cutoff = max(n, p) * np.finfo(float).eps * s[0]
    if s[-1] <= cutoff:
        raise RankDeficientError(
            "design matrix is rank deficient; drop a collinear column"
        )
    coef = vt.T @ ((u.T @ y) / s)
    fitted = X @ coef
    resid = y - fitted
    sigma2 = float(resid @ resid) / (n - p)
    cov_model = sigma2 * (vt.T @ np.diag(1.0 / s**2) @ vt)
    return FitResult(coef, cov_model, n, p, tuple(labels), resid, fitted)


def wald_test(fit: FitResult, C: np.ndarray) -> WaldTest:
    """Chi-square Wald test of C @ beta = 0 on rank(C) degrees of freedom."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[1] != fit.p:
        raise LinmodError("contrast width does not match coefficient count")
    if np.linalg.matrix_rank(C) < C.shape[0]:
        raise LinmodError("contrast matrix is not of full row rank")
    try:
        return joint_wald(C @ fit.coef, C @ fit.cov_model @ C.T)
    except np.linalg.LinAlgError:
        raise LinmodError("singular contrast covariance") from None


def joint_wald(b: np.ndarray, V: np.ndarray) -> WaldTest:
    """Chi-square Wald test of b = 0 given its covariance V, on b.size
    degrees of freedom."""
    stat = float(b @ np.linalg.solve(V, b))
    return WaldTest(stat, b.size, float(chi2_sf(stat, b.size)))


def linear_combination(fit: FitResult, weights: np.ndarray) -> Estimate:
    """Estimate and normal-based 95% CI for a linear combination of coefficients.

    ``weights`` is one length-p vector (the fields are floats) or an (m, p)
    matrix of them (the fields are length-m arrays, one entry per row).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != fit.p:
        raise LinmodError("weight length does not match coefficient count")
    # "+ 0.0" turns the -0.0 an all-zero weight row can give into 0.0.
    est = w @ fit.coef + 0.0
    se = np.sqrt(np.sum((w @ fit.cov_model) * w, axis=-1))
    if w.ndim == 1:
        est, se = float(est), float(se)
    return Estimate(est, se, est - Z95 * se, est + Z95 * se)


def natural_cubic_spline_basis(x: np.ndarray, n_knots: int) -> np.ndarray:
    """Natural cubic spline basis columns (intercept excluded), on
    ``n_knots`` equally spaced knots over the observed range.

    Returns n_knots - 1 columns, the first of which is ``x`` itself, so any
    linear function is reproduced exactly; second derivatives vanish beyond
    the boundary knots.
    """
    x = np.asarray(x, dtype=float)
    if n_knots < 2:
        raise LinmodError("need at least 2 knots")
    lo, hi = x.min(), x.max()
    if hi <= lo:
        raise LinmodError("cannot place knots on a constant variable")
    knots = np.linspace(lo, hi, n_knots)
    K = n_knots
    cols = [x]

    def d(k):
        num = np.maximum(x - knots[k], 0.0) ** 3 - np.maximum(x - knots[K - 1], 0.0) ** 3
        return num / (knots[K - 1] - knots[k])

    dlast = d(K - 2)
    for k in range(K - 2):
        cols.append(d(k) - dlast)
    return np.column_stack(cols)


def gcv_score(fit: FitResult) -> float:
    """Generalized cross-validation of an unpenalized fit: N * RSS / (N - p)^2.

    ``fit_ols`` requires N > p, so the denominator is never zero.
    """
    rss = float(fit.residuals @ fit.residuals)
    return fit.n * rss / (fit.n - fit.p) ** 2
