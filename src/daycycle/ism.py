"""Isotemporal substitution models.

The linear ISM regresses the outcome on total day length and all behaviors
but one (the behavior being displaced); coefficients are per-minute
substitution effects.  A spline variant relaxes linearity for each retained
behavior while keeping total time linear.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cohort import CohortTable
from .linmod import (
    Estimate,
    FitResult,
    WaldTest,
    fit_ols,
    gcv_score,
    linear_combination,
    natural_cubic_spline_basis,
    wald_test,
)


class IsmError(ValueError):
    pass


@dataclass(frozen=True)
class IsmFit:
    fit: FitResult
    dropped: str
    behavior_labels: tuple[str, ...]
    covariate_names: tuple[str, ...]


@dataclass(frozen=True)
class SubstitutionTable:
    """D x D grid of reallocation effects (row behavior -> column behavior)."""

    labels: tuple[str, ...]
    minutes: float
    estimate: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n: int


def build_ism_design(cohort: CohortTable, dropped: str, covariates: list[str]
                     ) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Design per the partition convention, as (X, column labels, outcome):
    intercept (when total time varies), every behavior except ``dropped``
    in minutes/day, total minutes, then covariates."""
    if dropped not in cohort.behavior_labels:
        raise IsmError(f"unknown behavior {dropped!r}")
    kept = [b for b in cohort.behavior_labels if b != dropped]
    cols, labels = [], []
    if np.ptp(cohort.total) == 0.0:
        warnings.warn(
            "total day length is constant: dropping the intercept to avoid "
            "perfect collinearity", stacklevel=2)
    else:
        cols.append(np.ones(cohort.n))
        labels.append("intercept")
    for b in kept:
        cols.append(cohort.behavior(b))
        labels.append(b)
    cols.append(cohort.total)
    labels.append("total")
    cols += list(cohort.covariate_matrix(covariates).T)
    labels += covariates
    return np.column_stack(cols), tuple(labels), cohort.outcome


def fit_ism(cohort: CohortTable, dropped: str,
            covariates: list[str]) -> IsmFit:
    X, labels, y = build_ism_design(cohort, dropped, covariates)
    return IsmFit(fit_ols(X, y, labels), dropped, cohort.behavior_labels,
                  tuple(covariates))


def substitution_effect(cohort: CohortTable, covariates: list[str],
                        from_: str, to: str, minutes: float = 30.0) -> Estimate:
    """Effect of reallocating ``minutes``/day from one behavior to another.

    Fits the model dropping the destination behavior, so the source
    coefficient measures displacement of the destination; the reallocation
    effect is its negation scaled by minutes.
    """
    if from_ == to:
        raise IsmError("source and destination behavior must differ")
    for lab in (from_, to):
        if lab not in cohort.behavior_labels:
            raise IsmError(f"unknown behavior {lab!r}")
    if minutes == 0:
        return Estimate(0.0, 0.0, 0.0, 0.0)
    ismfit = fit_ism(cohort, dropped=to, covariates=covariates)
    w = np.zeros(ismfit.fit.p)
    w[ismfit.fit.index(from_)] = -minutes
    return linear_combination(ismfit.fit, w)


def substitution_table(cohort: CohortTable, covariates: list[str],
                       minutes: float = 30.0,
                       subgroup: np.ndarray | None = None) -> SubstitutionTable:
    """All pairwise reallocation effects from one partition-model fit.

    When the behaviors sum to total time, the model dropping any behavior is
    a re-parameterization of the one dropping the last: with ``gamma`` its
    behavior coefficients (0 for the dropped one), moving ``minutes`` from
    behavior i to j changes the outcome by ``minutes * (gamma_j - gamma_i)``.
    Cells (i, j) with i < j are estimated that way; the mirrored cells are
    their exact negations.
    """
    data = cohort if subgroup is None else cohort.subset(subgroup)
    labels = data.behavior_labels
    gap = np.abs(data.total - data.behaviors.sum(axis=1))
    if np.any(gap > 1e-9 * data.total):
        raise IsmError(
            "behavior minutes must sum to the total day length, "
            f"off by up to {gap.max():.3g} min")
    fit = fit_ism(data, dropped=labels[-1], covariates=covariates).fit
    d = len(labels)
    gamma = np.zeros((d, fit.p))
    for k, b in enumerate(labels[:-1]):
        gamma[k, fit.index(b)] = 1.0
    i, j = np.triu_indices(d, k=1)
    e = linear_combination(fit, minutes * (gamma[j] - gamma[i]))
    est, lo, hi = (np.full((d, d), np.nan) for _ in range(3))
    est[i, j], lo[i, j], hi[i, j] = e.estimate, e.ci_low, e.ci_high
    est[j, i], lo[j, i], hi[j, i] = -e.estimate, -e.ci_high, -e.ci_low
    return SubstitutionTable(labels, minutes, est, lo, hi, data.n)


@dataclass(frozen=True)
class FlexibleIsmFit:
    fit: FitResult
    dropped: str
    n_knots: int
    gcv_by_knots: dict[int, float]
    behavior_tests: dict[str, WaldTest]


def fit_flexible_ism(cohort: CohortTable, covariates: list[str],
                     dropped: str,
                     knot_grid: tuple[int, ...] = (3, 4, 5)) -> FlexibleIsmFit:
    """Spline ISM: each retained behavior gets a natural cubic spline basis,
    total time stays linear, and the knot count minimizes GCV.  Reports a
    joint Wald test over each behavior's spline coefficients."""
    if not knot_grid:
        raise IsmError("knot grid must be nonempty")
    kept = [b for b in cohort.behavior_labels if b != dropped]
    if dropped not in cohort.behavior_labels:
        raise IsmError(f"unknown behavior {dropped!r}")
    covariate_cols = list(cohort.covariate_matrix(covariates).T)
    best = None
    scores: dict[int, float] = {}
    for n_knots in knot_grid:
        cols = [np.ones(cohort.n)]
        labels = ["intercept"]
        spans: dict[str, list[int]] = {}
        for b in kept:
            basis = natural_cubic_spline_basis(cohort.behavior(b), n_knots)
            start = len(labels)
            for k in range(basis.shape[1]):
                cols.append(basis[:, k])
                labels.append(f"{b}_s{k}")
            spans[b] = list(range(start, len(labels)))
        cols.append(cohort.total)
        labels.append("total")
        cols += covariate_cols
        labels += covariates
        fit = fit_ols(np.column_stack(cols), cohort.outcome, tuple(labels))
        score = gcv_score(fit)
        scores[n_knots] = score
        if best is None or score < best[0]:
            best = (score, n_knots, fit, spans)
    _, n_knots, fit, spans = best
    # each behavior's test selects its spline coefficients
    tests = {b: wald_test(fit, np.eye(fit.p)[spans[b]]) for b in kept}
    return FlexibleIsmFit(fit, dropped, n_knots, scores, tests)


def profile_contrast(ismfit: IsmFit, profile_a: dict[str, float],
                     profile_b: dict[str, float]) -> Estimate:
    """Expected outcome difference between two time-use profiles (B minus A),
    with covariates held equal (they cancel in the difference).

    Profiles map behavior label to minutes/day; a 'total' key defaults to the
    sum of the behaviors.
    """
    fit = ismfit.fit
    w = np.zeros(fit.p)
    for prof in (profile_a, profile_b):
        missing = [b for b in ismfit.behavior_labels if b not in prof]
        if missing and "total" not in prof:
            raise IsmError(f"profile missing behaviors {missing!r}")
    tot_a = profile_a.get("total", sum(profile_a[b] for b in ismfit.behavior_labels))
    tot_b = profile_b.get("total", sum(profile_b[b] for b in ismfit.behavior_labels))
    for b in ismfit.behavior_labels:
        if b == ismfit.dropped:
            continue
        if b not in profile_a or b not in profile_b:
            raise IsmError(f"profile missing behavior {b!r}")
        w[fit.index(b)] = profile_b[b] - profile_a[b]
    w[fit.index("total")] = tot_b - tot_a
    if not np.any(w):
        return Estimate(0.0, 0.0, 0.0, 0.0)
    return linear_combination(fit, w)
