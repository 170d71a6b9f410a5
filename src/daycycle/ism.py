"""Isotemporal substitution models.

The linear ISM regresses the outcome on total day length and all behaviors
but one (the behavior being displaced); coefficients are per-minute
substitution effects.  Every dropped-behavior form re-parameterizes the
others, so each reallocation effect is read off the fit dropping the last
behavior.  A spline variant relaxes linearity for each retained behavior
while keeping total time linear.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .cohort import CohortTable, check_day_totals
from .linmod import (
    FitResult,
    WaldTest,
    fit_ols,
    gcv_score,
    linear_combination,
    natural_cubic_spline_basis,
    wald_test,
)


# the knot counts among which the spline ISM's GCV chooses
KNOT_GRID = (3, 4, 5)


class IsmError(ValueError):
    pass


@dataclass(frozen=True)
class IsmFit:
    fit: FitResult


@dataclass(frozen=True)
class SubstitutionTable:
    """D x D grid of reallocation effects (row behavior -> column behavior)."""

    labels: tuple[str, ...]
    minutes: float
    estimate: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n: int


def _ism_designs(cohort: CohortTable, dropped: str, covariates: list[str],
                 knot_grid: tuple[int | None, ...] = (None,)):
    """Yield one ISM design per entry of ``knot_grid``, as (X, column labels,
    {behavior: indices of its columns}).

    Columns: an intercept unless total day length is constant to a relative
    1e-9, as in ``_partition_fit`` (that warns once, attributed to the first
    caller outside this module), each behavior except ``dropped`` as its
    minutes/day (knots ``None``) or its natural cubic spline basis on that
    many knots, total minutes, the covariates.
    """
    if dropped not in cohort.behavior_labels:
        raise IsmError(f"unknown behavior {dropped!r}")
    head, head_labels = [np.ones(cohort.n)], ["intercept"]
    if np.ptp(cohort.total) <= 1e-9 * np.abs(cohort.total).max():
        level = 1
        while sys._getframe(level).f_globals["__name__"] == __name__:
            level += 1
        warnings.warn("total day length is constant: dropping the intercept "
                      "to avoid perfect collinearity", stacklevel=level + 1)
        head, head_labels = [], []
    tail = [cohort.total, *cohort.covariate_matrix(covariates).T]
    kept = [b for b in cohort.behavior_labels if b != dropped]
    for n_knots in knot_grid:
        cols, labels, spans = list(head), list(head_labels), {}
        for b in kept:
            if n_knots is None:
                block, names = cohort.behavior(b)[:, None], [b]
            else:
                block = natural_cubic_spline_basis(cohort.behavior(b), n_knots)
                names = [f"{b}_s{k}" for k in range(block.shape[1])]
            spans[b] = list(range(len(labels), len(labels) + len(names)))
            cols += list(block.T)
            labels += names
        yield (np.column_stack(cols + tail),
               tuple(labels + ["total", *covariates]), spans)


def build_ism_design(cohort: CohortTable, dropped: str, covariates: list[str]
                     ) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Design per the partition convention, as (X, column labels, outcome):
    intercept (when total time varies), every behavior except ``dropped``
    in minutes/day, total minutes, then covariates."""
    X, labels, _ = next(_ism_designs(cohort, dropped, covariates))
    return X, labels, cohort.outcome


def fit_ism(cohort: CohortTable, dropped: str,
            covariates: list[str]) -> IsmFit:
    X, labels, y = build_ism_design(cohort, dropped, covariates)
    return IsmFit(fit_ols(X, y, labels))


def _partition_fit(data: CohortTable, covariates: list[str]
                   ) -> tuple[FitResult, np.ndarray]:
    """The fit dropping the last behavior, and the D x p ``gamma`` whose row
    k picks behavior k's coefficient (zero for the dropped one).  As the
    behaviors must sum to total time, every dropped-behavior model is a
    re-parameterization of this one: moving ``minutes`` from behavior i to j
    changes the outcome by ``minutes * (gamma_j - gamma_i) @ coef``."""
    labels = data.behavior_labels
    check_day_totals(data, IsmError)
    fit = fit_ism(data, dropped=labels[-1], covariates=covariates).fit
    gamma = np.zeros((len(labels), fit.p))
    for k, b in enumerate(labels[:-1]):
        gamma[k, fit.index(b)] = 1.0
    return fit, gamma


def substitution_table(cohort: CohortTable, covariates: list[str],
                       minutes: float = 30.0,
                       subgroup: np.ndarray | None = None) -> SubstitutionTable:
    """All pairwise reallocation effects from one partition-model fit: cell
    (i, j) with i < j is the effect of moving ``minutes``/day from behavior i
    to behavior j, the mirrored cells their exact negations."""
    data = cohort if subgroup is None else cohort.subset(subgroup)
    fit, gamma = _partition_fit(data, covariates)
    d = len(data.behavior_labels)
    i, j = np.triu_indices(d, k=1)
    e = linear_combination(fit, minutes * (gamma[j] - gamma[i]))
    est, lo, hi = (np.full((d, d), np.nan) for _ in range(3))
    est[i, j], lo[i, j], hi[i, j] = e.estimate, e.ci_low, e.ci_high
    est[j, i], lo[j, i], hi[j, i] = -e.estimate, -e.ci_high, -e.ci_low
    return SubstitutionTable(data.behavior_labels, minutes, est, lo, hi, data.n)


@dataclass(frozen=True)
class FlexibleIsmFit:
    fit: FitResult
    dropped: str
    n_knots: int
    gcv_by_knots: dict[int, float]
    behavior_tests: dict[str, WaldTest]


def fit_flexible_ism(cohort: CohortTable, covariates: list[str],
                     dropped: str) -> FlexibleIsmFit:
    """Spline ISM: each retained behavior gets a natural cubic spline basis,
    total time stays linear, and the knot count in ``KNOT_GRID`` that
    minimizes GCV is kept.  Reports a joint Wald test over each behavior's
    spline coefficients."""
    best = None
    scores: dict[int, float] = {}
    designs = _ism_designs(cohort, dropped, covariates, KNOT_GRID)
    for n_knots, (X, labels, spans) in zip(KNOT_GRID, designs):
        fit = fit_ols(X, cohort.outcome, labels)
        score = gcv_score(fit)
        scores[n_knots] = score
        if best is None or score < best[0]:
            best = (score, n_knots, fit, spans)
    _, n_knots, fit, spans = best
    # each behavior's test selects its spline coefficients
    tests = {b: wald_test(fit, np.eye(fit.p)[c]) for b, c in spans.items()}
    return FlexibleIsmFit(fit, dropped, n_knots, scores, tests)
