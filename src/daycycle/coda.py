"""Compositional outcome regression and time-reallocation effects.

The outcome is regressed on pivot-basis ilr coordinates of each person's
day composition (plus covariates).  Reallocation effects are read off the
fitted coefficients, either in closed form for the one-vs-remaining move or
constructively by contrasting two explicit compositions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import composition as comp
from .composition import Composition, SBPartition, ilr_array, pivot_basis
from .cohort import CohortTable
from .linmod import Estimate, FitResult, fit_ols, linear_combination


class CodaError(ValueError):
    pass


DEFAULT_DAY_MINUTES = 1440.0


@dataclass(frozen=True)
class CodaFit:
    fit: FitResult
    basis: SBPartition
    pivot: str
    baseline: Composition
    coord_min: np.ndarray  # observed per-coordinate ilr ranges,
    coord_max: np.ndarray  # used as the extrapolation guard

    @property
    def n_coords(self) -> int:
        return self.basis.D - 1


def fit_coda(cohort: CohortTable, pivot: str,
             covariates: list[str]) -> CodaFit:
    """OLS of the outcome on pivot-basis ilr coordinates plus covariates.

    The baseline composition for reallocation predictions is the cohort
    compositional mean.
    """
    basis = pivot_basis(pivot, cohort.behavior_labels)
    parts = cohort.composition_array()
    Z = ilr_array(parts, basis)
    baseline = comp.compositional_mean(parts, cohort.behavior_labels)
    X = np.column_stack([np.ones(cohort.n), Z,
                         cohort.covariate_matrix(covariates)])
    labels = ("intercept", *(f"z{k + 1}" for k in range(Z.shape[1])),
              *covariates)
    fit = fit_ols(X, cohort.outcome, labels)
    return CodaFit(fit, basis, pivot, baseline, Z.min(axis=0),
                   Z.max(axis=0))


def one_vs_remaining_effect(cfit: CodaFit, r: float | np.ndarray) -> Estimate:
    """Closed-form effect of scaling the pivot behavior by (1 + r) while
    shrinking every other behavior by a common factor (1 - s).

    Only the pivot coordinate moves, by sqrt((D-1)/D) * ln((1+r)/(1-s)), so
    the effect and its CI come from the pivot coefficient alone.  ``r`` may
    be an array, which gives array fields.
    """
    x1 = cfit.baseline.part(cfit.pivot)
    upper = (1.0 - x1) / x1
    r = np.asarray(r, dtype=float)
    if not np.all((-1.0 < r) & (r < upper)):
        raise CodaError(f"r must lie in (-1, {upper:.4g}); got {r}")
    s = r * x1 / (1.0 - x1)
    d = cfit.basis.D
    w = np.zeros(r.shape + (cfit.fit.p,))
    # pivot coordinate is z1
    w[..., 1] = math.sqrt((d - 1) / d) * np.log((1.0 + r) / (1.0 - s))
    return linear_combination(cfit.fit, w)


def pivot_coefficients(cfit: CodaFit) -> Estimate:
    """Every behavior's pivot coefficient, as arrays in basis label order.

    Entry k is the z1 coefficient of the fit whose pivot is behavior k.  All
    ilr bases span one model, so it is read off ``cfit`` by a change of
    basis: ``V_k[:, 0] @ V @ beta``, with ``V_k`` and ``V`` the contrast
    matrices of pivot k's basis and the fitted one, and ``beta`` the fitted
    coordinate coefficients.
    """
    labels = cfit.basis.labels
    first = np.array([pivot_basis(p, labels).contrast[:, 0] for p in labels])
    w = np.zeros((len(labels), cfit.fit.p))
    w[:, 1:1 + cfit.n_coords] = first @ cfit.basis.contrast
    return linear_combination(cfit.fit, w)


def proportional_reallocation_composition(cfit: CodaFit, r: float) -> Composition:
    """The baseline with the pivot part scaled by (1+r) and the remaining
    parts shrunk by the common factor that keeps the total at one."""
    x1 = cfit.baseline.part(cfit.pivot)
    s = r * x1 / (1.0 - x1)
    parts = cfit.baseline.array().copy()
    pidx = cfit.baseline.labels.index(cfit.pivot)
    parts *= (1.0 - s)
    parts[pidx] = x1 * (1.0 + r)
    return comp.closure_values(parts, cfit.baseline.labels)


@dataclass(frozen=True)
class ReallocationCurve:
    behavior: str
    delta_minutes: np.ndarray
    estimate: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray


def reallocation_curve_proportional(cfit: CodaFit, behavior: str,
                                    deltas: np.ndarray) -> ReallocationCurve:
    """One-vs-remaining effect over a grid of signed minute reallocations."""
    if behavior != cfit.pivot:
        raise CodaError(
            f"fit pivot is {cfit.pivot!r}; refit with pivot={behavior!r}")
    base_min = cfit.baseline.part(behavior) * DEFAULT_DAY_MINUTES
    deltas = np.asarray(deltas, dtype=float)
    e = one_vs_remaining_effect(cfit, deltas / base_min)
    return ReallocationCurve(behavior, deltas, e.estimate, e.ci_low, e.ci_high)


def pairwise_reallocation(cfit: CodaFit, from_: str, to: str,
                          delta_minutes: float | np.ndarray) -> Estimate:
    """Effect of moving ``delta_minutes`` from one behavior to another,
    starting from the baseline composition.  ``delta_minutes`` may be an
    array, which gives array fields; a zero move has exactly zero effect."""
    if from_ == to:
        raise CodaError("source and destination behavior must differ")
    deltas = np.asarray(delta_minutes, dtype=float)
    minutes = cfit.baseline.array() * DEFAULT_DAY_MINUTES
    labels = cfit.baseline.labels
    for lab in (from_, to):
        if lab not in labels:
            raise CodaError(f"unknown behavior {lab!r}")
    i_from, i_to = labels.index(from_), labels.index(to)
    if np.any(deltas >= minutes[i_from]):
        raise CodaError(
            f"cannot move {deltas.max()} min out of {from_!r} "
            f"({minutes[i_from]:.1f} min at baseline)")
    if np.any(-deltas >= minutes[i_to]):
        raise CodaError(f"reverse move would drive {to!r} nonpositive")
    moved = np.tile(minutes, deltas.shape + (1,))
    moved[..., i_from] -= deltas
    moved[..., i_to] += deltas
    moved /= moved.sum(axis=-1, keepdims=True)
    w = _ilr_contrast(cfit, cfit.baseline.array(), moved,
                      ("baseline", "reallocated"))
    w[deltas == 0] = 0.0
    return linear_combination(cfit.fit, w)


def composition_contrast(cfit: CodaFit, xa: Composition, xb: Composition,
                         warn_extrapolation: bool = True) -> Estimate:
    """Predicted outcome difference between two compositions (xb minus xa),
    via the ilr-coordinate coefficients."""
    if xa.labels != cfit.basis.labels or xb.labels != cfit.basis.labels:
        raise CodaError("composition labels do not match the fitted basis")
    w = _ilr_contrast(cfit, xa.array(), xb.array(), ("first", "second"),
                      warn_extrapolation)
    return linear_combination(cfit.fit, w)


def _ilr_contrast(cfit: CodaFit, xa: np.ndarray, xb: np.ndarray,
                  names: tuple[str, str], warn: bool = True) -> np.ndarray:
    """Weights on ``cfit``'s coefficients whose combination is the predicted
    outcome at the closed parts ``xb`` (one composition, or an array of them
    along the leading axes) minus that at ``xa``: the ilr coordinate shift
    ``zb - za``.  Warns, naming each composition by ``names``, when it lies
    outside the observed coordinate range, where the contrast extrapolates.
    """
    d = cfit.basis.D
    za = ilr_array(xa.reshape(-1, d), cfit.basis)
    zb = ilr_array(xb.reshape(-1, d), cfit.basis)
    if warn:
        for name, z in zip(names, (za, zb)):
            if np.any(z < cfit.coord_min) or np.any(z > cfit.coord_max):
                warnings.warn(
                    f"{name} composition lies outside the observed coordinate "
                    "range; the contrast extrapolates", stacklevel=3)
    w = np.zeros(xb.shape[:-1] + (cfit.fit.p,))
    w[..., 1:1 + cfit.n_coords] = (zb - za).reshape(xb.shape[:-1] + (-1,))
    return w
