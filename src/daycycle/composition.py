"""Simplex algebra and isometric log-ratio transforms for activity compositions.

A composition is a vector of strictly positive parts summing to one, e.g. the
fractions of a day spent sitting, standing, stepping, and sleeping.  The
simplex carries its own vector-space structure (perturbation and power
operations) and the ilr transform maps it isometrically onto ordinary
Euclidean space, where standard statistics apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SUM_TOL = 1e-12

CANONICAL_LABELS = ("sit", "stand", "step", "sleep")


class CompositionError(ValueError):
    """Invalid compositional input (zeros, label mismatch, bad partition)."""


def _check_labels(x: "Composition", y: "Composition") -> None:
    if x.labels != y.labels:
        raise CompositionError(f"label mismatch: {x.labels} vs {y.labels}")


@dataclass(frozen=True)
class Composition:
    """Point on the D-part simplex with behavior labels."""

    parts: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise CompositionError("a composition needs at least 2 parts")
        if len(self.parts) != len(self.labels):
            raise CompositionError("parts and labels must have equal length")
        if any(p <= 0 for p in self.parts):
            raise CompositionError(
                "all parts must be strictly positive; apply replace_zeros first"
            )
        if abs(math.fsum(self.parts) - 1.0) > SUM_TOL:
            raise CompositionError(
                f"parts must sum to 1 within {SUM_TOL}; got {math.fsum(self.parts)!r}"
            )

    def array(self) -> np.ndarray:
        return np.asarray(self.parts, dtype=float)

    def part(self, label: str) -> float:
        try:
            return self.parts[self.labels.index(label)]
        except ValueError:
            raise CompositionError(f"unknown label {label!r}") from None


def closure_values(values, labels) -> Composition:
    """Rescale positive values to sum to 1."""
    vals = np.asarray(values, dtype=float)
    total = vals.sum()
    if total <= 0:
        raise CompositionError("cannot close a vector with nonpositive total")
    if np.any(vals == 0):
        raise CompositionError("zero part; apply replace_zeros before closure")
    if np.any(vals < 0):
        raise CompositionError("negative part")
    return Composition(tuple(vals / total), tuple(labels))


def perturb(x: Composition, y: Composition) -> Composition:
    """Simplex addition: closure of the componentwise product."""
    _check_labels(x, y)
    return closure_values(x.array() * y.array(), x.labels)


def inverse(x: Composition) -> Composition:
    """Perturbation inverse: closure of componentwise reciprocals."""
    return closure_values(1.0 / x.array(), x.labels)


def power(a: float, x: Composition) -> Composition:
    """Simplex scalar multiplication: closure of componentwise a-th powers."""
    return closure_values(np.exp(a * np.log(x.array())), x.labels)


def uniform(labels) -> Composition:
    labels = tuple(labels)
    d = len(labels)
    return Composition((1.0 / d,) * d, labels)


def _checked_sample(parts: np.ndarray, labels) -> tuple[str, ...]:
    """The labels of a sample, once ``parts`` is an (N, D) array with N >= 1,
    one column per label and every part > 0; CompositionError otherwise."""
    labels = tuple(labels)
    if parts.ndim != 2 or parts.shape[1] != len(labels) or not len(parts):
        raise CompositionError(f"sample must be an (N, {len(labels)}) array "
                               f"with N >= 1; got {parts.shape}")
    if not np.all(parts > 0):
        raise CompositionError("all parts must be strictly positive")
    return labels


def compositional_mean(parts: np.ndarray, labels) -> Composition:
    """Center of the (N, D) sample ``parts`` with columns ``labels``: closure
    of per-part geometric means (in log space)."""
    labels = _checked_sample(parts, labels)
    # Summing over axis 0 adds the rows in order, as a loop over them would.
    logs = np.log(parts).sum(axis=0) / len(parts)
    return closure_values(np.exp(logs - logs.max()), labels)


def _clr(x: Composition) -> np.ndarray:
    lx = np.log(x.array())
    return lx - lx.mean()


def aitchison_distance(x: Composition, y: Composition) -> float:
    """Distance on the simplex; equals the Euclidean distance of ilr images."""
    _check_labels(x, y)
    return float(np.linalg.norm(_clr(x) - _clr(y)))


@dataclass(frozen=True)
class SBPartition:
    """Sequential binary partition defining an ilr basis.

    ``table`` is a (D-1) x D sign matrix with entries in {+1, -1, 0}: row k
    puts its ``+`` group in the numerator and its ``-`` group in the
    denominator of the k-th log-ratio coordinate.
    """

    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    contrast: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = len(self.labels)
        tab = np.asarray(self.table, dtype=int)
        if tab.shape != (d - 1, d):
            raise CompositionError(f"partition table must be {(d - 1, d)}")
        if not np.isin(tab, (-1, 0, 1)).all():
            raise CompositionError("partition entries must be in {+1, -1, 0}")
        if np.any(tab[0] == 0):
            raise CompositionError("first partition level must involve every part")
        for row in tab:
            if not ((row == 1).any() and (row == -1).any()):
                raise CompositionError("each level needs a + group and a - group")
        # Each level after the first must split exactly one group produced
        # by an earlier level.
        groups = [frozenset(range(d))]
        for row in tab:
            support = frozenset(np.flatnonzero(row != 0))
            if support not in groups:
                raise CompositionError(
                    "each level must split exactly one previously formed group"
                )
            groups.remove(support)
            groups.append(frozenset(np.flatnonzero(row == 1)))
            groups.append(frozenset(np.flatnonzero(row == -1)))
        # The basis is orthonormal: a column has unit norm, since
        # c^2 (1/r + 1/s) = 1, and two columns' supports are nested or disjoint.
        V = np.zeros((d, d - 1))
        for k, row in enumerate(tab):
            r = int((row == 1).sum())
            s = int((row == -1).sum())
            coef = math.sqrt(r * s / (r + s))
            V[row == 1, k] = coef / r
            V[row == -1, k] = -coef / s
        object.__setattr__(self, "contrast", V)

    @property
    def D(self) -> int:
        return len(self.labels)


def pivot_basis(numerator: str, labels) -> SBPartition:
    """Pivot partition with the chosen behavior first.

    Level k places the k-th behavior (in the order: numerator first, then the
    remaining labels in their given order) against the geometric mean of all
    behaviors after it.
    """
    labels = tuple(labels)
    if numerator not in labels:
        raise CompositionError(f"unknown label {numerator!r}")
    order = [labels.index(numerator)] + [
        i for i, lab in enumerate(labels) if lab != numerator
    ]
    d = len(labels)
    table = []
    for k in range(d - 1):
        row = [0] * d
        row[order[k]] = 1
        for j in order[k + 1:]:
            row[j] = -1
        table.append(tuple(row))
    return SBPartition(tuple(table), labels)


@dataclass(frozen=True)
class IlrVector:
    coords: tuple[float, ...]
    basis: SBPartition

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


def ilr(x: Composition, basis: SBPartition) -> IlrVector:
    """Isometric log-ratio coordinates of ``x`` under ``basis``."""
    if x.labels != basis.labels:
        raise CompositionError("composition labels do not match the basis")
    z = basis.contrast.T @ np.log(x.array())
    return IlrVector(tuple(z), basis)


def ilr_array(parts: np.ndarray, basis: SBPartition) -> np.ndarray:
    """Vectorized ilr for an N x D array of compositions (rows sum to 1)."""
    return np.log(parts) @ basis.contrast


def ilr_inverse(v: IlrVector | np.ndarray, basis: SBPartition) -> Composition:
    """Map ilr coordinates back onto the simplex."""
    z = v.array() if isinstance(v, IlrVector) else np.asarray(v, dtype=float)
    if z.shape != (basis.D - 1,):
        raise CompositionError("coordinate dimension does not match the basis")
    logx = basis.contrast @ z
    return closure_values(np.exp(logx - logx.max()), basis.labels)


def replace_zeros(minutes: np.ndarray, floor: float) -> np.ndarray:
    """A copy of the (N, D) ``minutes`` with ``floor`` in place of each zero
    and the other parts of its row shrunk to keep the row total (a row
    without a zero is multiplied by exactly 1.0).  A non-finite or negative
    cell, or a row whose floors reach its total, raises CompositionError.
    """
    minutes = np.asarray(minutes, dtype=float)
    if not (np.isfinite(minutes) & (minutes >= 0)).all():
        raise CompositionError("minutes must be finite and nonnegative")
    zero = minutes == 0
    added = float(floor) * zero.sum(axis=1, keepdims=True)
    total = minutes.sum(axis=1, keepdims=True)
    if (added >= total).any():
        raise CompositionError("floor values reach the row total")
    # where=: no NaN from inf / inf in a zero-free row whose total overflows
    out = minutes * np.divide(total - added, total, out=np.ones_like(total),
                              where=added > 0)
    out[zero] = floor
    return out
