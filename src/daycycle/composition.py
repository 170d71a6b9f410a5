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

    @property
    def D(self) -> int:
        return len(self.parts)

    def array(self) -> np.ndarray:
        return np.asarray(self.parts, dtype=float)

    def part(self, label: str) -> float:
        try:
            return self.parts[self.labels.index(label)]
        except ValueError:
            raise CompositionError(f"unknown label {label!r}") from None

    def subcomposition(self, labels: tuple[str, ...]) -> "Composition":
        vals = [self.part(lab) for lab in labels]
        return closure_values(vals, labels)


@dataclass(frozen=True)
class RawTimeVector:
    """Durations in minutes/day, one per behavior; total need not be 1440."""

    minutes: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.minutes) != len(self.labels):
            raise CompositionError("minutes and labels must have equal length")
        if any(m < 0 for m in self.minutes):
            raise CompositionError("minutes must be nonnegative")
        if sum(self.minutes) <= 0:
            raise CompositionError("total minutes must be positive")

    @property
    def total(self) -> float:
        return math.fsum(self.minutes)

    def array(self) -> np.ndarray:
        return np.asarray(self.minutes, dtype=float)


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


def closure(raw: RawTimeVector) -> Composition:
    """Close a raw time vector onto the simplex."""
    return closure_values(raw.minutes, raw.labels)


def perturb(x: Composition, y: Composition) -> Composition:
    """Simplex addition: closure of the componentwise product."""
    _check_labels(x, y)
    return closure_values(x.array() * y.array(), x.labels)


def inverse(x: Composition) -> Composition:
    """Perturbation inverse: closure of componentwise reciprocals."""
    return closure_values(1.0 / x.array(), x.labels)


def perturb_difference(x: Composition, y: Composition) -> Composition:
    """The change from x to y, i.e. y with x perturbation-subtracted."""
    _check_labels(x, y)
    return closure_values(y.array() / x.array(), x.labels)


def power(a: float, x: Composition) -> Composition:
    """Simplex scalar multiplication: closure of componentwise a-th powers."""
    return closure_values(np.exp(a * np.log(x.array())), x.labels)


def uniform(labels) -> Composition:
    labels = tuple(labels)
    d = len(labels)
    return Composition((1.0 / d,) * d, labels)


def compositional_mean(samples: list[Composition] | np.ndarray,
                       labels: tuple[str, ...] | None = None) -> Composition:
    """Center of a sample: closure of per-part geometric means (in log space).

    ``samples`` is a list of compositions or an (N, D) array with one
    composition per row, whose part ``labels`` must then be given.
    """
    if isinstance(samples, np.ndarray):
        if labels is None:
            raise CompositionError("an array sample needs its part labels")
        parts = samples
        labels = tuple(labels)
        if parts.ndim != 2 or parts.shape[1] != len(labels):
            raise CompositionError(
                f"sample must be an (N, {len(labels)}) array; got {parts.shape}")
        if not np.all(parts > 0):
            raise CompositionError("all parts must be strictly positive")
    else:
        for s in samples:
            _check_labels(samples[0], s)
        labels = samples[0].labels if samples else None
        parts = np.array([s.parts for s in samples])
    if len(parts) == 0:
        raise CompositionError("empty sample")
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
class VariationMatrix:
    entries: np.ndarray
    labels: tuple[str, ...]


def variation_matrix(samples: list[Composition]) -> VariationMatrix:
    """Pairwise SDs of log-ratios between parts; zero diagonal, symmetric."""
    if len(samples) < 2:
        raise CompositionError("variation matrix needs at least 2 samples")
    labels = samples[0].labels
    logs = np.log(np.array([s.array() for s in samples]))
    d = len(labels)
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            sd = np.std(logs[:, i] - logs[:, j], ddof=1)
            out[i, j] = out[j, i] = sd
    return VariationMatrix(out, labels)


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
        V = np.zeros((d, d - 1))
        for k, row in enumerate(tab):
            r = int((row == 1).sum())
            s = int((row == -1).sum())
            coef = math.sqrt(r * s / (r + s))
            V[row == 1, k] = coef / r
            V[row == -1, k] = -coef / s
        if np.abs(V.T @ V - np.eye(d - 1)).max() > 1e-10:
            raise CompositionError("partition does not yield an orthonormal basis")
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


def replace_zeros(raw: RawTimeVector, floor: float) -> RawTimeVector:
    """Replace zero durations with ``floor`` minutes, preserving the total.

    Nonzero parts are shrunk proportionally so the vector total is unchanged.
    """
    vals = raw.array()
    zero = vals == 0
    if not zero.any():
        return raw
    if zero.all():
        raise CompositionError("all-zero vector cannot be repaired")
    added = float(floor) * zero.sum()
    total = vals.sum()
    if added >= total:
        raise CompositionError("floor values exceed the vector total")
    out = vals * ((total - added) / total)
    out[zero] = floor
    return RawTimeVector(tuple(out), raw.labels)


def ternary_coords(x: Composition) -> tuple[float, float]:
    """Barycentric-to-Cartesian map onto the unit triangle.

    The three vertices map to (0, 0), (1, 0), and (0.5, sqrt(3)/2) in part
    order.
    """
    if x.D != 3:
        raise CompositionError("ternary coordinates require a 3-part composition")
    a, b, c = x.parts
    return (b + 0.5 * c, (math.sqrt(3) / 2) * c)
