"""Synthetic cohort generator.

The default specification is calibrated to the published profile-specific
means, SDs, and correlations for the (sit, stand, step) day proportions of a
four-profile older-adult cohort; sleep is the simplex remainder.  Everything
is reproducible from the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from datetime import datetime, timedelta

import numpy as np

from .cohort import COVARIATE_COLUMNS, CohortTable
from .ingest import DayRecord


class SimulationError(ValueError):
    pass


@dataclass
class SimSpec:
    """Generator configuration: mixture over (sit, stand, step) proportions,
    day-length distribution, covariate laws, and a linear outcome model."""

    class_weights: list[float]
    class_means: list[list[float]]  # proportions of the day, (sit, stand, step)
    class_covs: list[list[list[float]]]
    day_length_mean: float = 1440.0
    day_length_sd: float = 7.0
    age_probs: list[float] = field(default_factory=lambda: [0.419, 0.411, 0.170])
    p_female: float = 0.558
    p_nonwhite: float = 0.100
    education_mean: float = 16.8
    education_sd: float = 2.8
    bmi_mean: float = 27.1
    bmi_sd: float = 4.9
    cesd_mean: float = 3.6
    cesd_sd: float = 3.9
    p_fair_poor_health: float = 0.079
    outcome_intercept: float = 0.6
    class_effects: list[float] = field(
        default_factory=lambda: [0.0, 0.02, 0.0, -0.17])
    covariate_effects: dict[str, float] = field(default_factory=lambda: {
        "age_75_84": -0.10, "age_85p": -0.30, "female": 0.05,
        "nonwhite": -0.05, "education_years": 0.02, "bmi": -0.005,
        "cesd": -0.01, "fair_poor_health": -0.10,
    })
    outcome_noise_sd: float = 0.6
    missing_covariate_rate: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SimSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SimulationError(f"spec is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise SimulationError("spec must be a JSON object")
        try:
            spec = cls(**data)
        except TypeError as exc:  # an unknown or a missing key
            raise SimulationError(f"bad spec: {exc}") from None
        spec._check_values()
        return spec

    def _check_values(self) -> None:
        """Raise ``SimulationError`` naming the first field whose value has
        the wrong type or shape for K classes over (sit, stand, step)."""
        if not isinstance(self.class_weights, list) or not self.class_weights:
            raise SimulationError("bad spec: class_weights must be a "
                                  "non-empty list of numbers")
        K = len(self.class_weights)
        shapes = {"class_weights": (K,), "class_means": (K, 3),
                  "class_covs": (K, 3, 3), "class_effects": (K,),
                  "age_probs": (3,)}
        for name, value in asdict(self).items():
            if name == "covariate_effects":
                continue
            try:
                arr = np.array(value)
            except ValueError:  # ragged nesting
                arr = None
            want = shapes.get(name, ())
            if arr is None or arr.shape != want or arr.dtype.kind not in "iuf":
                raise SimulationError(
                    f"bad spec: {name} must be "
                    + (f"an array of numbers of shape {want}" if want
                       else "a number"))
        effects = self.covariate_effects
        if not isinstance(effects, dict):
            raise SimulationError("bad spec: covariate_effects must be an "
                                  "object")
        for name, value in effects.items():
            if name not in COVARIATE_COLUMNS:
                raise SimulationError(
                    f"bad spec: unknown covariate {name!r} in "
                    f"covariate_effects; expected one of "
                    f"{', '.join(COVARIATE_COLUMNS)}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SimulationError(f"bad spec: covariate_effects[{name!r}]"
                                      " must be a number")


def _hours_to_spec(means_h, sds_h, corrs) -> tuple[list, list]:
    """Convert hours/day means, SDs, and (sit-stand, sit-step, stand-step)
    correlations into proportion-scale means and covariance matrices."""
    means, covs = [], []
    for m, s, c in zip(means_h, sds_h, corrs):
        mu = [v / 24.0 for v in m]
        sd = np.array(s) / 24.0
        R = np.array([
            [1.0, c[0], c[1]],
            [c[0], 1.0, c[2]],
            [c[1], c[2], 1.0],
        ])
        cov = R * np.outer(sd, sd)
        means.append(mu)
        covs.append(cov.tolist())
    return means, covs


def default_sim_spec() -> SimSpec:
    means, covs = _hours_to_spec(
        means_h=[[7.6, 5.8, 1.9], [9.6, 4.7, 1.7],
                 [10.3, 3.5, 1.3], [12.1, 2.4, 0.7]],
        sds_h=[[1.4, 1.8, 0.8], [1.6, 1.1, 0.5],
               [1.3, 0.9, 0.4], [1.7, 1.0, 0.3]],
        corrs=[[-0.8, -0.1, -0.2], [-0.7, -0.3, -0.2],
               [-0.8, -0.5, 0.3], [-0.6, -0.4, 0.7]],
    )
    return SimSpec(
        class_weights=[0.159, 0.244, 0.403, 0.194],
        class_means=means,
        class_covs=covs,
    )


@dataclass
class SimResult:
    cohort: CohortTable
    classes: np.ndarray  # true latent class per person
    spec: SimSpec


def _draw_truncated(rng, mean, cov, size) -> np.ndarray:
    """Draw (sit, stand, step) proportions restricted to the open simplex
    interior (all parts and the sleep remainder strictly positive)."""
    out = np.empty((size, 3))
    filled = 0
    attempts = 0
    while filled < size:
        need = size - filled
        draw = rng.multivariate_normal(mean, cov, size=max(need * 2, 16))
        ok = (draw > 0).all(axis=1) & (draw.sum(axis=1) < 1)
        good = draw[ok][:need]
        out[filled:filled + good.shape[0]] = good
        filled += good.shape[0]
        attempts += draw.shape[0]
        if attempts > 100 * size and filled < 0.01 * attempts:
            raise SimulationError("rejection rate above 99%; spec infeasible")
    return out


def simulate_cohort(spec: SimSpec, n: int, seed: int = 0) -> SimResult:
    rng = np.random.default_rng(seed)
    weights = np.asarray(spec.class_weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-9 or (weights <= 0).any():
        raise SimulationError("class weights must be positive and sum to 1")
    classes = rng.choice(len(weights), size=n, p=weights)
    props = np.empty((n, 4))
    for k in range(len(weights)):
        idx = np.flatnonzero(classes == k)
        if idx.size == 0:
            continue
        draw = _draw_truncated(rng, np.asarray(spec.class_means[k]),
                               np.asarray(spec.class_covs[k]), idx.size)
        props[idx, :3] = draw
        props[idx, 3] = 1.0 - draw.sum(axis=1)
    total = rng.normal(spec.day_length_mean, spec.day_length_sd, size=n)
    behaviors = props * total[:, None]

    age_cat = rng.choice(3, size=n, p=np.asarray(spec.age_probs))
    covariates = {
        "age_75_84": (age_cat == 1).astype(float),
        "age_85p": (age_cat == 2).astype(float),
        "female": rng.binomial(1, spec.p_female, n).astype(float),
        "nonwhite": rng.binomial(1, spec.p_nonwhite, n).astype(float),
        "education_years": rng.normal(spec.education_mean, spec.education_sd, n),
        "bmi": rng.normal(spec.bmi_mean, spec.bmi_sd, n),
        "cesd": np.abs(rng.normal(spec.cesd_mean, spec.cesd_sd, n)),
        "fair_poor_health": rng.binomial(1, spec.p_fair_poor_health, n).astype(float),
    }
    y = np.full(n, spec.outcome_intercept)
    y += np.asarray(spec.class_effects)[classes]
    # in column order, not the dict's: a spec read back from JSON has its
    # keys sorted, and the sum's order changes its last digits
    for name in COVARIATE_COLUMNS:
        if name in spec.covariate_effects:
            y += spec.covariate_effects[name] * covariates[name]
    y += rng.normal(0.0, spec.outcome_noise_sd, n)

    if spec.missing_covariate_rate > 0:
        for name in covariates:
            miss = rng.random(n) < spec.missing_covariate_rate
            covariates[name] = np.where(miss, np.nan, covariates[name])

    width = len(str(n))
    ids = [f"p{i:0{width}d}" for i in range(1, n + 1)]
    cohort = CohortTable(
        ids=ids,
        behaviors=behaviors,
        total=total,
        covariates=covariates,
        outcome=y,
        valid_days=np.full(n, 7, dtype=int),
    )
    return SimResult(cohort, classes, spec)


_DAY_ONE = datetime(2024, 1, 1, 7, 0)  # the first simulated day wakes here
# the latest a simulated day may end, in minutes from _DAY_ONE (one minute
# short of datetime.max, which the microsecond rounding cannot cross)
_MAX_END_MINUTES = (datetime.max - _DAY_ONE) / timedelta(minutes=1) - 1.0


def _timedelta_us(minutes: np.ndarray) -> np.ndarray:
    """``timedelta(minutes=m)`` as whole microseconds, for each m.

    This is CPython's rounding: the whole minutes convert exactly, the
    fraction's microseconds are truncated, and what is left over rounds half
    to even on the total.
    """
    frac, whole = np.modf(minutes)
    left, frac_us = np.modf(frac * 60_000_000.0)
    us = whole.astype(np.int64) * 60_000_000 + frac_us.astype(np.int64)
    odd_tie = (np.abs(left) == 0.5) & (us % 2 == 1)
    return us + np.where(odd_tie, np.sign(left),
                         np.round(left)).astype(np.int64)


def simulate_day_records(cohort: CohortTable, seed: int = 0,
                         n_days: int = 7) -> list[DayRecord]:
    """Expand person means into plausible day records for ingestion tests.

    Each day scales a person's four mean minutes by normal noise (mean 1, SD
    0.05, four draws per day in person-then-day order), floors them at one
    minute, and lays the waking minutes from 07:00 and then sleep.
    """
    if not np.isfinite(cohort.behaviors).all():
        raise SimulationError("behavior times must be finite")
    rng = np.random.default_rng(seed)
    noise = rng.normal(1.0, 0.05, (cohort.n * n_days, 4))
    minutes = np.maximum(np.repeat(cohort.behaviors, n_days, axis=0) * noise,
                         1.0)
    sit, stand, step, sleep = minutes.T
    wear = sit + stand + step
    # datetime64 reaches far past datetime.max, where tolist() gives ints
    last_end = (wear + sleep).max(initial=0.0) + 1440.0 * (n_days - 1)
    if last_end > _MAX_END_MINUTES:
        raise SimulationError("behavior times too long for day records")
    wake_start = (np.datetime64(_DAY_ONE, "us")
                  + np.tile(np.arange(n_days) * 86_400_000_000, cohort.n))
    in_bed = wake_start + _timedelta_us(wear)
    out_bed = in_bed + _timedelta_us(sleep)
    dates = [(_DAY_ONE + timedelta(days=day)).date().isoformat()
             for day in range(n_days)]
    return list(map(
        DayRecord,
        [pid for pid in cohort.ids for _ in range(n_days)],
        dates * cohort.n,
        sit.tolist(), stand.tolist(), step.tolist(),
        in_bed.tolist(), out_bed.tolist(), wear.tolist()))
