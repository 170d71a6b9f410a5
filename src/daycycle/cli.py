"""Command-line surface for the analysis pipelines.

Every subcommand is deterministic given its input bytes and flags (only
``lpa`` and ``simulate`` take a ``--seed``).  Its
``cmd_*`` returns every output as ``{path: text}`` and only ``main`` writes
them, atomically, so a failed run writes nothing.  Exit codes: 0 success, 1
usage error, 2 data or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import coda, ingest, ism, lpa, plotting, simulate, step3
from .cohort import (
    BEHAVIOR_LABELS,
    COVARIATE_COLUMNS,
    CohortError,
    CohortTable,
    cohort_csv_text,
    complete_case,
    format_number,
    load_cohort_csv,
)
from .composition import CompositionError
from .ingest import IngestError
from .linmod import LinmodError, RankDeficientError, normal_sf
from .lpa import ConvergenceError, LpaError, WorkerError
from .simulate import SimulationError
from .step3 import Step3Error

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DATA_ERRORS = (CohortError, IngestError, CompositionError, LpaError,
               SimulationError, Step3Error, coda.CodaError, ism.IsmError,
               LinmodError, OSError)
# a dead EM worker or a count too large to allocate: the input was valid,
# but a fit could not be computed
NUMERIC_ERRORS = (RankDeficientError, ConvergenceError, WorkerError,
                  np.linalg.LinAlgError, FloatingPointError, MemoryError)

# 10^5 points span a day either way in 0.03-minute steps; at about 66 us and
# 130 output bytes per point, a finer grid only exhausts time and memory.
MAX_GRID_POINTS = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(path: str, obj) -> str:
    """``obj`` as the JSON text of output ``path``.  Strict JSON has no NaN
    or infinity, so one in ``obj`` is a numerical failure naming ``path``."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError:
        raise FloatingPointError(
            f"{path} would hold a number that is not finite") from None


def _csv_text(header: list[str], rows) -> str:
    """CSV text in which every cell that is not a string is a number (or
    None) written by ``format_number``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([c if isinstance(c, str) else format_number(c) for c in row]
                for row in rows)
    return buf.getvalue()


def _records(stem: str, fields: list[str], rows: list) -> dict[str, str]:
    """One table as ``stem.json`` (a list of records) and ``stem.csv``."""
    path = f"{stem}.json"
    return {path: _json_text(path, [dict(zip(fields, r)) for r in rows]),
            f"{stem}.csv": _csv_text(fields, rows)}


def _check_dir(path: str, what: str) -> None:
    """A usage error unless ``path`` is a directory or can be made one (its
    nearest existing ancestor is a directory)."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise UsageError(f"{what} {path!r}: {head} is not a directory")


def _check_finite(flag: str, value: float | None) -> None:
    """A usage error for a numeric flag set to nan or an infinity."""
    if value is not None and not math.isfinite(value):
        raise UsageError(f"{flag} must be a finite number; got {value}")


def _out_path(args):
    """The path of a named output in the output directory, which is checked
    here, before any input is read."""
    out = args.out or os.environ.get("DAYCYCLE_OUT", ".")
    _check_dir(out, "-o" if args.out else "$DAYCYCLE_OUT")
    return lambda name: os.path.join(out, name)


def _read_text(path: str, error: type[Exception]) -> str:
    """The text of a UTF-8 file; other bytes raise ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text ({exc.reason})") from None


def _complete_cases(cohort: CohortTable, covariates) -> CohortTable:
    cohort, _ = complete_case(cohort, list(covariates))
    if cohort.n == 0:
        raise CohortError("no complete cases remain")
    return cohort


def _load(args) -> CohortTable:
    return _complete_cases(load_cohort_csv(args.input), args.covariates)


def _add_common(p, covariates=True):
    p.add_argument("input", help="person-level cohort CSV")
    p.add_argument("-o", "--out", default=None,
                   help="output directory (default $DAYCYCLE_OUT or .)")
    if covariates:
        p.add_argument("--covariates", nargs="*", default=list(COVARIATE_COLUMNS))


def cmd_describe(args) -> dict[str, str]:
    out = _out_path(args)
    cohort = load_cohort_csv(args.input)
    report = ingest.describe(cohort)
    files = {}
    if args.format in ("json", "both"):
        path = out("describe.json")
        files[path] = _json_text(path, report)
    if args.format in ("csv", "both"):
        med, lo, hi = report["total_min_median_iqr"]
        rows = [["n", report["n"]]]
        for group in (report["behaviors_hours_per_day"],
                      {"total_min": {"median": med, "q25": lo, "q75": hi}},
                      report["continuous"], report["categorical"],
                      {"outcome": report["outcome"]}):
            rows += [[f"{name}_{key}", value]
                     for name, fields in group.items()
                     for key, value in fields.items()]
        files[out("describe.csv")] = _csv_text(["field", "value"], rows)
    return files


def _table_cells(tab: ism.SubstitutionTable):
    """(from, to, estimate, ci_low, ci_high) for each off-diagonal cell."""
    for i, a in enumerate(tab.labels):
        for j, b in enumerate(tab.labels):
            if i != j:
                yield (a, b, tab.estimate[i, j], tab.ci_low[i, j],
                       tab.ci_high[i, j])


def _table_payload(tab: ism.SubstitutionTable) -> dict:
    cells = {f"{a}->{b}": {"estimate": e, "ci_low": lo, "ci_high": hi}
             for a, b, e, lo, hi in _table_cells(tab)}
    return {"labels": list(tab.labels), "minutes": tab.minutes, "n": tab.n,
            "cells": cells}


def cmd_ism(args) -> dict[str, str]:
    _check_finite("--minutes", args.minutes)
    if abs(args.minutes) > coda.DEFAULT_DAY_MINUTES:
        raise UsageError(f"--minutes must lie within one day (+-"
                         f"{coda.DEFAULT_DAY_MINUTES:g}); got {args.minutes:g}")
    _check_finite("--subgroup-step-cut", args.subgroup_step_cut)
    out = _out_path(args)
    cohort = _load(args)
    subgroups = {"overall": None}
    if args.subgroup_step_cut is not None:
        cut = args.subgroup_step_cut
        step = cohort.behavior("step")
        above, below = step > cut, step <= cut
        subgroups[f"step_gt_{cut:g}"] = above
        subgroups[f"step_le_{cut:g}"] = below
        if not (above.any() and below.any()):
            raise UsageError(
                f"--subgroup-step-cut {cut:g} leaves a subgroup empty: step "
                f"minutes/day run from {step.min():g} to {step.max():g}")
    tables = {name: ism.substitution_table(cohort, args.covariates,
                                           minutes=args.minutes, subgroup=mask)
              for name, mask in subgroups.items()}
    path = out("ism_table.json")
    files = {path: _json_text(
        path, {name: _table_payload(t) for name, t in tables.items()})}
    for name, t in tables.items():
        files[out(f"ism_table_{name}.csv")] = _csv_text(
            ["from", "to", "estimate", "ci_low", "ci_high"], _table_cells(t))
    if args.flexible:
        flex = ism.fit_flexible_ism(cohort, args.covariates,
                                    dropped=args.dropped)
        path = out("ism_flexible.json")
        files[path] = _json_text(path, {
            "dropped": flex.dropped,
            "selected_knots": flex.n_knots,
            "gcv_by_knots": {str(k): v for k, v in flex.gcv_by_knots.items()},
            "behavior_wald_p": {b: t.p_value
                                for b, t in flex.behavior_tests.items()},
        })
    return files


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, by = (float(v) for v in spec.split(":"))
    except ValueError:
        raise UsageError(f"bad --delta-grid {spec!r}; expected lo:hi:step")
    if not math.isfinite(lo + hi + by) or by <= 0 or hi < lo:
        raise UsageError("delta grid needs finite lo <= hi and step > 0")
    # np.arange's point count, before it allocates; inf on overflow
    if (hi + by / 2 - lo) / by > MAX_GRID_POINTS:
        raise UsageError(f"delta grid {spec!r} has more than "
                         f"{MAX_GRID_POINTS} points")
    return np.arange(lo, hi + by / 2, by)


def _realloc_curve(cohort: CohortTable, pivot: str, covariates,
                   deltas: np.ndarray):
    """Complete cases on ``covariates``, one CoDA fit with ``pivot`` first,
    and its one-vs-remaining curve, as arrays and as an SVG."""
    cohort = _complete_cases(cohort, covariates)
    cfit = coda.fit_coda(cohort, pivot, list(covariates))
    curve = coda.reallocation_curve_proportional(cfit, pivot, deltas)
    svg = plotting.curve_svg(curve.delta_minutes, curve.estimate,
                             curve.ci_low, curve.ci_high,
                             title=f"{pivot} vs remaining")
    return cfit, curve, svg


def cmd_coda(args) -> dict[str, str]:
    deltas = _parse_grid(args.delta_grid)
    _check_finite("--pairwise-minutes", args.pairwise_minutes)
    out = _out_path(args)
    cfit, curve, svg = _realloc_curve(load_cohort_csv(args.input), args.pivot,
                                      args.covariates, deltas)
    piv = coda.pivot_coefficients(cfit)
    p_values = 2 * normal_sf(np.abs(piv.estimate / piv.se))
    fields = ["pivot", "estimate", "ci_low", "ci_high", "p_value"]
    table_rows = list(zip(cfit.basis.labels, piv.estimate, piv.ci_low,
                          piv.ci_high, p_values))
    files = _records(out("coda_pivots"), fields, table_rows)
    files[out(f"coda_curve_{args.pivot}.csv")] = _csv_text(
        ["delta_min", "estimate", "ci_low", "ci_high"],
        zip(curve.delta_minutes, curve.estimate, curve.ci_low, curve.ci_high))
    files[out(f"coda_curve_{args.pivot}.svg")] = svg
    if args.pairwise:
        pairwise = []
        for other in cfit.basis.labels:
            if other != args.pivot:
                e = coda.pairwise_reallocation(cfit, other, args.pivot,
                                               args.pairwise_minutes)
                pairwise.append([other, args.pivot, e.estimate, e.ci_low,
                                 e.ci_high])
        files[out("coda_pairwise.csv")] = _csv_text(
            ["from", "to", "estimate", "ci_low", "ci_high"], pairwise)
    return files


def _lpa_matrix(cohort: CohortTable) -> tuple[np.ndarray, tuple[str, ...]]:
    """Indicator matrix for LPA: sit/stand/step as proportions of the day,
    sleep dropped."""
    labels = ("sit", "stand", "step")
    mat = np.column_stack([cohort.behavior(b) for b in labels])
    return mat / cohort.total[:, None], labels


def _classify(model_path: str, cohort: CohortTable):
    """The mixture model artifact at ``model_path``, and each person's
    posterior class probabilities and modal class under it."""
    model = lpa.MixtureModel.from_json(_read_text(model_path, LpaError))
    data, _ = _lpa_matrix(cohort)
    post = lpa.posterior(model, data)
    return model, post, lpa.modal_assignment(post)


def cmd_lpa(args) -> dict[str, str]:
    try:
        lo, hi = (int(v) for v in args.classes.split(":"))
    except ValueError:
        raise UsageError(f"bad --classes {args.classes!r}; expected lo:hi")
    if not 1 <= lo <= hi:
        raise UsageError(f"bad --classes {args.classes!r}; need 1 <= lo <= hi")
    if min(args.starts, args.max_iter) < 1:
        raise UsageError("--starts and --max-iter must be at least 1")
    if args.blrt and args.blrt_boot < lpa.MIN_BLRT_BOOT:
        raise UsageError(f"--blrt-boot must be at least {lpa.MIN_BLRT_BOOT}")
    if args.blrt and args.blrt_starts < 1:
        raise UsageError("--blrt-starts must be at least 1")
    out = _out_path(args)
    cohort = load_cohort_csv(args.input)
    data, labels = _lpa_matrix(cohort)
    rows, models = lpa.selection_table(
        data, range(lo, hi + 1), structure=args.covariance,
        starts=args.starts, max_iter=args.max_iter, seed=args.seed,
        labels=labels, run_blrt=args.blrt, n_boot=args.blrt_boot,
        starts_boot=args.blrt_starts)
    fields = ["K", "loglik", "AIC", "BIC", "CAIC", "SABIC", "ICL_BIC",
              "entropy", "n_min", "n_min_pct", "n_replicated", "blrt_p",
              "blrt_n_boot_failed", "converged", "n_iter",
              "n_degenerate_starts"]
    table = [(r.K, m.loglik, r.stats.aic, r.stats.bic, r.stats.caic,
              r.stats.sabic, r.stats.icl_bic, r.stats.entropy, r.n_min,
              r.n_min_pct, m.n_replicated, r.blrt_p, r.blrt_n_boot_failed,
              m.converged, m.n_iter, m.n_degenerate_starts)
             for r, (m, _) in zip(rows, models.values())]
    files = _records(out("lpa_selection"), fields, table)
    best_k = min(rows, key=lambda r: r.stats.bic).K
    model, post = models[best_k]
    files[out("lpa_model.json")] = model.to_json()
    assign = lpa.modal_assignment(post)
    D = lpa.classification_error_matrix(post, assign)
    path = out("lpa_error_matrix.json")
    files[path] = _json_text(path, {"selected_K": best_k, "D": D.tolist()})
    path = out("lpa_profiles.json")
    files[path] = _json_text(path, {
        "selected_K": best_k,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "covs": model.covs.tolist(),
        "indicator_labels": list(model.labels),
        "derived_remainder": lpa.derived_sleep_stats(model),
    })
    return files


def cmd_step3(args) -> dict[str, str]:
    out = _out_path(args)
    cohort = _load(args)
    _, post, assign = _classify(args.model, cohort)
    covs = cohort.covariate_matrix(args.covariates)
    results = {}
    for method in dict.fromkeys(("naive", args.method)):
        res = step3.step3_distal(post, assign, cohort.outcome, covs,
                                 method=method)
        results[method] = {
            "reference": res.reference,
            "classes": list(res.classes),
            "coef": res.coef.tolist(),
            "robust_se": res.robust_se.tolist(),
            "labels": list(res.labels),
            "overall_wald": {"statistic": res.overall.statistic,
                             "df": res.overall.df,
                             "p_value": res.overall.p_value},
        }
    ref = results["naive"]["reference"]
    rows = [[f"class_{k}_vs_{ref}"] + [r[field][i] for r in results.values()
                                       for field in ("coef", "robust_se")]
            for i, k in enumerate(results["naive"]["classes"])]
    header = ["contrast"] + [f"{method}_{field}" for method in results
                             for field in ("estimate", "robust_se")]
    path = out("step3_report.json")
    return {path: _json_text(path, results),
            out("step3_report.csv"): _csv_text(header, rows)}


def cmd_simulate(args) -> dict[str, str]:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if os.path.isdir(args.output):
        raise UsageError(f"-o {args.output!r} is a directory")
    _check_dir(os.path.dirname(os.path.abspath(args.output)), "-o")
    if args.spec:
        spec = simulate.SimSpec.from_json(
            _read_text(args.spec, SimulationError))
    else:
        spec = simulate.default_sim_spec()
    result = simulate.simulate_cohort(spec, args.n, seed=args.seed)
    return {args.output: cohort_csv_text(result.cohort)}


def cmd_plot(args) -> dict[str, str]:
    labels = tuple(args.behaviors)
    if args.kind == "ternary" and (len(labels) != 3 or len(set(labels)) < 3):
        raise UsageError("--behaviors needs exactly 3 distinct labels")
    if args.kind == "profiles" and not args.model:
        raise UsageError("--kind profiles requires --model")
    if args.kind == "realloc":
        deltas = _parse_grid(args.delta_grid)
    out = _out_path(args)
    cohort = load_cohort_csv(args.input)
    if args.kind == "ternary":
        svg = plotting.ternary_svg(cohort.compositions(labels=labels),
                                   cohort.outcome, title="-".join(labels))
        name = "ternary.svg"
    elif args.kind == "realloc":
        _, _, svg = _realloc_curve(cohort, args.pivot, COVARIATE_COLUMNS,
                                   deltas)
        name = f"realloc_{args.pivot}.svg"
    else:
        model, _, assign = _classify(args.model, cohort)
        groups = {}
        # model classes are already ordered by mean sitting time
        for k in range(model.K):
            mask = assign == k
            if not mask.any():
                continue
            groups[f"profile_{k + 1}"] = {
                b: cohort.behavior(b)[mask] / 60.0 for b in BEHAVIOR_LABELS}
        svg = plotting.profile_boxplot_svg(groups, title="24HAC profiles")
        name = "profiles.svg"
    return {out(name): svg}


def build_parser() -> _Parser:
    p = _Parser(prog="daycycle",
                description="24-hour activity-cycle analysis pipelines")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("describe", help="cohort descriptive report")
    _add_common(d, covariates=False)
    d.add_argument("--format", choices=("json", "csv", "both"), default="both")
    d.set_defaults(func=cmd_describe)

    i = sub.add_parser("ism", help="isotemporal substitution tables")
    _add_common(i)
    i.add_argument("--minutes", type=float, default=30.0)
    i.add_argument("--subgroup-step-cut", type=float, default=None,
                   help="split on mean step minutes/day (e.g. 60)")
    i.add_argument("--flexible", action="store_true",
                   help="also fit the spline ISM with GCV knot selection")
    i.add_argument("--dropped", default="step", choices=BEHAVIOR_LABELS,
                   help="behavior dropped in the flexible model")
    i.set_defaults(func=cmd_ism)

    c = sub.add_parser("coda", help="compositional regression outputs")
    _add_common(c)
    c.add_argument("--pivot", default="step", choices=BEHAVIOR_LABELS)
    c.add_argument("--delta-grid", default="-30:30:5")
    c.add_argument("--pairwise", action="store_true")
    c.add_argument("--pairwise-minutes", type=float, default=30.0)
    c.set_defaults(func=cmd_coda)

    l = sub.add_parser("lpa", help="latent profile selection and artifacts")
    _add_common(l, covariates=False)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--classes", default="2:6", help="K range lo:hi")
    l.add_argument("--starts", type=int, default=160)
    l.add_argument("--max-iter", type=int, default=250)
    l.add_argument("--covariance", default="free-var-free-cov",
                   choices=lpa.STRUCTURES)
    l.add_argument("--blrt", action="store_true")
    l.add_argument("--blrt-boot", type=int, default=100)
    l.add_argument("--blrt-starts", type=int, default=10)
    l.set_defaults(func=cmd_lpa)

    s = sub.add_parser("step3", help="profile-outcome association report")
    s.add_argument("model", help="mixture model artifact (JSON)")
    _add_common(s)
    s.add_argument("--method", choices=("bch", "naive"), default="bch")
    s.set_defaults(func=cmd_step3)

    m = sub.add_parser("simulate", help="generate a synthetic cohort CSV")
    m.add_argument("--spec", default=None, help="generator spec JSON")
    m.add_argument("--n", type=int, default=1000)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("-o", "--output", default="cohort.csv")
    m.set_defaults(func=cmd_simulate)

    g = sub.add_parser("plot", help="SVG figures")
    _add_common(g, covariates=False)
    g.add_argument("--kind", choices=("ternary", "realloc", "profiles"),
                   required=True)
    g.add_argument("--behaviors", nargs="*", default=["sit", "stand", "step"])
    g.add_argument("--pivot", default="step", choices=BEHAVIOR_LABELS)
    g.add_argument("--delta-grid", default="-30:30:5")
    g.add_argument("--model", default=None)
    g.set_defaults(func=cmd_plot)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed must be non-negative; got {args.seed}")
        for path, text in args.func(args).items():
            atomic_write(path, text)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
