"""Per-layer tracing from outside the program.

The traced run wraps public functions of each ``daycycle`` module in place:
the wrapper records a span (name, start, end, parent) or, for functions
called once per row, only a count.  A name is patched in every module that
binds it (``coda`` and ``ism`` import ``fit_ols`` from ``linmod``, ``cli``
imports ``load_cohort_csv`` from ``cohort``); methods are patched on their
class.  Spans stay in memory and are summarised per pass.  Nothing here
changes the program's behaviour: wrappers forward every call unchanged.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import importlib
import inspect
import io
import re
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

MARKER = "__perfbench_wrapper__"

WORKLOADS = ("lpa", "cohort-20k")
LPA = ("lpa",)
BLRT = ("lpa",)
COHORT = ("cohort-20k",)


# --- probes: extra counts read from a wrapped call's arguments and result ---

def _fit_mixture_probe(acc, args, kwargs, result):
    model = result[0]
    acc["lpa.em_starts"] += model.n_starts
    acc["lpa.em_degenerate_starts"] += model.n_degenerate_starts
    acc["lpa.em_replicated"] += model.n_replicated
    acc["lpa.em_nonconverged_fits"] += int(not model.converged)


def _blrt_probe(acc, args, kwargs, result):
    acc["lpa.blrt.boot_used"] += result["n_boot_used"]
    acc["lpa.blrt.boot_failed"] += result["n_boot_failed"]


def _fit_ols_probe(acc, args, kwargs, result):
    acc["linmod.fit_ols.design_cells"] += result.n * result.p


def _load_day_csv_probe(acc, args, kwargs, result):
    records, errors = result
    acc["ingest.rows_parsed"] += len(records)
    acc["ingest.rows_rejected"] += len(errors)


def _validate_days_probe(acc, args, kwargs, result):
    acc["ingest.persons_kept"] += len(result)


def _step3_probe(acc, args, kwargs, result):
    posteriors = kwargs.get("posteriors", args[0] if args else None)
    n, k = np.shape(posteriors)
    acc["step3.pseudo_rows"] += n * k


def _svg_probe(acc, args, kwargs, result):
    acc["plotting.svg_bytes"] += len(result.encode("utf-8"))


_LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_>\-]*")


def unparseable_cells(text: str) -> int:
    """Data-row CSV cells that are neither empty, a number, nor a plain label
    (an identifier such as ``sit`` or ``class_1_vs_2``)."""
    rows = list(csv.reader(io.StringIO(text)))
    bad = 0
    for row in rows[1:]:
        for cell in row:
            if cell == "" or _LABEL.fullmatch(cell):
                continue
            try:
                float(cell)
            except ValueError:
                bad += 1
    return bad


def _atomic_write_probe(acc, args, kwargs, result):
    bound = dict(zip(("path", "text"), args), **kwargs)
    acc["cli.bytes_written"] += len(bound["text"].encode("utf-8"))
    if str(bound["path"]).endswith(".csv"):
        acc["cli.unparseable_csv_cells"] += unparseable_cells(bound["text"])


# --- what gets wrapped ---

@dataclass(frozen=True)
class Target:
    span: str  # span name, "<layer>.<function>"
    module: str  # daycycle submodule that defines it
    attr: str  # function name, or "Class.method"
    count_only: bool = False  # per-row functions: count calls, no span
    repeat: bool = False  # hash arguments to count repeated calls
    probe: Callable | None = None


# Arguments left out of the repeat digest: ``labels`` only names the
# result's columns, so two fits that differ in it repeat the same work.
REPEAT_IGNORES = ("labels",)


TARGETS = (
    Target("lpa.fit_mixture", "lpa", "fit_mixture", repeat=True,
           probe=_fit_mixture_probe),
    Target("lpa.posterior", "lpa", "posterior"),
    Target("lpa.selection_table", "lpa", "selection_table"),
    Target("lpa.blrt", "lpa", "blrt", probe=_blrt_probe),
    Target("lpa.sample", "lpa", "MixtureModel.sample"),
    Target("linmod.fit_ols", "linmod", "fit_ols", repeat=True,
           probe=_fit_ols_probe),
    Target("linmod.linear_combination", "linmod", "linear_combination"),
    Target("linmod.wald_test", "linmod", "wald_test"),
    Target("ism.substitution_table", "ism", "substitution_table"),
    Target("ism.fit_ism", "ism", "fit_ism"),
    Target("ism.fit_flexible_ism", "ism", "fit_flexible_ism"),
    Target("coda.fit_coda", "coda", "fit_coda", repeat=True),
    Target("coda.reallocation_curve_proportional", "coda",
           "reallocation_curve_proportional"),
    Target("coda.pairwise_reallocation", "coda", "pairwise_reallocation"),
    Target("composition.objects_built", "composition",
           "Composition.__post_init__", count_only=True),
    Target("composition.replace_zeros", "composition", "replace_zeros",
           count_only=True),
    Target("composition.ilr_array", "composition", "ilr_array"),
    Target("composition.compositional_mean", "composition",
           "compositional_mean"),
    Target("cohort.load_cohort_csv", "cohort", "load_cohort_csv"),
    Target("cohort.save_cohort_csv", "cohort", "save_cohort_csv"),
    Target("cohort.complete_case", "cohort", "complete_case"),
    Target("cohort.compositions", "cohort", "CohortTable.compositions"),
    Target("cohort.composition_array", "cohort",
           "CohortTable.composition_array"),
    Target("ingest.load_day_csv", "ingest", "load_day_csv",
           probe=_load_day_csv_probe),
    Target("ingest.validate_days", "ingest", "validate_days",
           probe=_validate_days_probe),
    Target("ingest.aggregate_person", "ingest", "aggregate_person"),
    Target("ingest.describe", "ingest", "describe"),
    Target("step3.step3_distal", "step3", "step3_distal", probe=_step3_probe),
    Target("plotting.ternary_svg", "plotting", "ternary_svg",
           probe=_svg_probe),
    Target("plotting.curve_svg", "plotting", "curve_svg", probe=_svg_probe),
    Target("cli.describe", "cli", "cmd_describe"),
    Target("cli.ism", "cli", "cmd_ism"),
    Target("cli.coda", "cli", "cmd_coda"),
    Target("cli.step3", "cli", "cmd_step3"),
    Target("cli.plot", "cli", "cmd_plot"),
    Target("cli.lpa", "cli", "cmd_lpa"),
    Target("cli.atomic_write", "cli", "atomic_write",
           probe=_atomic_write_probe),
    Target("simulate.simulate_cohort", "simulate", "simulate_cohort"),
    Target("simulate.simulate_day_records", "simulate",
           "simulate_day_records"),
)


# --- argument digests for repeat_calls ---

def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"A{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (str, int, float, bool, np.generic)) or obj is None:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"L{len(obj)}[".encode())
        if all(isinstance(x, str) for x in obj):  # person ids: one update
            h.update("\0".join(obj).encode())
        else:
            for x in obj:
                _feed(h, x)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(f"D{len(obj)}{{".encode())
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
        h.update(b"}")
    elif dataclasses.is_dataclass(obj):
        # private fields are caches, not inputs
        h.update(f"C{type(obj).__qualname__}(".encode())
        for f in dataclasses.fields(obj):
            if not f.name.startswith("_"):
                _feed(h, getattr(obj, f.name))
        h.update(b")")
    else:
        h.update(f"O{type(obj).__qualname__}:{obj!r};".encode())


def arg_digest(sig: inspect.Signature, args, kwargs) -> bytes:
    """Digest of a call's arguments, bound by name with defaults applied, so
    positional and keyword spellings of one call hash alike; arguments named
    in ``REPEAT_IGNORES`` are left out."""
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    h = hashlib.blake2b(digest_size=16)
    _feed(h, {k: v for k, v in bound.arguments.items()
              if k not in REPEAT_IGNORES})
    return h.digest()


# --- spans and self time ---

def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.

    ``spans`` holds ``[name, start, end, parent_index]`` rows, with parent
    ``-1`` for a root.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        pieces = sorted((max(start, spans[c][1]), min(end, spans[c][2]))
                        for c in children[i])
        covered, reach = 0.0, start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


@dataclass
class PassTotals:
    """Sums over the passes folded in so far."""
    passes: int = 0
    calls: Counter = dataclasses.field(default_factory=Counter)
    busy: Counter = dataclasses.field(default_factory=Counter)
    self_s: Counter = dataclasses.field(default_factory=Counter)
    repeats: Counter = dataclasses.field(default_factory=Counter)
    extras: Counter = dataclasses.field(default_factory=Counter)
    call_s: dict = dataclasses.field(default_factory=lambda: defaultdict(list))


class Tracer:
    """Installs wrappers, collects spans and counts, and restores the
    original functions."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.extras: Counter = Counter()
        self.repeats: Counter = Counter()
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    # collection

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.extras.clear()
        self.repeats.clear()
        self._seen.clear()

    def fold_into(self, totals: PassTotals) -> None:
        """Add this pass's spans and counts to ``totals``, then reset."""
        totals.passes += 1
        for span, own in zip(self.spans, self_times(self.spans)):
            name, start, end, _ = span
            totals.busy[name] += end - start
            totals.self_s[name] += own
            totals.call_s[name].append(end - start)
        totals.calls.update(self.counts)
        totals.repeats.update(self.repeats)
        totals.extras.update(self.extras)
        self.reset()

    def _wrap(self, target: Target, original):
        name = target.span
        counts = self.counts
        if target.count_only:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
        else:
            sig = inspect.signature(original) if target.repeat else None
            spans, stack = self.spans, self._stack

            def wrapper(*args, **kwargs):
                if sig is not None:
                    key = arg_digest(sig, args, kwargs)
                    if key in self._seen[name]:
                        self.repeats[name] += 1
                    self._seen[name].add(key)
                counts[name] += 1
                idx = len(spans)
                spans.append([name, perf_counter(), 0.0,
                              stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    result = original(*args, **kwargs)
                finally:
                    spans[idx][2] = perf_counter()
                    stack.pop()
                if target.probe is not None:
                    target.probe(self.extras, args, kwargs, result)
                return result
        functools.update_wrapper(wrapper, original)
        setattr(wrapper, MARKER, name)
        return wrapper

    # installation

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        homes = {t.module: importlib.import_module(f"daycycle.{t.module}")
                 for t in TARGETS}
        modules = daycycle_modules()
        for target in TARGETS:
            home = homes[target.module]
            cls_name, _, meth = target.attr.rpartition(".")
            if cls_name:
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(target, original))
                continue
            original = getattr(home, target.attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        assert_no_wrappers()


def daycycle_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "daycycle" or name.startswith("daycycle."))
            and m is not None]


def installed_wrappers() -> list[str]:
    """Every ``module.attr`` or ``Class.attr`` that currently holds a
    benchmark wrapper."""
    found = []
    for mod in daycycle_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARKER):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, MARKER):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


def assert_no_wrappers() -> None:
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left}")


# --- per-layer metrics ---

@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    works_in: tuple[str, ...]
    # Work counts and times must be non-zero where the layer works; counts
    # of waste or defects (repeats, failed starts) may fall to zero.
    required: bool = True


def _m(name, unit, works_in, required=True):
    return LayerMetric(name, unit, works_in, required)


LAYER_METRICS = (
    _m("lpa.fit_mixture.calls", "count", LPA),
    _m("lpa.fit_mixture.busy_s", "s", LPA),
    _m("lpa.fit_mixture.repeat_calls", "count", BLRT, required=False),
    _m("lpa.em_starts", "count", LPA),
    _m("lpa.em_degenerate_starts", "count", LPA, required=False),
    _m("lpa.em_replicated_ratio", "ratio", LPA),
    _m("lpa.em_nonconverged_fits", "count", LPA, required=False),
    _m("lpa.start_ms", "ms", LPA),
    _m("lpa.em_iter_ms", "ms", LPA),
    _m("lpa.posterior.calls", "count", LPA),
    _m("lpa.posterior.busy_s", "s", LPA),
    _m("lpa.selection_table.busy_s", "s", LPA),
    _m("lpa.blrt.busy_s", "s", BLRT),
    _m("lpa.blrt.boot_used", "count", BLRT),
    _m("lpa.blrt.boot_failed", "count", BLRT, required=False),
    _m("lpa.sample.busy_s", "s", BLRT),
    _m("linmod.fit_ols.calls", "count", COHORT),
    _m("linmod.fit_ols.busy_s", "s", COHORT),
    _m("linmod.fit_ols.repeat_calls", "count", COHORT, required=False),
    _m("linmod.fit_ols.design_cells", "count", COHORT),
    _m("linmod.linear_combination.calls", "count", COHORT),
    _m("linmod.linear_combination.busy_s", "s", COHORT),
    _m("linmod.wald_test.calls", "count", COHORT),
    _m("ism.substitution_table.calls", "count", COHORT),
    _m("ism.substitution_table.self_s", "s", COHORT),
    _m("ism.fit_ism.calls", "count", COHORT),
    _m("ism.fit_flexible_ism.self_s", "s", COHORT),
    _m("coda.fit_coda.calls", "count", COHORT),
    _m("coda.fit_coda.self_s", "s", COHORT),
    _m("coda.fit_coda.repeat_calls", "count", COHORT, required=False),
    _m("coda.reallocation_curve_proportional.busy_s", "s", COHORT),
    _m("coda.pairwise_reallocation.calls", "count", COHORT),
    _m("coda.pairwise_reallocation.busy_s", "s", COHORT),
    _m("composition.objects_built", "count", COHORT),
    _m("composition.replace_zeros.calls", "count", COHORT),
    _m("composition.ilr_array.calls", "count", COHORT),
    _m("composition.ilr_array.busy_s", "s", COHORT),
    _m("composition.compositional_mean.calls", "count", COHORT),
    _m("composition.compositional_mean.busy_s", "s", COHORT),
    _m("cohort.load_cohort_csv.calls", "count", WORKLOADS),
    _m("cohort.load_cohort_csv.busy_s", "s", WORKLOADS),
    _m("cohort.save_cohort_csv.busy_s", "s", COHORT),
    _m("cohort.complete_case.busy_s", "s", COHORT),
    _m("cohort.compositions.calls", "count", COHORT),
    _m("cohort.compositions.busy_s", "s", COHORT),
    _m("cohort.composition_array.busy_s", "s", COHORT),
    _m("ingest.load_day_csv.busy_s", "s", COHORT),
    _m("ingest.rows_parsed", "count", COHORT),
    _m("ingest.rows_rejected", "count", COHORT),
    _m("ingest.validate_days.busy_s", "s", COHORT),
    _m("ingest.persons_kept", "count", COHORT),
    _m("ingest.aggregate_person.busy_s", "s", COHORT),
    _m("ingest.describe.busy_s", "s", COHORT),
    _m("step3.step3_distal.calls", "count", COHORT),
    _m("step3.step3_distal.busy_s", "s", COHORT),
    _m("step3.pseudo_rows", "count", COHORT),
    _m("plotting.ternary_svg.busy_s", "s", COHORT),
    _m("plotting.curve_svg.busy_s", "s", COHORT),
    _m("plotting.svg_bytes", "bytes", COHORT),
    _m("cli.describe.busy_s", "s", COHORT),
    _m("cli.ism.busy_s", "s", COHORT),
    _m("cli.coda.busy_s", "s", COHORT),
    _m("cli.step3.busy_s", "s", COHORT),
    _m("cli.plot.busy_s", "s", COHORT),
    _m("cli.lpa.busy_s", "s", LPA),
    _m("cli.atomic_write.calls", "count", WORKLOADS),
    _m("cli.atomic_write.busy_s", "s", WORKLOADS),
    _m("cli.bytes_written", "bytes", WORKLOADS),
    _m("cli.unparseable_csv_cells", "count", WORKLOADS, required=False),
    _m("simulate.simulate_cohort.busy_s", "s", WORKLOADS),
    _m("simulate.simulate_day_records.busy_s", "s", COHORT),
    _m("trace.overhead_s", "s", WORKLOADS, required=False),
)

_KINDS = {"calls": "calls", "busy_s": "busy", "self_s": "self_s",
          "repeat_calls": "repeats"}


def layer_values(run: PassTotals, setup: PassTotals, em_iter_ms: float,
                 overhead_s: float) -> dict[str, float]:
    """Every per-layer metric, per traced pass; ``simulate.*`` per set-up."""
    n = max(run.passes, 1)
    out = {}
    for metric in LAYER_METRICS:
        name = metric.name
        base, _, kind = name.rpartition(".")
        totals = setup if name.startswith("simulate.") else run
        per = max(totals.passes, 1)
        if kind in _KINDS:
            value = getattr(totals, _KINDS[kind])[base] / per
        elif name == "composition.objects_built":
            value = run.calls[name] / n
        elif name == "lpa.em_replicated_ratio":
            starts = run.extras["lpa.em_starts"]
            value = run.extras["lpa.em_replicated"] / starts if starts else 0.0
        elif name == "lpa.start_ms":
            starts = run.extras["lpa.em_starts"]
            value = (1e3 * run.busy["lpa.fit_mixture"] / starts
                     if starts else 0.0)
        elif name == "lpa.em_iter_ms":
            value = em_iter_ms
        elif name == "trace.overhead_s":
            value = overhead_s
        else:
            value = run.extras[name] / n
        out[name] = float(value)
    return out


def coverage_gaps(values: dict[str, float], workload: str) -> list[str]:
    """Required metrics that read zero on a workload they work in."""
    return [m.name for m in LAYER_METRICS
            if m.required and workload in m.works_in and values[m.name] == 0]
