"""The benchmark's workloads: inputs made from the seed, one timed pass
through the program's public entry points, and the checks on its outputs.

Every workload is a closed loop with one caller: each operation waits for the
previous one.  The program only ever sees the generated files; the workload
seed never reaches its ``--seed`` flags.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from daycycle import cli, cohort, ingest, lpa, simulate
from tracing import WORKLOADS as WORKLOAD_NAMES

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Day-level wear rule the ingest oracle applies independently of the
# program: a day counts when it has at least 600 minutes of waking wear, and
# a person is kept with at least 4 such days.
WEAR_MIN = 600.0
VALID_DAYS_MIN = 4


@dataclass
class OpRecord:
    name: str
    seconds: float
    error: str | None = None


@dataclass
class Pass:
    """One pass: times each operation and records why any of them failed.

    Only the operation itself is timed; digests and checks run between
    operations, outside the pass time.
    """
    out: Path
    ops: list[OpRecord] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    quantities: dict[str, dict] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    def call(self, name, fn, *args, check=None, outputs=(), extract=None):
        start = perf_counter()
        try:
            value = fn(*args)
            error = None
        except Exception:  # any exception is a failed operation
            value, error = None, traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        if error is None and check is not None:
            error = check(value)
        if error is None and outputs:
            self.digests[name] = digest_paths(outputs)
        if error is None and extract is not None:
            self.quantities[name] = extract()
        self.ops.append(OpRecord(name, elapsed, error))
        return value

    def cli(self, name, argv, extract=None):
        out = self.out / name
        argv = [str(a) for a in argv] + ["-o", str(out)]
        return self.call(
            name, cli.main, argv,
            check=lambda rc: None if rc == 0 else f"exit code {rc}",
            outputs=(out,),
            extract=None if extract is None else (lambda: extract(out)))


def digest_paths(paths) -> str:
    """Digest of file names and bytes under ``paths`` (files or dirs)."""
    h = hashlib.sha256()
    for root in paths:
        root = Path(root)
        files = [root] if root.is_file() else sorted(
            p for p in root.rglob("*") if p.is_file())
        for f in files:
            h.update(f.relative_to(root.parent).as_posix().encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _expect(actual, expected, what: str) -> str | None:
    return None if actual == expected else (
        f"{what}: got {actual}, expected {expected}")


# --- reference values -------------------------------------------------------

# Tolerances for comparing a pass's outputs with the values recorded from the
# seed commit at the default seed.  Estimates may move by floating-point
# reassociation (batched or reparameterised fits), never by more.
RTOL = 1e-6
ATOL = 1e-9


def compare_quantities(actual: dict, expected: dict, blrt_step: float = 0.0
                       ) -> str | None:
    """First mismatch between two flat name -> value dicts, or None.

    Counts and class labels must match exactly; ``blrt_p`` may move by one
    bootstrap replicate (``blrt_step``), since a replicate statistic within
    rounding of the observed one can fall either side; every other number
    must agree within ``RTOL`` relative or ``ATOL`` absolute.
    """
    if set(actual) != set(expected):
        return f"quantities differ: {sorted(set(actual) ^ set(expected))}"
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, int) and not isinstance(want, bool):
            ok = got == want
        elif key.startswith("blrt_p"):
            ok = abs(got - want) <= blrt_step + 1e-12
        else:
            ok = math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
        if not ok:
            return f"{key}: got {got!r}, reference {want!r}"
    return None


def load_reference() -> dict:
    return _read_json(REFERENCE_FILE) if REFERENCE_FILE.exists() else {}


# --- workloads --------------------------------------------------------------

class Workload:
    name: str
    lpa_k: int | None = None  # K timed for lpa.em_iter_ms, None without EM

    def setup(self, inputs: Path, seed: int) -> dict:
        """Write the input files into ``inputs``; return what the pass and
        its checks need besides them."""
        raise NotImplementedError

    def run_pass(self, p: Pass, inputs: Path, state: dict) -> None:
        raise NotImplementedError

    def em_data(self, inputs: Path) -> np.ndarray:
        """The matrix timed for ``lpa.em_iter_ms``."""
        raise NotImplementedError

    def blrt_step(self) -> float:
        return 0.0


@dataclass
class LpaCall:
    """One ``lpa`` invocation of a pass: its cohort size and flags."""
    name: str
    n: int
    args: list[str]
    n_boot: int = 0


class LpaWorkload(Workload):
    """Each pass runs every call in ``calls`` on its own simulated cohort;
    ``lpa.em_iter_ms`` is timed on the first call's data at ``lpa_k``."""

    def __init__(self, name: str, calls: list[LpaCall], lpa_k: int):
        self.name = name
        self.calls = calls
        self.lpa_k = lpa_k

    def setup(self, inputs, seed):
        for call in self.calls:
            sim = simulate.simulate_cohort(simulate.default_sim_spec(),
                                           call.n, seed=seed)
            cohort.save_cohort_csv(sim.cohort, inputs / f"{call.name}.csv")
        return {"persons": {call.name: call.n for call in self.calls}}

    def run_pass(self, p, inputs, state):
        for call in self.calls:
            p.cli(call.name, ["lpa", inputs / f"{call.name}.csv", *call.args],
                  extract=_lpa_quantities)

    def em_data(self, inputs):
        """The matrix the ``lpa`` subcommand fits (sit/stand/step shares)."""
        table = cohort.load_cohort_csv(inputs / f"{self.calls[0].name}.csv")
        return table.behaviors[:, :3] / table.total[:, None]

    def blrt_step(self):
        n_boot = max(call.n_boot for call in self.calls)
        return 1.0 / (n_boot + 1) if n_boot else 0.0


def _lpa_quantities(out: Path) -> dict:
    table = _read_json(out / "lpa_selection.json")
    q = {f"loglik_K{row['K']}": row["loglik"] for row in table}
    q.update({f"blrt_p_K{row['K']}": row["blrt_p"] for row in table
              if row["blrt_p"] is not None})
    q["selected_K"] = _read_json(out / "lpa_error_matrix.json")["selected_K"]
    return q


class CohortWorkload(Workload):
    """Day records to person table, then the regression subcommands."""

    name = "cohort-20k"
    share = 0.01  # of persons or of day rows, for each injected condition
    n_days = 7
    chunk = 1000  # persons simulated per day-record batch

    def __init__(self, n: int):
        self.n = n

    def setup(self, inputs, seed):
        spec = simulate.default_sim_spec()
        sim = simulate.simulate_cohort(spec, self.n, seed=seed).cohort
        rng = np.random.default_rng([seed, 1])
        n_rows = self.n * self.n_days
        k_persons = max(1, round(self.share * self.n))
        k_rows = max(1, round(self.share * n_rows))
        zero_step = set(rng.choice(self.n, k_persons, replace=False).tolist())
        picked = rng.choice(n_rows, 2 * k_rows, replace=False)
        malformed = set(picked[:k_rows].tolist())
        short = set(picked[k_rows:].tolist())
        short_wear = rng.uniform(300.0, 590.0, n_rows)

        valid_days = np.zeros(self.n, dtype=int)
        days_csv = inputs / "days.csv"
        with open(days_csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(ingest.DAY_CSV_HEADER)
            for start in range(0, self.n, self.chunk):
                part = sim.subset(np.arange(self.n) // self.chunk
                                  == start // self.chunk)
                days = simulate.simulate_day_records(
                    part, seed=seed * 1000 + start // self.chunk,
                    n_days=self.n_days)
                for j, day in enumerate(days):
                    person = start + j // self.n_days
                    row = start * self.n_days + j
                    step = 0.0 if person in zero_step else day.step_min
                    wear = day.sit_min + day.stand_min + step
                    if row in short:
                        wear = float(short_wear[row])
                    cells = [day.person_id, day.date, repr(day.sit_min),
                             repr(day.stand_min), repr(step),
                             day.in_bed.isoformat(), day.out_bed.isoformat(),
                             repr(wear)]
                    if row in malformed:
                        cells = _corrupt(cells, row)
                    elif wear >= WEAR_MIN:
                        valid_days[person] += 1
                    w.writerow(cells)

        missing = rng.choice(self.n, k_persons, replace=False)
        missing_col = rng.integers(len(cohort.COVARIATE_COLUMNS),
                                   size=k_persons)
        covariates = {
            pid: {**{c: float(sim.covariates[c][i])
                     for c in cohort.COVARIATE_COLUMNS},
                  "casi_irt": float(sim.outcome[i])}
            for i, pid in enumerate(sim.ids)}
        for i, c in zip(missing, missing_col):
            covariates[sim.ids[i]][cohort.COVARIATE_COLUMNS[c]] = math.nan

        # step3 reads the simulator's true mixture as its model artifact.
        truth = lpa.MixtureModel(
            weights=np.asarray(spec.class_weights),
            means=np.asarray(spec.class_means),
            covs=np.asarray(spec.class_covs),
            structure="free-var-free-cov", loglik=0.0, n=self.n,
            labels=("sit", "stand", "step"))
        (inputs / "model.json").write_text(truth.to_json(), encoding="utf-8")
        # `plot --kind realloc` fits every covariate without dropping
        # incomplete rows, so it reads the simulator's complete person table.
        cohort.save_cohort_csv(sim, inputs / "cohort_complete.csv")

        kept = valid_days >= VALID_DAYS_MIN
        return {
            "covariates": covariates,
            "rows_parsed": n_rows - k_rows,
            "rows_rejected": k_rows,
            "persons_kept": int(kept.sum()),
            "shares": {
                "zero_step_persons": k_persons / self.n,
                "malformed_rows": k_rows / n_rows,
                "short_wear_rows": k_rows / n_rows,
                "missing_covariate_persons": k_persons / self.n,
            },
        }

    def run_pass(self, p, inputs, state):
        days = inputs / "days.csv"
        parsed = p.call(
            "load_day_csv", ingest.load_day_csv, days,
            check=lambda r: _expect((len(r[0]), len(r[1])),
                                    (state["rows_parsed"],
                                     state["rows_rejected"]),
                                    "rows parsed, rejected"))
        valid = p.call(
            "validate_days", ingest.validate_days, parsed and parsed[0],
            check=lambda v: _expect(len(v), state["persons_kept"],
                                    "persons kept"))
        del parsed
        person = p.call(
            "aggregate_person", ingest.aggregate_person, valid,
            state["covariates"],
            check=lambda t: _expect(t.n, state["persons_kept"], "rows"))
        del valid
        table = p.out / "cohort.csv"
        p.call("save_cohort_csv", cohort.save_cohort_csv, person, table,
               outputs=(table,))
        del person
        p.cli("describe", ["describe", table],
              extract=lambda o: {"n": _read_json(o / "describe.json")["n"]})
        p.cli("ism", ["ism", table, "--subgroup-step-cut", "60",
                      "--flexible"], extract=_ism_quantities)
        p.cli("coda", ["coda", table, "--pairwise"], extract=_coda_quantities)
        p.cli("step3", ["step3", inputs / "model.json", table,
                        "--method", "bch"], extract=_step3_quantities)
        p.cli("plot-ternary", ["plot", table, "--kind", "ternary"])
        p.cli("plot-realloc", ["plot", inputs / "cohort_complete.csv",
                               "--kind", "realloc"])


def _corrupt(cells: list[str], row: int) -> list[str]:
    """Three kinds of malformed day row, each rejected by the day parser."""
    kind = row % 3
    if kind == 0:
        return cells[:-1]  # wrong field count
    if kind == 1:
        return cells[:2] + ["n/a"] + cells[3:]  # non-numeric minutes
    return cells[:5] + [cells[6], cells[5]] + cells[7:]  # out_bed first


def _ism_quantities(out: Path) -> dict:
    tables = _read_json(out / "ism_table.json")
    return {f"{name}:{cell}": v["estimate"]
            for name, t in tables.items() for cell, v in t["cells"].items()}


def _coda_quantities(out: Path) -> dict:
    return {f"pivot_{r['pivot']}": r["estimate"]
            for r in _read_json(out / "coda_pivots.json")}


def _step3_quantities(out: Path) -> dict:
    return {f"{method}_coef{i}": c
            for method, r in _read_json(out / "step3_report.json").items()
            for i, c in enumerate(r["coef"])}


def _lpa_select(smoke: bool) -> LpaCall:
    # The paper's headline setting (K = 2..6, three activity shares, free
    # variances and covariances) with 8 starts capped at 100 EM iterations
    # instead of 160 starts and 250: few large fits (N=1000) that nearly all
    # run the full 100 iterations, so the per-iteration E- and M-step
    # arithmetic dominates and the work hardly depends on the seed's data
    # (uncapped, total iterations moved about 10% between seeds).
    if smoke:
        return LpaCall("lpa-select", 200, ["--classes", "2:3", "--starts",
                                           "2", "--max-iter", "100"])
    return LpaCall("lpa-select", 1000, ["--classes", "2:6", "--starts", "8",
                                        "--max-iter", "100"])


def _lpa_blrt(smoke: bool) -> LpaCall:
    # The bootstrap LRT: hundreds of small fits (N=250, K<=2) where per-call
    # Python overhead dominates; it also runs MixtureModel.sample and refits
    # the table's K=2 inside `blrt`.  Capped at 40 EM iterations: over
    # seeds 0-9 at most two of the 96 K=2 starts stop before 40 (K=1 starts
    # converge in three), so total iterations per pass stay within
    # 4076-4098 and the work hardly depends on the seed's data (uncapped,
    # they moved 15.1k-16.8k over seeds 0-5).
    if smoke:
        return LpaCall("lpa-blrt", 150, [
            "--classes", "2:2", "--starts", "2", "--blrt", "--blrt-boot",
            "19", "--blrt-starts", "1", "--max-iter", "40"], n_boot=19)
    return LpaCall("lpa-blrt", 250, [
        "--classes", "2:2", "--starts", "10", "--blrt", "--blrt-boot", "19",
        "--blrt-starts", "4", "--max-iter", "40"], n_boot=19)


def make_workload(name: str, smoke: bool = False) -> Workload:
    """The named workload; ``smoke`` shrinks it for a seconds-long check."""
    if name == "lpa":
        # Both ways the `lpa` layer is used, one after the other in a pass.
        # cohort, composition, coda and ism stay idle.
        return LpaWorkload(name, [_lpa_select(smoke), _lpa_blrt(smoke)],
                           lpa_k=3 if smoke else 6)
    if name == "cohort-20k":
        # The day-to-person path and the regression CLI, with no EM: CSV
        # parsing, per-person Composition objects, and the linmod fits of
        # ism, coda and step3 at N=20k.  About 1% each of zero-step persons,
        # malformed rows, short-wear days and missing covariates exercise
        # replace_zeros, row rejection, the valid-day rule and
        # complete-case filtering.  `lpa` stays idle.
        return CohortWorkload(400 if smoke else 20_000)
    raise KeyError(name)


def em_iter_ms(data: np.ndarray, k: int, reps: int = 5) -> float:
    """Milliseconds per EM iteration: the slope between 1 and 51 iterations
    of a single-start ``fit_mixture`` with ``tol=0``, medians of ``reps``."""
    for seed in range(50):
        try:
            model, _ = lpa.fit_mixture(data, k, starts=1, tol=0.0,
                                       max_iter=51, seed=seed)
        except lpa.LpaError:
            continue
        if model.n_iter != 51:
            continue
        times = {1: [], 51: []}
        for _ in range(reps):
            for iters in times:
                start = perf_counter()
                lpa.fit_mixture(data, k, starts=1, tol=0.0, max_iter=iters,
                                seed=seed)
                times[iters].append(perf_counter() - start)
        return 1e3 * (median(times[51]) - median(times[1])) / 50
    raise RuntimeError("no start ran 51 EM iterations")
