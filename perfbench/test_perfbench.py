"""Tests of the benchmark itself: span arithmetic, summary statistics, the
metric contract, wrapper coverage, and a shrunken run of every workload."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import summary
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the union counts once
        ["a.child", 2.0, 3.0, 1],
        ["late", 9.0, 12.0, 0],  # runs past its parent: clipped at 10
    ]
    assert tracing.self_times(spans) == [
        10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0]


def test_median_iqr_matches_statistics_quantiles():
    values = [float(v) for v in range(1, 11)]
    assert summary.median_iqr(values) == (5.5, 2.75, 8.25)
    assert summary.median_iqr([4.0]) == (4.0, 4.0, 4.0)
    with pytest.raises(ValueError):
        summary.median_iqr([])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert summary.tail_percentile([1.0] * 39) is None
    assert summary.tail_percentile(list(range(40)))[0] == 75.0
    level, value = summary.tail_percentile([float(v) for v in range(100)])
    assert (level, value) == (90.0, 89.0)
    assert summary.tail_percentile(list(range(1000)))[0] == 99.0


def test_metric_names_units_and_counts():
    spec = bench_spec()
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    assert len(e2e) <= 16 and len(layer) <= 128
    names = [m["name"] for m in e2e + layer]
    assert len(set(names)) == len(names)
    for m in e2e + layer:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    assert [(m["name"], m["unit"]) for m in layer] == [
        (m.name, m.unit) for m in tracing.LAYER_METRICS]
    assert {m["name"] for m in e2e} == {"setup_s", "pass_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOAD_NAMES)
    for m in tracing.LAYER_METRICS:
        assert set(m.works_in) <= set(workloads.WORKLOAD_NAMES)


def test_unparseable_cells():
    text = ("from,to,estimate\n"
            "sit,step,np.float64(0.25)\n"
            "class_1_vs_2,stand->sit,1e-3\n"
            "total_min_iqr,,\"[1.0, 2.0]\"\n")
    assert tracing.unparseable_cells(text) == 2


def test_compare_quantities_tolerances():
    ref = {"selected_K": 3, "loglik_K2": -100.0, "blrt_p_K2": 0.05}
    assert workloads.compare_quantities(dict(ref), ref, 0.05) is None
    near = {**ref, "loglik_K2": -100.0 * (1 + 1e-8), "blrt_p_K2": 0.1}
    assert workloads.compare_quantities(near, ref, 0.05) is None
    assert workloads.compare_quantities({**ref, "selected_K": 2}, ref, 0.05)
    assert workloads.compare_quantities({**ref, "loglik_K2": -100.1}, ref)
    assert workloads.compare_quantities({"selected_K": 3}, ref)


def test_wrappers_cover_every_binding_and_restore():
    from daycycle import cli, coda, cohort, composition, ism, linmod, lpa

    originals = {
        (linmod, "fit_ols"): linmod.fit_ols,
        (coda, "fit_ols"): coda.fit_ols,
        (ism, "fit_ols"): ism.fit_ols,
        (cli, "load_cohort_csv"): cli.load_cohort_csv,
        (cohort, "replace_zeros"): cohort.replace_zeros,
        (lpa.MixtureModel, "sample"): lpa.MixtureModel.sample,
        (cohort.CohortTable, "compositions"):
            cohort.CohortTable.__dict__["compositions"],
        (composition.Composition, "__post_init__"):
            composition.Composition.__dict__["__post_init__"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            patched = vars(owner)[attr]
            assert patched is not original
            assert hasattr(patched, tracing.MARKER), (owner, attr)
        assert coda.fit_ols is linmod.fit_ols
        composition.closure_values([1.0, 3.0], ("a", "b"))
        assert tracer.counts["composition.objects_built"] == 1
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original
    assert tracing.installed_wrappers() == []


def test_repeat_calls_ignore_labels_and_argument_spelling():
    import numpy as np

    def fit(data, K, starts=1, labels=None):
        return None

    import inspect
    sig = inspect.signature(fit)
    x = np.arange(6.0).reshape(3, 2)
    a = tracing.arg_digest(sig, (x, 2), {"labels": ("sit", "stand")})
    b = tracing.arg_digest(sig, (x,), {"K": 2, "starts": 1})
    c = tracing.arg_digest(sig, (x, 3), {})
    assert a == b != c


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = bench_spec()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    text = "\n".join(lines[:-1])
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        line = rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}"
        assert re.search(line, text, re.M), m["name"]
    assert "fail_frac 0 ratio" in text
    assert not (ROOT / ".perfbench_run").exists()


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "lpa", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
