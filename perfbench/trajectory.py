"""Measure the current checkout and append it to ``trajectory.json``.

Run from the root of a checkout::

    python3 perfbench/trajectory.py --label "seed commit" --runs 10

``--runs 1 --no-write`` prints every end-to-end metric, ``fail_frac``
included, for every workload from one command.

For each workload it makes ``--runs`` untraced runs with seeds 1..runs and
one traced run, each as its own ``run.py`` process, one after another.  It
records per end-to-end metric the median, quartiles and spread (quartile
distance over median) of the run values, checks every spread against a
third of the metric's bound in ``BENCHMARK.json``, and stores the traced
run's per-layer values.  ``--no-write`` only prints.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

from summary import median_iqr

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.json"


def bench(workload: str, seed: int, seconds: int,
          trace: int) -> tuple[dict, dict]:
    """One run: (final JSON object, machine record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("machine "))
    return json.loads(lines[-1]), machine


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--no-write", action="store_true")
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    point = {"label": args.label,
             "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
             "run_seconds": seconds, "workloads": {}}
    steady = True
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            result, point["machine"] = bench(name, seed, seconds, 0)
            runs.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f} {v['unit']}"
                for k, v in result["metrics"].items())
                + f" fail_frac={result['failed'] / result['attempted']:.4g}"
                " ratio", flush=True)
        entry = {"runs": len(runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs)}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3 = median_iqr(values)
            spread = (q3 - q1) / med
            entry[metric] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread,
                             "unit": runs[0]["metrics"][metric]["unit"]}
            ok = spread < bounds[metric] / 3
            steady &= ok or metric == "setup_s"
            print(f"{name} {metric}: median {med:.4f} spread {spread:.4f} "
                  f"(third of bound {bounds[metric] / 3:.4f}"
                  f"{'' if ok else ', NOT steady'})", flush=True)
        traced, _ = bench(name, 1, seconds, 1)
        entry["traced_correct"] = traced["correct"]
        entry["layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][name] = entry
    if not args.no_write:
        history = (json.loads(TRAJECTORY.read_text())
                   if TRAJECTORY.exists() else {"points": []})
        history["points"].append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
