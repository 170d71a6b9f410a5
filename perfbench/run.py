"""daycycle benchmark: two CLI workloads, end to end and layer by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload lpa --seed 0 --seconds 45 \
        --trace 0

With ``--trace 0`` it reports the end-to-end metrics (``setup_s``,
``pass_s``, ``peak_rss_mb``; ``fail_frac`` is ``failed / attempted``) with no
wrappers installed.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics plus the tracing overhead.  Each
workload runs in its own child process with BLAS and OpenMP pinned to one
thread; set-up is repeated in separate processes and its median reported.
The last line of standard output is one JSON object; the lines before it
name every metric with its unit and record the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from summary import tail_percentile  # noqa: E402
from tracing import LAYER_METRICS, WORKLOADS  # noqa: E402

# An untraced run sets up at least SETUPS_MIN and at most SETUPS_MAX times
# (set-up-only children, then the workload child), adding set-ups while they
# have taken less than SETUP_BUDGET_S: cheap set-ups get a steadier median.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 5, 10.0
DEADLINE_S = 170.0
WORK_ROOT = ".perfbench_run"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Child:
    """One child process; measures its start-to-``ready`` time."""

    def __init__(self, root: Path, argv: list[str], deadline: float):
        self.deadline = deadline
        self.start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *argv], cwd=root,
            env=child_env(root), stdout=subprocess.PIPE, text=True)

    def _remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError("deadline passed")
        return left

    def wait_ready(self) -> float:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    self._remaining())
        line = self.proc.stdout.readline() if ready else ""
        if line.strip() != "ready":
            raise BenchError(f"child did not get ready (read {line!r})")
        return perf_counter() - self.start

    def finish(self) -> str:
        out, _ = self.proc.communicate(timeout=self._remaining())
        if self.proc.returncode != 0:
            raise BenchError(f"child exited with {self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


def machine(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": PINNED,
        "commit": commit,
    }


def run(args, root: Path, work: Path) -> dict:
    deadline = perf_counter() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        base.append("--smoke")
    setups = []
    # Set-up is only an end-to-end metric; a traced run sets up once.
    while not args.trace and len(setups) < SETUPS_MAX - 1 and (
            len(setups) < SETUPS_MIN - 1 or sum(setups) < SETUP_BUDGET_S):
        argv = ["--work", str(work / f"setup-{len(setups)}"), "--setup-only"]
        child = Child(root, base + argv, deadline)
        try:
            setups.append(child.wait_ready())
            child.finish()
        finally:
            child.stop()
    child = Child(root, base + ["--work", str(work / "run")], deadline)
    try:
        setups.append(child.wait_ready())
        out = child.finish()
    finally:
        child.stop()
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setups
    return result


def report(args, result: dict, env: dict) -> dict:
    """Print the named metrics; return the final JSON object."""
    attempted, failed = result["attempted"], result["failed"]
    gaps = result.get("gaps", [])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))
    for err in result["errors"]:
        print(f"FAILED {err}")
    if gaps:
        print("FAILED zero on a workload the layer works in: "
              + ", ".join(gaps))
    print(f"fail_frac {failed / attempted:.4g} ratio  "
          f"({failed} failed of {attempted} operations)")
    passes = result["pass_s"]
    if not args.trace:
        setup_med = median(result["setup_s"])
        pass_med = median(passes)
        rss = result["peak_rss_mb"]
        print(f"setup_s {setup_med:.4f} s  (median of set-ups: "
              + " ".join(f"{s:.4f}" for s in result["setup_s"]) + ")")
        print(f"pass_s {pass_med:.4f} s  (median of {len(passes)} passes: "
              + " ".join(f"{s:.4f}" for s in passes) + ")")
        print(f"peak_rss_mb {rss:.1f} MB")
        metrics = {"setup_s": (setup_med, "s"), "pass_s": (pass_med, "s"),
                   "peak_rss_mb": (rss, "MB")}
    else:
        layer = result["layer"]
        print(f"untraced passes {len(passes)}  traced passes "
              f"{len(result['traced_pass_s'])}")
        metrics = {}
        for m in LAYER_METRICS:
            metrics[m.name] = (layer[m.name], m.unit)
            print(f"{m.name} {layer[m.name]:.6g} {m.unit}")
        for name, times in sorted(result["per_call"].items()):
            tail = tail_percentile(times)
            extra = f"  p{tail[0]:g} {tail[1]:.3f} ms" if tail else ""
            print(f"per-call {name} n={len(times)} "
                  f"p50 {median(times):.3f} ms{extra}")
    return {
        "correct": failed == 0 and not gaps,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken inputs, for testing the benchmark itself")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "daycycle" / "__init__.py").is_file():
        print("run from the root of a daycycle checkout (src/daycycle "
              "not found)", file=sys.stderr)
        return 2
    work = root / WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, root, work)
        env = machine(root)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_ROOT).rmdir()
        except OSError:
            pass
    print(json.dumps(report(args, result, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
