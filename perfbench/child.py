"""One workload process: set up, say ``ready``, then run passes.

Started by ``run.py`` with BLAS and OpenMP pinned to one thread and ``src``
on ``PYTHONPATH``.  Prints ``ready`` once its inputs exist, and, unless
``--setup-only``, one JSON line with the raw results when it is done.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import daycycle
import tracing
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    home = Path(daycycle.__file__).resolve().parent
    if home != (src / "daycycle").resolve():
        print(f"daycycle imported from {daycycle.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = workloads.make_workload(args.workload, smoke=args.smoke)
    work = Path(args.work)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)

    tracer = tracing.Tracer() if args.trace else None
    setup_totals = tracing.PassTotals()
    if tracer:
        tracer.install()
    state = workload.setup(inputs, args.seed)
    if tracer:
        tracer.fold_into(setup_totals)
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reference = {}
    if args.seed == workloads.DEFAULT_SEED and not args.smoke:
        reference = workloads.load_reference().get(args.workload)
        if not reference:
            print(f"no reference values for {args.workload}", file=sys.stderr)
            return 2

    run = Runner(workload, inputs, work, state, reference)
    totals = tracing.PassTotals()
    untraced, traced = [], []
    start = perf_counter()
    while True:
        trace_this = bool(tracer) and len(traced) < len(untraced)
        if trace_this:
            tracer.install()
            try:
                traced.append(run.one_pass())
            finally:
                tracer.uninstall()
            tracer.fold_into(totals)
        else:
            tracing.assert_no_wrappers()
            untraced.append(run.one_pass())
        elapsed = perf_counter() - start
        done = len(untraced) + len(traced)
        enough = (len(traced) >= 1) if tracer else done >= 2
        if enough and elapsed + elapsed / done > args.seconds:
            break

    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:5],
        "pass_s": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "inputs": state.get("shares", {"persons": state.get("persons")}),
    }
    if tracer:
        tracing.assert_no_wrappers()
        em_ms = 0.0
        if workload.lpa_k is not None:
            em_ms = workloads.em_iter_ms(workload.em_data(inputs),
                                         workload.lpa_k)
        overhead = median(traced) - median(untraced)
        layer = tracing.layer_values(totals, setup_totals, em_ms, overhead)
        result.update(
            traced_pass_s=traced,
            layer=layer,
            gaps=tracing.coverage_gaps(layer, args.workload),
            per_call={name: [1e3 * s for s in times]
                      for name, times in totals.call_s.items()},
        )
    print(json.dumps(result), flush=True)
    return 0


class Runner:
    """Runs passes on fresh copies of the inputs and checks every output:
    exit codes, the workload's own checks, byte-identical outputs across
    passes, and, at the default seed, the recorded reference values."""

    def __init__(self, workload, inputs: Path, work: Path, state: dict,
                 reference: dict):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.state = state
        self.reference = reference
        self.first_digests: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.count = 0

    def one_pass(self) -> float:
        self.count += 1
        pass_dir = self.work / f"pass-{self.count}"
        fresh = pass_dir / "inputs"
        shutil.copytree(self.inputs, fresh)
        out = pass_dir / "out"
        out.mkdir()
        gc.collect()  # start each pass from the same heap, outside the timing
        p = workloads.Pass(out)
        self.workload.run_pass(p, fresh, self.state)
        if self.first_digests is None:
            self.first_digests = dict(p.digests)
        for op in p.ops:
            if op.error is None and op.name in self.first_digests:
                if p.digests.get(op.name) != self.first_digests[op.name]:
                    op.error = "outputs differ from the first pass"
            if op.error is None and op.name in self.reference:
                op.error = workloads.compare_quantities(
                    p.quantities.get(op.name, {}), self.reference[op.name],
                    self.workload.blrt_step())
            self.attempted += 1
            if op.error is not None:
                self.failed += 1
                self.errors.append(f"pass {self.count} {op.name}: {op.error}")
        shutil.rmtree(pass_dir)
        return p.seconds


if __name__ == "__main__":
    sys.exit(main())
