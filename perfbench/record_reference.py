"""Record the reference values that the benchmark checks at the default seed.

Run from the root of a checkout, on the commit whose outputs are the
reference::

    python3 perfbench/record_reference.py

It sets up each workload at the default seed, runs one pass, and writes the
values its checks compare (per-K log-likelihoods, the selected K, BLRT
p-values, ISM and CoDA estimates, step-3 coefficients) to
``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.WORKLOAD_NAMES:
        workload = workloads.make_workload(name)
        work = Path(tempfile.mkdtemp(prefix=".perfbench-ref-", dir=Path.cwd()))
        try:
            inputs = work / "inputs"
            inputs.mkdir()
            state = workload.setup(inputs, workloads.DEFAULT_SEED)
            out = work / "out"
            out.mkdir()
            p = workloads.Pass(out)
            workload.run_pass(p, inputs, state)
        finally:
            shutil.rmtree(work)
        failed = [f"{op.name}: {op.error}" for op in p.ops if op.error]
        if failed:
            print("\n".join(failed), file=sys.stderr)
            return 1
        reference[name] = p.quantities
        print(f"{name}: {sum(len(q) for q in p.quantities.values())} values")
    workloads.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
