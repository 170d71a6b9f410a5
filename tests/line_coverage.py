"""Print the lines of ``src/daycycle`` that the tier-1 suite never runs.

    python tests/line_coverage.py [pytest arguments]

Runs pytest (by default the whole suite, as ``python -m pytest`` from the
repository root collects it) in this process under a ``sys.settrace`` line
collector; no coverage package is needed.  The process first pins itself to
one CPU, so that ``lpa`` runs its EM blocks in process rather than in forked
workers, which the collector does not follow (``lpa`` forks none on a
platform without CPU affinity).  A line is executable when a code object
compiled from its file maps bytecode to it.

Prints each never-run line with the function that holds it, and exits 1
when one of them is not in ``ALLOWED`` (or when the suite fails).  It takes
about twice as long as the suite itself.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "daycycle"

# (module, function, stripped source line or None for every line of the
# function) -> why tier-1 cannot run it.
ALLOWED = {
    ("__main__.py", "<module>", "sys.exit(main())"):
        "runs only as `python -m daycycle`, in a subprocess",
    ("lpa.py", "_cpus", "return 1"):
        "for a platform without os.sched_getaffinity",
    ("lpa.py", "_run_blocks", "workers = 1"):
        "for a platform that cannot fork, or a daemonic caller",
    ("lpa.py", "_serve_blocks", None):
        "runs in forked EM workers, which the collector does not follow",
}


def executable_lines(path: Path) -> dict[int, str]:
    """Each line that a code object of the file maps bytecode to, with the
    qualified name of the innermost code object that holds it."""
    owner = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        for _, _, line in code.co_lines():
            if line is not None and line > 0:
                owner[line] = code.co_qualname
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return owner


def run_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines of the package it ran, by file."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event in ("line", "call"):
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    if hasattr(os, "sched_setaffinity"):  # elsewhere lpa runs in process
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    return int(code), ran


def main(args: list[str]) -> int:
    os.chdir(ROOT)  # pytest puts ROOT/src on the import path
    code, ran = run_suite(args)
    total = missed = 0
    unexplained = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        owner = executable_lines(path)
        hit = ran.get(str(path), set())
        total += len(owner)
        for line in sorted(set(owner) - hit):
            missed += 1
            text = source[line - 1].strip()
            function = owner[line].rsplit(".", 1)[-1]
            reason = ALLOWED.get((path.name, function, text),
                                 ALLOWED.get((path.name, function, None)))
            print(f"{path.name}:{line} {owner[line]}: {text}"
                  f"  [{reason or 'NOT ALLOWED'}]")
            if reason is None:
                unexplained.append(line)
    print(f"{total - missed} of {total} executable lines ran; {missed} did "
          f"not, {len(unexplained)} of them outside ALLOWED")
    if code:
        print(f"the suite failed (pytest exit code {code})")
    return 1 if code or unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
