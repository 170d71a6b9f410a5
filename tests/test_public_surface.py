"""Every public top-level name in ``src/daycycle`` is reached by a pipeline.

A name counts as reached when a ``Name``, an ``Attribute`` or an import alias
refers to it from ``src/`` outside its own definition, from the acceptance
criteria (``tests/test_acceptance.py``) or from the benchmark
(``perfbench/*.py``).  A name that only its own unit tests call is library
surface that no pipeline needs; delete it with its tests instead of keeping
it alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "daycycle").glob("*.py"))
CALLERS = [ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]

# name -> why it stays without a caller
UNREACHED_BY_DESIGN = {
    "step3_covariate": "ML step 3 with covariates, a north-star pipeline "
                       "that ROADMAP direction 3 wires into the CLI",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined_names(node) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for tgt in targets for t in ast.walk(tgt)
            if isinstance(t, ast.Name)]


def _references(tree) -> set[str]:
    """The names ``tree`` refers to."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update((node.name.rpartition(".")[2], node.asname))
    return found


def _unreached() -> dict[str, str]:
    """Public top-level names of ``src/daycycle``, each as name ->
    ``module.name``, that nothing above refers to."""
    stmts = [(path, stmt, _references(stmt))
             for path in SRC for stmt in _parse(path).body]
    reached = set().union(*(_references(_parse(p)) for p in CALLERS))
    unreached = {}
    for path, stmt, _ in stmts:
        for name in _defined_names(stmt):
            if name.startswith("_") or name in reached:
                continue
            # a reference from the name's own definition does not count
            if any(name in refs for _, other, refs in stmts if other is not stmt):
                continue
            unreached[name] = f"{path.stem}.{name}"
    return unreached


def test_every_public_name_is_reached():
    unreached = _unreached()
    for name in UNREACHED_BY_DESIGN:
        assert unreached.pop(name, None), (
            f"{name} is reached now: take it off UNREACHED_BY_DESIGN")
    assert not unreached, ("reached only by their own unit tests, if at "
                           "all: " + ", ".join(sorted(unreached.values())))
