"""Every public top-level name in ``src/daycycle`` is reached by a pipeline,
every public method is called by one, every public property is read by one,
and every option of a public function or method is set by one.

A name counts as reached when a ``Name``, an ``Attribute`` or an import alias
refers to it from ``src/`` outside its own definition, from the acceptance
criteria (``tests/test_acceptance.py``) or from the benchmark
(``perfbench/*.py``).  A name that only its own unit tests call is library
surface that no pipeline needs; delete it with its tests instead of keeping
it alive.  An option, a parameter with a default, counts as set when a call
from the same places passes it, by keyword or by position; one that only
tests set becomes the value the pipelines use.  A method (not a property)
of a public class counts as called when a call from the same places names it
as ``.method(...)``, and a property of a public class counts as read when an
attribute there names it as ``.name``.

The method and property scans match by name alone: a call or read of a
member of the same name on another class counts too (``Composition.D``
passed while ``SBPartition.D`` was read), and a read through a string, as
``attrgetter("sleep_min")`` does, does not count.
"""

import ast
import functools
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


# function.parameter -> why it stays without a caller that sets it
UNSET_BY_DESIGN = {
    "main.argv": "perfbench hands cli.main to its runner, which passes argv",
    "step3_covariate.reference": "step3_covariate waits for ROADMAP "
                                 "direction 3 (see UNREACHED_BY_DESIGN)",
}


@functools.cache  # one tree per file, so that its nodes compare by identity
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


def _options(tree: ast.Module):
    """``(definition, parameter, position)`` for each parameter with a
    default of a public top-level function or of a public method of a public
    class.  ``position`` is the index of the call argument that sets it
    (a call through an attribute does not pass a method's ``self`` or
    ``cls``), None for a keyword-only parameter."""
    functions = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    methods = [item for node in tree.body if isinstance(node, ast.ClassDef)
               and not node.name.startswith("_")
               for item in node.body if isinstance(item, ast.FunctionDef)]
    for node in functions + methods:
        if node.name.startswith("_"):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        bound = int(node in methods and bool(positional)
                    and positional[0].arg in ("self", "cls"))
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], start=first - bound):
            yield node, arg.arg, i
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield node, arg.arg, None


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` sets ``param``: by keyword, by ``**``, by a
    positional argument at ``position`` or by a ``*`` argument before it."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if position is None:
        return False
    starred = [i for i, arg in enumerate(call.args)
               if isinstance(arg, ast.Starred)]
    return len(call.args) > position or bool(starred and starred[0] <= position)


def _nodes(kind: type[ast.AST]) -> list[tuple]:
    """``(unit, node)`` for each ``kind`` node from the acceptance criteria,
    the benchmark and ``src/``; ``unit`` is the top-level statement or
    method around a node in ``src/``, None elsewhere."""
    nodes = []
    for path in CALLERS:
        nodes += [(None, n) for n in ast.walk(_parse(path))
                  if isinstance(n, kind)]
    for path in SRC:
        units = [item for stmt in _parse(path).body for item in
                 (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])]
        nodes += [(unit, n) for unit in units for n in ast.walk(unit)
                  if isinstance(n, kind)]
    return nodes


def _members(properties: bool) -> list[tuple]:
    """``(class name, definition)`` for each public property (or each public
    method that is not one) of a public class of ``src/``."""
    return [(node.name, item) for path in SRC for node in _parse(path).body
            if isinstance(node, ast.ClassDef)
            and not node.name.startswith("_")
            for item in node.body if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")
            and properties == any(getattr(d, "id", None) == "property"
                                  for d in item.decorator_list)]


def _unused(members: list[tuple], used: list[tuple]) -> list[str]:
    """``class.member`` for each of ``members`` whose name no ``(unit,
    name)`` of ``used`` outside the member's own definition holds."""
    return sorted(f"{cls}.{item.name}" for cls, item in members
                  if not any(where is not item and name == item.name
                             for where, name in used))


def test_every_public_method_is_called_by_a_pipeline():
    called = [(where, call.func.attr) for where, call in _nodes(ast.Call)
              if isinstance(call.func, ast.Attribute)]
    uncalled = _unused(_members(properties=False), called)
    assert not uncalled, ("methods called only by tests, if at all: "
                          + ", ".join(uncalled))


def test_every_public_property_is_read_by_a_pipeline():
    read = [(where, node.attr) for where, node in _nodes(ast.Attribute)]
    unread = _unused(_members(properties=True), read)
    assert not unread, ("properties read only by tests, if at all: "
                        + ", ".join(unread))


def _unset() -> list[str]:
    """``function.parameter`` for each option that no call from ``src/``
    outside the function's own definition, the acceptance criteria or the
    benchmark sets.  Calls match by the called name alone, so a call of
    another function of the same name also counts."""
    options = [option for path in SRC for option in _options(_parse(path))]
    calls = _nodes(ast.Call)
    unset = []
    for node, param, position in options:
        if not any(where is not node
                   and node.name in (getattr(call.func, "id", None),
                                     getattr(call.func, "attr", None))
                   and _passes(call, param, position)
                   for where, call in calls):
            unset.append(f"{node.name}.{param}")
    return sorted(unset)


def test_every_option_is_set_by_a_pipeline():
    unset = _unset()
    for option in UNSET_BY_DESIGN:
        assert option in unset, (
            f"{option} is set now: take it off UNSET_BY_DESIGN")
        unset.remove(option)
    assert not unset, ("options set only by tests, if at all: "
                       + ", ".join(unset))
