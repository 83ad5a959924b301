"""Package-wide structure guards."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qreduce
from qreduce import sampling
from qreduce.algebra import StarAlgebra

# Kept without a caller for now: ROADMAP items 1 and 2 (a compatible J for
# every system, the isotypic decomposition) are expected to call them.  The
# guard below fails when one of them gains a caller, so the set can only
# shrink.
AWAITING_CALLERS = {"center"}
# Methods whose callers live outside the package's own code: the JSON
# round trips (the wire format) and argparse's error hook.
EXTERNAL_CALLERS = {"to_json", "from_json", "_Parser.error"}

SRC = Path(qreduce.__file__).parent
TESTS = Path(__file__).parent


def _trees(folder, skip=("__init__",)):
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(folder.glob("*.py")) if path.stem not in skip}


def _walk(node, around=()):
    """Every node below `node`, with the class and function definitions
    that enclose it (innermost last)."""
    for child in ast.iter_child_nodes(node):
        yield child, around
        inner = around + (child,) if isinstance(
            child, (ast.ClassDef, ast.FunctionDef)) else around
        yield from _walk(child, inner)


def _defined_names(node) -> list[str]:
    """The names a module-level statement defines: a function, a class or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    return [t.id for t in getattr(node, "targets", ())
            if isinstance(t, ast.Name)]


def _module_references(module, tree):
    """(module-level statement, (defining module, name)) for each read of
    a module-level name in `tree`: a bare name resolves through the
    `from ... import` that bound it, else to `module` itself, and `m.name`
    resolves to the package module m."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("qreduce").lstrip(".")
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    (source, alias.name) if source else (alias.name, None))
    for top in tree.body:
        for sub, _ in _walk(top):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                target = bound.get(sub.id, (module, sub.id))
                if target[1] is not None:
                    yield top, target
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and bound.get(sub.value.id, ("", ""))[1] is None):
                yield top, (bound[sub.value.id][0], sub.attr)


def _uncalled_module_names(package, tests):
    """Public module-level functions, classes and constants that no package
    module other than `__init__` reads outside their own definition;
    `sampling`, the seeded-instance library, may be read by the tests
    instead."""
    read = {target for module, tree in package.items()
            for top, target in _module_references(module, tree)
            if not (target[0] == module and target[1] in _defined_names(top))}
    read |= {("sampling", name) for module, tree in tests.items()
             for _, (source, name) in _module_references(module, tree)
             if source == "sampling"}
    return [name for module, tree in package.items() for node in tree.body
            for name in _defined_names(node)
            if not name.startswith("_") and (module, name) not in read]


def _uncalled_methods(package):
    """Public methods, properties and classmethods with no attribute
    reference `x.name` in a package module other than `__init__`, outside
    their own definition.  A classmethod counts as called only through its
    own class: by the class name, or as `cls` inside the class body."""
    refs = [(sub, around) for tree in package.values()
            for sub, around in _walk(tree)
            if isinstance(sub, ast.Attribute)]
    uncalled = []
    for tree in package.values():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for meth in cls.body:
                if (not isinstance(meth, ast.FunctionDef)
                        or meth.name.startswith("_")
                        or {meth.name, f"{cls.name}.{meth.name}"}
                        & EXTERNAL_CALLERS):
                    continue
                on_class = any(getattr(d, "id", None) == "classmethod"
                               for d in meth.decorator_list)

                def calls(ref, around):
                    if ref.attr != meth.name or meth in around:
                        return False
                    receiver = getattr(ref.value, "id", None)
                    return not on_class or receiver == cls.name or (
                        receiver == "cls" and cls in around)

                if not any(calls(ref, around) for ref, around in refs):
                    uncalled.append(f"{cls.name}.{meth.name}")
    return uncalled


def test_every_public_name_has_a_caller_in_the_package():
    """Every public module-level function, class and constant, and every
    public method, property and classmethod, is read by the package
    itself, apart from the names awaiting a caller; a name on that list
    that gains a caller must leave it."""
    package, tests = _trees(SRC), _trees(TESTS, skip=())
    uncalled = (_uncalled_module_names(package, tests)
                + _uncalled_methods(package))
    assert sorted(uncalled) == sorted(AWAITING_CALLERS)


def test_every_parameter_default_is_overridden_by_a_caller():
    """A parameter with a default is set, by position or by keyword, by
    some call in the package: a default that no caller overrides is an
    option nobody uses.  Calls match by name (`cls(...)` by its class);
    `main` takes its argv from the command line and the benchmark, and a
    function awaiting a caller has none yet."""
    package = _trees(SRC)
    calls = {}
    for tree in package.values():
        for sub, around in _walk(tree):
            if isinstance(sub, ast.Call):
                name = getattr(sub.func, "id", getattr(sub.func, "attr", None))
                if name == "cls":
                    name = next(n.name for n in reversed(around)
                                if isinstance(n, ast.ClassDef))
                calls.setdefault(name, []).append(sub)
    unset = []
    for tree in package.values():
        for node, around in _walk(tree):
            if not isinstance(node, ast.FunctionDef) or any(
                    isinstance(n, ast.FunctionDef) for n in around):
                continue
            owner = around[-1].name if around else None
            name = owner if node.name == "__init__" else node.name
            qualname = f"{owner}.{node.name}" if owner else node.name
            if (name.startswith("_") or name == "main"
                    or {name, qualname} & AWAITING_CALLERS):
                continue
            args = node.args.args[1 if owner else 0:]
            first = len(args) - len(node.args.defaults)
            for pos, arg in enumerate(args[first:], start=first):
                if not any(len(call.args) > pos
                           or any(k.arg in (arg.arg, None)
                                  for k in call.keywords)
                           for call in calls.get(name, ())):
                    unset.append(f"{qualname}({arg.arg})")
    assert unset == []


# Runs in a fresh interpreter in which `import scipy` raises ImportError,
# so a scipy import on the way of any of these calls fails the script.
_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
sys.modules["scipy"] = None
import qreduce.cli
path = sys.argv[1]
for argv in (["verify", "--seed", "42", "--dims", "2", "--trials", "2"],
             ["classify", path], ["reduce", path],
             ["demo", "adler"]):
    report = io.StringIO()
    with contextlib.redirect_stdout(report), contextlib.redirect_stderr(report):
        code = qreduce.cli.main(argv)
    print(argv[0], code)
"""


def _run_python(*args):
    src = str(Path(qreduce.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_leaves_scipy_out():
    out = _run_python("-c", "import sys, qreduce.cli; "
                      "print('scipy' in sys.modules)")
    assert out.split() == ["False"]


def test_cli_runs_with_scipy_blocked(tmp_path):
    """scipy is a test oracle only: every command runs without it."""
    gens, _ = sampling.plant_complex_induced(np.random.default_rng(0), 2)
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(StarAlgebra(gens).to_json()))
    out = _run_python("-c", _NO_SCIPY_SCRIPT, str(path))
    assert out.split() == ["verify", "0", "classify", "0", "reduce", "0",
                           "demo", "0"]
