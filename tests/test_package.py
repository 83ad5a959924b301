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

# Kept without a caller for now: ROADMAP items 1-2 (a compatible J for
# every system, the isotypic decomposition) are expected to call them.
AWAITING_CALLERS = {"center", "real_subspace_and_left_mult"}


def test_every_public_name_has_a_caller_in_the_package():
    """Each public module-level function or class is referenced by name
    from some module of the package other than `__init__`, outside its own
    definition.  `sampling` is exempt: it is the seeded-instance library
    that the tests share."""
    src = Path(qreduce.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    used = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            used |= {sub.id for sub in ast.walk(node)
                     if isinstance(sub, ast.Name)
                     and sub.id != getattr(node, "name", None)}
    offenders = [(module, node.name)
                 for module, tree in trees.items()
                 if module not in {"__init__", "sampling"}
                 for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")
                 and node.name not in used | AWAITING_CALLERS]
    assert offenders == []


# Runs in a fresh interpreter in which `import scipy` raises ImportError,
# so a scipy import on the way of any of these calls fails the script.
_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
sys.modules["scipy"] = None
import qreduce.cli
path = sys.argv[1]
for argv in (["verify", "--seed", "42", "--dims", "2", "--trials", "2"],
             ["classify", path], ["reduce", path],
             ["demo", "adler"], ["demo", "counitary"]):
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
                           "demo", "0", "demo", "0"]
