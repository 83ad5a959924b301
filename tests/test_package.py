"""Package-wide structure guards."""

import ast
from pathlib import Path

import qreduce

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
