"""Package surface: every public name has a caller inside the package."""

import ast
import importlib
from pathlib import Path

import smbounds
from smbounds import bounds

MODULES = ("bounds", "cumulant", "montecarlo", "oracle", "processes", "suites")


def _references():
    """Names that code in the package, outside `__init__.py`, loads or reads as
    an attribute, and the names of the `bounds._TABLE` entries, which declare
    each bound once and name it by string.  No other string counts, so a message or
    docstring that spells a public name does not use it.  Definitions and
    imports are not loads, and the `__all__` lists are skipped, so listing a
    name is not using it."""
    seen = {entry.name for entry in bounds._TABLE}
    for path in Path(smbounds.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        tree.body = [node for node in tree.body if not (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen.add(node.attr)
    return seen


def test_every_public_name_has_a_caller_in_the_package():
    used = _references()
    unused = [f"{mod}.{name}" for mod in MODULES
              for name in importlib.import_module(f"smbounds.{mod}").__all__
              if name not in used]
    assert unused == [], f"public names reached only from outside the package: {unused}"
