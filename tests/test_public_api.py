"""Every name that ``cvcluster`` exports must be used by something other than
its own unit tests: the package itself, the benchmark or the acceptance suite.
A name that only its own tests call is API kept for symmetry; delete it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cvcluster"


def _exported() -> list:
    """The names that ``cvcluster/__init__.py`` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _word(name: str) -> re.Pattern:
    return re.compile(rf"\b{re.escape(name)}\b")


def _code_names(path: Path) -> set:
    """The names a module's code reads: ``ast.Name`` loads and attribute
    names, f-strings included; not docstrings, comments or assignments."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_every_exported_name_has_a_caller_beyond_its_tests():
    used = set().union(
        *(_code_names(path) for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    )
    # The tracer names what it patches in strings, so these count as text.
    others = sorted((ROOT / "perfbench").rglob("*.py"))
    others.append(ROOT / "tests" / "test_acceptance.py")
    text = "\n".join(path.read_text() for path in others)
    exported = _exported()
    assert {"compile", "exact_replay", "run_program", "SymplecticMap"} <= set(exported)
    unused = [name for name in exported if name not in used and not _word(name).search(text)]
    assert not unused, f"exported names that only their own tests reach: {unused}"

