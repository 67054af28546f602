"""The package exports only names that the package or a demo uses."""

import ast
from pathlib import Path

import schauderlab

PACKAGE = Path(schauderlab.__file__).parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _uses(path: Path) -> list:
    """(name the statement defines or None, names it loads, reads as
    attributes or imports) for each top-level statement of a file."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
        out.append((getattr(stmt, "name", None), used))
    return out


def test_every_export_is_used_outside_its_definition():
    # one level deep: a name whose only users are themselves unused passes
    exports = [
        (node.module, alias.name)
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exports
    files = {path: _uses(path) for path in [*PACKAGE.glob("*.py"), *DEMOS.glob("*.py")]}
    unused = [
        f"{module}.{name}"
        for module, name in exports
        if not any(
            name in used
            for path, statements in files.items() if path.name != "__init__.py"
            for defined, used in statements
            if not (path == PACKAGE / f"{module}.py" and defined == name)
        )
    ]
    assert not unused
