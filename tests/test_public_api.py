"""The public API holds no test-only code: every exported name has a use in the program."""

import ast
from pathlib import Path

import cdsopt

ROOT = Path(__file__).resolve().parent.parent


def program_references() -> set[str]:
    """The names and attributes that ``src/cdsopt`` (without ``__init__.py``) and
    ``perfbench`` read, plus the attributes a ``LAYER_PATCHES`` table patches by name."""
    paths = [path for path in sorted((ROOT / "src" / "cdsopt").glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYER_PATCHES" for target in node.targets
            ):
                # rows of (module, attribute name, ...)
                names.update(row.elts[1].value for row in node.value.elts)
    return names


def test_every_public_name_is_used_by_the_program():
    assert sorted(set(cdsopt.__all__) - program_references()) == []
