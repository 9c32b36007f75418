"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "parfell"


def unused_imports(path: Path) -> list[str]:
    """Module-level imported names that no ``Name`` node reads; an
    ``Attribute`` such as ``np.linalg`` reads its base ``Name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    # __init__ imports are the package's re-exports
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path)
    ]
    assert not found, found


def test_sources_parse_at_the_python_floor():
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    floor = (int(major), int(minor))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=floor)
