"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "parfell"

# exported names kept without a caller in the places test_exports_have_callers
# reads, each with its reason
EXPORT_ALLOWLIST = {
    "nearest_projection": "perfbench/layertrace.py spans it by name, and its test "
                          "asserts that no layer function is missing",
    "corner_inv_sqrt": "perfbench/layertrace.py spans it by name, and its test "
                       "asserts that no layer function is missing",
}


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


def exported_names() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.module != "__future__" for a in node.names]


def read_names(path: Path) -> set[str]:
    """Names a file reads, bare or as an attribute such as ``pf.validate``;
    a definition or an import alone reads nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_exports_have_callers():
    """Every exported name is read by the CLI, a demo, the acceptance
    tests or another part of the package."""
    callers = [*sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py",
               *(path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py")]
    reached = set().union(*map(read_names, callers))
    unreached = [name for name in exported_names()
                 if name not in reached and name not in EXPORT_ALLOWLIST]
    assert not unreached, unreached
    stale = set(EXPORT_ALLOWLIST) - (set(exported_names()) - reached)
    assert not stale, f"allowlisted names that are reached or not exported: {sorted(stale)}"
