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


# float literals below 1e-5 outside the tolerance registry, by file and the
# top-level definition that holds them: numeric-range guards that decide no
# result
RANGE_GUARDS = {
    ("matrices.py", "BOUND_MARGIN", 1e-12): "relative slack on a norm bound",
    ("matrices.py", "norm_bounds", 1e-30): "the eighth powers' scaling window",
    ("matrices.py", "norms_unless_below", 1e-140): "the Frobenius bound's range",
}


def registry() -> dict[str, str]:
    """``matrices.TOLERANCES`` as written: printed key to constant name."""
    tree = ast.parse((SRC / "matrices.py").read_text(encoding="utf-8"))
    node = next(node for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TOLERANCES"])
    return {key.value: value.id for key, value in zip(node.value.keys, node.value.values)}


def small_float_literals(path: Path) -> list[tuple[str, str, float]]:
    """``(file, top-level name, value)`` of each float literal in ``(0, 1e-5)``."""
    found = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(stmt, "name", None)
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            owner = stmt.targets[0].id
        found += [(path.name, owner, node.value) for node in ast.walk(stmt)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0.0 < node.value < 1e-5]
    return found


def test_thresholds_live_in_the_registry():
    """Every small float literal in ``src/`` defines a registry entry or is
    an allowlisted range guard, and the registry prints each constant under
    its lower-cased name."""
    names = registry()
    assert names == {name.lower(): name for name in names.values()}
    literals = [hit for path in sorted(SRC.glob("*.py")) for hit in small_float_literals(path)]
    stray = [hit for hit in literals if hit not in RANGE_GUARDS
             and not (hit[0] == "matrices.py" and hit[1] in names.values())]
    assert not stray, stray
    stale = set(RANGE_GUARDS) - set(literals)
    assert not stale, f"allowlisted literals not found: {sorted(stale)}"


def test_registry_entries_are_read():
    """Each registry constant is read by some code in ``src/``, apart from
    ``TOLERANCES`` itself."""
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["TOLERANCES"]):
                reads |= {node.id for node in ast.walk(stmt)
                          if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = sorted(set(registry().values()) - reads)
    assert not unread, unread
