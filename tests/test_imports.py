"""Every top-level import of the package and the tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "powermarket").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))

# not called in verify.py: bench/spans.py rebinds verify.build_lp to time it,
# until the run telemetry moves into the package (ROADMAP item 1)
ALLOWED = {("verify.py", "build_lp")}


def unused_imports(path: Path) -> list:
    """The names bound by the module-level imports of ``path`` that appear
    nowhere as a name, a function argument or an entry of ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):  # a pytest fixture is named by an argument
            used.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used and (path.name, name) not in ALLOWED]


def test_every_import_is_used():
    # __init__.py only re-exports
    assert [unused for path in SOURCES if path.name != "__init__.py"
            for unused in unused_imports(path)] == []
