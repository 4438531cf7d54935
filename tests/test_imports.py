"""Every top-level import of the package and the tests is used, and every
name imported from a module of the package is public there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "powermarket").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))

# not called in verify.py: bench/spans.py rebinds verify.build_lp to time it,
# until the run telemetry moves into the package (ROADMAP item 1)
ALLOWED = {("verify.py", "build_lp")}


def public_names(tree: ast.Module) -> set:
    """The entries of the ``__all__`` assignments of ``tree``."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


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
    used = public_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):  # a pytest fixture is named by an argument
            used.add(node.arg)
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used and (path.name, name) not in ALLOWED]


def test_every_import_is_used():
    assert [unused for path in SOURCES for unused in unused_imports(path)] == []


def private_imports(path: Path) -> list:
    """The names ``path`` imports, at any depth, from a module of the
    package that are neither in its ``__all__`` nor marked private by a
    leading underscore."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.module.startswith("powermarket."):
            module = node.module.removeprefix("powermarket.")
        else:
            continue
        source = ROOT / "src" / "powermarket" / f"{module}.py"
        public = public_names(ast.parse(source.read_text(encoding="utf-8")))
        out += [f"{path.name}:{node.lineno} {module}.{alias.name}" for alias in node.names
                if alias.name not in public and not alias.name.startswith("_")]
    return out


def test_every_imported_name_is_public():
    assert [name for path in SOURCES for name in private_imports(path)] == []
