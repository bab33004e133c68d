"""Package surface: every exported name resolves, and every import is read."""

import ast
import importlib
import pkgutil
from pathlib import Path

import liftlab


def test_every_name_in_all_resolves():
    missing = []
    for info in pkgutil.iter_modules(liftlab.__path__):
        module = importlib.import_module(f"liftlab.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing


def _orphaned_imports(path: Path) -> list[str]:
    """Module-level imports of ``path`` that no code reads and ``__all__``
    does not re-export."""
    tree = ast.parse(path.read_text())
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used | exported]


def test_no_orphaned_imports():
    src = Path(liftlab.__file__).parent
    orphans = [o for path in sorted(src.glob("*.py")) if path.name != "__init__.py"
               for o in _orphaned_imports(path)]
    assert not orphans
