"""Package surface: every exported name resolves, every import is read,
and every private helper has a caller."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
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


def _unreferenced_private_defs(path: Path) -> list[str]:
    """Module-level ``_name`` functions and classes of ``path`` that no
    code outside their own body reads."""
    tree = ast.parse(path.read_text())

    def reads(node: ast.AST) -> Counter:
        return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name))

    everywhere = reads(tree)
    return [f"{path.name}:{node.lineno} {node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and everywhere[node.name] == reads(node)[node.name]]


def test_no_dead_private_helpers():
    src = Path(liftlab.__file__).parent
    dead = [d for path in sorted(src.glob("*.py"))
            for d in _unreferenced_private_defs(path)]
    assert not dead


def _callers(path: Path, name: str) -> set[str]:
    """``module.function`` for each module-level function or class of
    ``path`` that calls ``name``, directly or by attribute, anywhere in its
    body; a call outside them counts as ``module.<module>``."""
    callers = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return callers


def test_rk4_step_is_called_only_by_march():
    # one loop owns the spare state and the RK4 work; no caller swaps by hand
    src = Path(liftlab.__file__).parent
    assert set().union(*(_callers(path, "rk4_step") for path in src.glob("*.py"))) \
        == {"grid.march"}


def test_scope_is_entered_only_by_verify_trials():
    # a node made in a scope is dropped on exit, so only callers that keep
    # no node past it may open one
    src = Path(liftlab.__file__).parent
    assert set().union(*(_callers(path, "scope") for path in src.glob("*.py"))) \
        == {"verify._run_checks"}


def _package_env() -> dict:
    """The environment of a child that imports the same liftlab as this process."""
    package_root = str(Path(liftlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def test_verify_imports_no_numpy():
    # the exact kernel and the numerical path are separate layers: verify
    # decides every identity without the grid, so it loads no numpy
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, liftlab.verify; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'numpy')[:3])"],
        capture_output=True, text=True, env=_package_env(), timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_the_command_line_loads_no_study_harness():
    # the study harness serves tests and scripts/ only: a run compiles none of it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, liftlab.cli, liftlab.sim; "
         "print('liftlab.studies' in sys.modules)"],
        capture_output=True, text=True, env=_package_env(), timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
