"""Every public module-level function and class is used somewhere.

A name counts as used when src/ or tests/ references it (as a name, an
attribute or an imported name) outside its own definition.  API that
neither the library, the harness nor the tests use is dead code.
"""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weilfield"


def _references(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def test_no_unreferenced_public_api():
    defined = []  # (module path, name)
    sites = defaultdict(set)  # name -> {(module path, enclosing top-level name)}
    for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if path.is_relative_to(PACKAGE) and not owner.startswith("_"):
                    defined.append((path, owner))
            for name in _references(stmt):
                sites[name].add((path, owner))
    dead = sorted(f"{path.relative_to(PACKAGE)}:{name}" for path, name in defined
                  if not sites[name] - {(path, name)})
    assert not dead, f"public API referenced nowhere in src/ or tests/: {dead}"
