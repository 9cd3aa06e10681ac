"""Every public module-level function and class, and every public class member, is used.

A module-level name counts as used when src/ or tests/ references it (as a
name, an attribute or an imported name) outside its own definition.  A
public method, property or annotated field of a public class counts as used
when src/ or tests/ reads an attribute of that name.  API that neither the
library, the harness nor the tests use is dead code.
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


def _public_members(cls: ast.ClassDef):
    """Public methods, properties and annotated fields of a class body."""
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = stmt.name
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name


def test_no_unread_public_class_members():
    defined = []  # (module path, class name, member name)
    read = set()  # attribute names read anywhere in src/ or tests/
    for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        if not path.is_relative_to(PACKAGE):
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                defined += [(path, stmt.name, m) for m in _public_members(stmt)]
    dead = sorted(f"{path.relative_to(PACKAGE)}:{cls}.{member}"
                  for path, cls, member in defined if member not in read)
    assert not dead, f"public class members read nowhere in src/ or tests/: {dead}"
