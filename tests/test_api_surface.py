"""Every public module-level function and class, every public class member, and
every optional parameter of a public function or method is used.

A module-level name counts as used when src/ or tests/ references it (as a
name, an attribute or an imported name) outside its own definition.  In a
test file, a bare name that the file itself defines at top level refers to
that local helper, not to a src/ name of the same spelling.  A public
method, property or annotated field of a public class counts as used when
src/ or tests/ reads an attribute of that name.  An optional parameter
counts as used when some call sets it.  API that neither the library, the
harness nor the tests use is dead code.
"""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weilfield"


def _references(node: ast.AST, local=frozenset()):
    """Names, attributes and imported names in node; bare names in local are skipped."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id not in local:
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
        local = frozenset() if path.is_relative_to(PACKAGE) else frozenset(
            stmt.name for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if path.is_relative_to(PACKAGE) and not owner.startswith("_"):
                    defined.append((path, owner))
            for name in _references(stmt, local):
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



def _optional_parameters(fn: ast.FunctionDef, method: bool):
    """(name, position) of each parameter with a default; keyword-only ones have none.

    A method's positions count from the first argument after self or cls.
    """
    args = fn.args.posonlyargs + fn.args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    first = len(args) - len(fn.args.defaults)
    for index, arg in enumerate(args[first:], start=first):
        yield arg.arg, index - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether call passes the parameter by keyword or position, or may by a splat."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args)


def test_every_optional_parameter_is_set():
    """Every optional parameter of a public function or method is set by some call.

    Calls are matched to definitions by name only, so a parameter counts as
    set when any call of that name in src/ or tests/ passes it.
    """
    optional = []  # (module path, qualified name, callee name, parameter, position)
    calls = defaultdict(list)  # callee name -> calls in src/ or tests/
    for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[callee].append(node)
        if not path.is_relative_to(PACKAGE):
            continue
        for stmt in tree.body:
            if getattr(stmt, "name", "_").startswith("_"):
                continue
            if isinstance(stmt, ast.FunctionDef):
                defs = [(stmt, stmt.name, False)]
            elif isinstance(stmt, ast.ClassDef):
                defs = [(f, f"{stmt.name}.{f.name}", True) for f in stmt.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
            else:
                continue
            for fn, qualname, method in defs:
                optional += [(path, qualname, fn.name, *param)
                             for param in _optional_parameters(fn, method)]
    unset = sorted(f"{path.relative_to(PACKAGE)}:{qualname}({param}=)"
                   for path, qualname, callee, param, position in optional
                   if not any(_sets(c, param, position) for c in calls[callee]))
    assert not unset, f"optional parameters no call in src/ or tests/ sets: {unset}"
