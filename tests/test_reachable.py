"""Every function and class of `domlab` feeds a check or the CLI.

The test parses `src/domlab` with `ast` and builds a static reference
graph over module-qualified top-level names.  A name is reached from
`cli.main` or from a module-level statement other than an import or a
definition (the `CHECKS` registry, the `__main__` guard), through any
reference in the body of a reached definition: a bare name resolved
through the module's own definitions and its imports from the package,
or `module.attr` on an imported package module.  A top-level function
or class, public or private, that only unit tests call is reported by
name.  The walk is type-blind, so it errs towards reaching: a local
variable that shadows a module-level name counts as a reference to it.
"""

import ast
from pathlib import Path

import domlab

PACKAGE = Path(domlab.__file__).parent
ROOT = ("cli", "main")


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _bindings(name: str, tree: ast.Module, modules) -> dict[str, tuple]:
    """Local name -> ("def", module, name) or ("module", module)."""
    out: dict[str, tuple] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                local = alias.asname or alias.name
                if stmt.module is None and alias.name in modules:
                    out[local] = ("module", alias.name)
                else:
                    out[local] = ("def", stmt.module or "__init__", alias.name)
        elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            out[stmt.name] = ("def", name, stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    out[target.id] = ("def", name, target.id)
    return out


def _references(node: ast.AST, bindings: dict[str, tuple]) -> set[tuple[str, str]]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            bound = bindings.get(sub.id)
            if bound and bound[0] == "def":
                found.add(bound[1:])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            bound = bindings.get(sub.value.id)
            if bound and bound[0] == "module":
                found.add((bound[1], sub.attr))
    return found


def unreached_names() -> list[str]:
    modules = _modules()
    bindings = {name: _bindings(name, tree, modules) for name, tree in modules.items()}
    bodies: dict[tuple[str, str], list[ast.AST]] = {}
    roots = {ROOT}
    for name, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault((name, stmt.name), []).append(stmt)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            else:
                roots |= _references(stmt, bindings[name])

    def resolve(key: tuple[str, str]) -> tuple[str, str]:
        # follow re-exports such as `from .graphs import Graph` in __init__
        while key not in bodies:
            bound = bindings.get(key[0], {}).get(key[1])
            if not bound or bound[0] != "def" or bound[1:] == key:
                return key
            key = bound[1:]
        return key

    reached: set[tuple[str, str]] = set()
    todo = [resolve(r) for r in roots]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for node in bodies.get(key, ()):
            todo.extend(resolve(r) for r in _references(node, bindings[key[0]]))
    return sorted(f"{m}.{n}" for m, n in set(bodies) - reached)


def test_every_function_and_class_is_reached():
    unreached = unreached_names()
    assert not unreached, "reached only from tests: " + ", ".join(unreached)
