"""Every function and class of `domlab` feeds a check or the CLI.

The test parses `src/domlab` with `ast` and builds a static reference
graph over module-qualified top-level names.  A name is reached from
`cli.main` or from a module-level statement other than an import or a
definition (the `CHECKS` registry, the `__main__` guard), through any
reference in the body of a reached definition: a bare name resolved
through the module's own definitions and its imports from the package,
or `module.attr` on an imported package module.  A reached class brings
its bases, decorators, fields and dunder methods; each other method or
property of it is reached only once a reached body reads an attribute of
that name (`x.name`, on any object).  A top-level function or class, or
a method, public or private, that only unit tests call is reported by
name.  The walk is type-blind, so it errs towards reaching: a local
variable that shadows a module-level name counts as a reference to it,
and any attribute read of a method's name reaches it.
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


def _is_method(stmt: ast.stmt) -> bool:
    """A non-dunder method or property, reached by attribute name only."""
    return isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        stmt.name.startswith("__") and stmt.name.endswith("__"))


def _attributes(node: ast.AST) -> set[str]:
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def unreached_names(modules: dict[str, ast.Module] | None = None) -> list[str]:
    modules = _modules() if modules is None else modules
    bindings = {name: _bindings(name, tree, modules) for name, tree in modules.items()}
    bodies: dict[tuple[str, str], list[ast.AST]] = {}
    methods: dict[tuple[str, str], list[tuple[str, tuple[str, str]]]] = {}
    roots = {ROOT}
    for name, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                bodies.setdefault((name, stmt.name), []).append(stmt)
            elif isinstance(stmt, ast.ClassDef):
                # the class body without its methods, which count on their own
                key = (name, stmt.name)
                body = bodies.setdefault(key, [])
                body += [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                for inner in stmt.body:
                    if _is_method(inner):
                        method = (name, f"{stmt.name}.{inner.name}")
                        bodies.setdefault(method, []).append(inner)
                        methods.setdefault(key, []).append((inner.name, method))
                    else:
                        body.append(inner)
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
    read: set[str] = set()  # attribute names that reached bodies read
    waiting: dict[str, list[tuple[str, str]]] = {}  # attribute name -> methods
    todo = [resolve(r) for r in roots]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for node in bodies.get(key, ()):
            todo.extend(resolve(r) for r in _references(node, bindings[key[0]]))
            for attr in _attributes(node) - read:
                read.add(attr)
                todo.extend(waiting.pop(attr, ()))
        for attr, method in methods.get(key, ()):
            if attr in read:
                todo.append(method)
            else:
                waiting.setdefault(attr, []).append(method)
    return sorted(f"{m}.{n}" for m, n in set(bodies) - reached)


def test_every_function_and_class_is_reached():
    unreached = unreached_names()
    assert not unreached, "reached only from tests: " + ", ".join(unreached)


def test_a_method_is_reached_only_through_an_attribute_of_its_name():
    source = {
        "cli": "from .shapes import Box\n\ndef main():\n    return Box().size\n",
        "shapes": ("class Box:\n"
                   "    def __init__(self):\n        self.unused = 0\n"
                   "    @property\n    def size(self):\n        return self.grow()\n"
                   "    def grow(self):\n        return 2\n"
                   "    def unused(self):\n        return 3\n"),
    }
    modules = {name: ast.parse(text) for name, text in source.items()}
    # `size` is read by main and `grow` by size; an assignment reads nothing
    assert unreached_names(modules) == ["shapes.Box.unused"]
