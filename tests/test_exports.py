"""`domlab.__all__` names exactly the names `domlab/__init__.py` binds.

Every name the package imports or assigns at its top level is exported,
and nothing else is, so deleting a name from one of the two lists fails
here instead of leaving the other stale.
"""

import ast
from pathlib import Path

import domlab


def test_all_names_exactly_what_the_package_imports():
    tree = ast.parse(Path(domlab.__file__).read_text(encoding="utf-8"))
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in stmt.names]
        elif isinstance(stmt, ast.Assign):
            bound += [target.id for target in stmt.targets if target.id != "__all__"]
    assert len(set(domlab.__all__)) == len(domlab.__all__)
    assert sorted(domlab.__all__) == sorted(bound)
