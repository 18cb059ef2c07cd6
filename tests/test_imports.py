"""Every name a package module imports is used in that module."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bneverify"


def unused_imports(source: str):
    """Names bound by the module's imports and never read. A name listed
    in __all__ is a re-export, and `import a.b` without an alias is a
    side-effect import (it loads the submodule); both count as used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None and "." in alias.name:
                    continue
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", sorted(p.name for p in
                                          PACKAGE.glob("*.py")))
def test_module_has_no_unused_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def test_unused_import_finder_sees_through_exports_and_side_effects():
    source = ("import os\nimport numpy as np\nimport numpy.random\n"
              "from json import dumps, loads\n"
              "__all__ = ['dumps']\nnp.zeros(loads('1'))\n")
    assert unused_imports(source) == [(1, "os")]
