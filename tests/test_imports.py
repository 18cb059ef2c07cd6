"""Every name a package module imports is used in that module, every name
it exports is bound in it, and the package's runtime dependencies are
exactly its third-party imports."""
import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bneverify"


def unused_imports(source: str):
    """Names bound by the module's imports and never read. A name listed
    in a literal __all__ is a re-export, and `import a.b` without an alias
    is a side-effect import (it loads the submodule); both count as used.
    A computed __all__ (the package's, list(_SOURCES)) counts none."""
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
                        for t in node.targets)
                and isinstance(node.value, ast.List)):
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


def defined_private_names(source: str):
    """FLAG_* constants and _-prefixed names (not dunders) the module binds
    at top level by assignment, def or class."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith(("FLAG_", "_"))
            and not (n.startswith("__") and n.endswith("__"))]


def read_names(source: str):
    """Names the module reads: a bare name loaded, or an attribute. An
    import, a definition and a listing in __all__ are not reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)}


def test_every_flag_and_private_name_is_read_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(read_names, sources.values()))
    unread = [(module, name) for module, source in sources.items()
              for name in defined_private_names(source) if name not in read]
    assert unread == []


def test_unread_name_finder_ignores_definitions_imports_and_exports():
    source = ("from x import _a\nFLAG_B = 'b'\n_c = 1\n_d = _c\n"
              "def _e(): return _e\nclass _F: pass\n__all__ = ['FLAG_B']\n"
              "print(m._F)\n")
    assert defined_private_names(source) == ["FLAG_B", "_c", "_d", "_e", "_F"]
    assert read_names(source) & {"_a", "FLAG_B", "_d", "_F"} == {"_F"}


# public names the package defines and never reads, each with its reader;
# a name the package stops reading must be deleted or listed here
UNREAD_ON_PURPOSE = {
    **dict.fromkeys(("get_kernels", "fpsb_win_counts", "fpsb_point_utils",
                     "fpsb_dev_utils", "profile_point_utilities"),
                    "wrapped by perfbench's tracer"),
    **dict.fromkeys(("eval", "Partition.assign", "exhaustive_wd",
                     "quadrature_tv", "analytic_fpsb_ex_ante_loss",
                     "CorrelatedCommonValue.posterior_density"),
                    "a reference the tests check the package against"),
    "save_dataset": "writes perfbench's recorded-data inputs",
    "tv_integral_bound": "the TV-integral bound, pending a tau coefficient "
                         "check against a known truth",
}


def defined_public_names(source: str):
    """Public functions and classes the module defines at top level, and
    its classes' public methods as Class.method."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef)]
    return [n for n in names if not n.rpartition(".")[2].startswith("_")]


def test_every_public_name_is_read_in_the_package_or_listed():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(read_names, sources.values()))
    unread = {name for source in sources.values()
              for name in defined_public_names(source)
              if name.rpartition(".")[2] not in read}
    assert unread == set(UNREAD_ON_PURPOSE)


def test_public_name_finder_lists_functions_classes_and_methods():
    source = ("def f(): pass\ndef _g(): pass\nclass C:\n"
              "    def m(self): pass\n    def _n(self): pass\n"
              "    def __init__(self): pass\nX = 1\n")
    assert defined_public_names(source) == ["f", "C", "C.m"]


def third_party_imports(source: str):
    """Top-level modules an absolute import names, outside the standard
    library and the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names} \
        - set(sys.stdlib_module_names) - {PACKAGE.name}


def test_runtime_dependencies_are_exactly_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(PACKAGE.parent.parent / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    listed = {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0]
              for req in declared}
    imported = set().union(*(third_party_imports(p.read_text(encoding="utf-8"))
                             for p in PACKAGE.glob("*.py")))
    assert imported == listed


def test_third_party_import_finder_skips_stdlib_relative_and_own_imports():
    source = ("import os.path\nimport numpy.linalg as la\nfrom . import x\n"
              "from .model import y\nfrom scipy.stats import norm\n"
              "import bneverify.cli\n")
    assert third_party_imports(source) == {"numpy", "scipy"}


@pytest.mark.parametrize("module", sorted(
    "bneverify" if p.stem == "__init__" else f"bneverify.{p.stem}"
    for p in PACKAGE.glob("*.py")))
def test_every_exported_name_is_bound(module):
    mod = importlib.import_module(module)
    stale = [name for name in getattr(mod, "__all__", ())
             if not hasattr(mod, name)]
    assert stale == []
