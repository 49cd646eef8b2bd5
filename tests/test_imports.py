"""Static hygiene of the package sources: no module imports a name it never
reads, no module-level helper that the package does not export is left
without a reader, and every exported name has a reader. No linter ships
with the package, so this stands in for one."""

from __future__ import annotations

import ast
import re
from importlib.resources import files
from pathlib import Path

import pytest

import peermarket

SOURCES = sorted(path for path in files("peermarket").iterdir() if path.name.endswith(".py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]
ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names bound by import statements of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_checker_flags_an_unread_import():
    source = "import os\nimport numpy as np\nfrom .a import B, C\nnp.zeros(C)\n"
    assert unused_imports(source) == ["B (line 3)", "os (line 1)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def orphans(sources, exported=()):
    """Module-level functions and classes of ``sources``, a mapping of
    module name (``.py`` optional) to text, that no read outside their own
    body can reach: every private one, and every public one that
    ``exported`` does not name. A read reaches a definition inside the
    defining module, in a module that imports the name from it, and as an
    attribute of the defining module."""
    trees = {module.removesuffix(".py"): ast.parse(source) for module, source in sources.items()}
    defined, reached = [], set()
    for module, tree in trees.items():
        # what each imported name stands for, a (module, name) or a module
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    names[alias.asname or alias.name] = (node.module.split(".")[-1], alias.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    modules[alias.asname or alias.name.split(".")[0]] = alias.name.split(".")[-1]
        for node in tree.body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                if not owner.startswith("__") and owner not in exported:
                    defined.append((module, owner, node.lineno))
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                    target = names.get(inner.id, (module, inner.id))
                elif isinstance(inner, ast.Attribute) and getattr(inner.value, "id", None) in modules:
                    target = (modules[inner.value.id], inner.attr)
                else:
                    continue
                if target != (module, owner):
                    reached.add(target)
    return sorted(f"{module}: {name} (line {line})" for module, name, line in defined
                  if (module, name) not in reached)


def test_checker_flags_an_orphan_helper():
    sources = {
        "a": "def _used():\n    return 1\n\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n\n"
             "class _Kept:\n    pass\n\n"
             "def __getattr__(name):\n    raise AttributeError(name)\n\n"
             "def public():\n    return _used()\n",
        "b": "from . import a\n\nVALUE = a._Kept\n",
    }
    assert orphans(sources, exported=["public"]) == ["a: _recursive (line 4)"]


def test_checker_flags_an_unread_public_helper():
    sources = {
        "a": "def exported():\n    return helper()\n\n"
             "def helper():\n    return 1\n\n"
             "def unread():\n    return 2\n\n"
             "class Unread:\n    pass\n",
        "b": "from .a import exported\n",
    }
    assert orphans(sources, exported=["exported"]) == ["a: Unread (line 10)",
                                                       "a: unread (line 7)"]


def test_checker_matches_a_read_to_its_module():
    # b reads its own shared(), not a's; a's other helpers are read through
    # an import of the name and as an attribute of the module, and an
    # attribute of anything else reaches nothing
    sources = {
        "a": "def shared():\n    return 1\n\n"
             "def imported():\n    return 2\n\n"
             "def dotted():\n    return 3\n\n"
             "def method():\n    return 4\n",
        "b": "from .a import imported as alias\nfrom . import a\n\n"
             "def shared(item):\n    return alias() + a.dotted() + item.method()\n\n"
             "VALUE = shared(0)\n",
    }
    assert orphans(sources) == ["a: method (line 10)", "a: shared (line 1)"]


def test_no_orphan_helpers():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert orphans(sources, exported=peermarket.__all__) == []


def unread_exports(exported, sources, texts):
    """Names of ``exported`` that no module of ``sources``, a mapping of
    module name to text, reads outside the name's own definition, and that
    no text of ``texts`` mentions as a word. Importing a name is not
    reading it."""
    read = set()
    for source in sources.values():
        for node in ast.parse(source).body:
            owner = getattr(node, "name", None)
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                    name = inner.id
                elif isinstance(inner, ast.Attribute):
                    name = inner.attr
                else:
                    continue
                if name != owner:
                    read.add(name)
    read.update(re.findall(r"\w+", "\n".join(texts)))
    return sorted(name for name in exported if name not in read)


def test_checker_flags_an_unread_export():
    sources = {
        "a": "def helper():\n    return 1\n\n"
             "def public():\n    return helper()\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\n"
             "def documented():\n    pass\n\n"
             "def timed():\n    pass\n",
        "b": "from .a import public\n",
    }
    texts = ["Call `documented()` first.", "LAYERS = {'a': ('a', ('timed',))}"]
    exported = ["documented", "helper", "public", "recursive", "timed"]
    assert unread_exports(exported, sources, texts) == ["public", "recursive"]


def test_every_export_has_a_reader():
    # a reader is a package module, the README or the benchmark harness
    texts = [(ROOT / "README.md").read_text(encoding="utf-8")]
    texts += [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("perfbench/*.py"))]
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_exports(peermarket.__all__, sources, texts) == []
