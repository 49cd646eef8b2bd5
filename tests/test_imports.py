"""Static hygiene of the package sources: no module imports a name it never
reads. No linter ships with the package, so this stands in for one."""

from __future__ import annotations

import ast
from importlib.resources import files

import pytest

MODULES = sorted(path for path in files("peermarket").iterdir()
                 if path.name.endswith(".py") and path.name != "__init__.py")


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
