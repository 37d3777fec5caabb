"""Every name a module of the package imports is read by its code or listed
in its ``__all__``: a deletion leaves no import behind."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import convmap

MODULES = sorted(Path(convmap.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no code reads and
    ``__all__`` does not list, in order of their import."""
    tree = ast.parse(source)
    imported = []  # the names the imports bind
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_an_unread_import():
    source = "import numpy as np\nfrom .maps import _jets, jet_of\n__all__ = ['jet_of']\n"
    assert unused_imports(source) == ["np", "_jets"]
    assert unused_imports(source + "np.zeros(_jets)\n") == []
