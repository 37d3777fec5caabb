"""The import layers of the package: the modules under the field kernel
import nothing from the modules built on it, and the one import cycle is
the deferred ``classify_phi`` of ``functionals.convexity_report``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import convmap

PACKAGE = Path(convmap.__file__).parent
LOWER = ("errors", "grid", "jet", "series", "maps")
UPPER = ("functionals", "levelset", "critical", "cli")


def package_imports(source: str, deferred: bool = True) -> set[str]:
    """The modules of the package that ``source`` imports (``from .maps
    import x``, ``from . import maps``, ``import convmap.maps``), with
    ``deferred`` those inside functions too."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree) if deferred else tree.body:
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if not node.level:  # absolute: the package's own modules only
                if path[:1] != ["convmap"]:
                    continue
                path = path[1:]
            names.update(path[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("convmap."))
    return names


GRAPH = {path.stem: package_imports(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def cycles(graph: dict) -> set[frozenset]:
    """The sets of modules that import each other, directly or through others."""
    reach = {}
    for start in graph:
        seen, todo = set(), [start]
        while todo:
            for name in graph.get(todo.pop(), ()):
                if name not in seen:
                    seen.add(name)
                    todo.append(name)
        reach[start] = seen
    return {frozenset(n for n in graph if n in reach[m] and m in reach[n]) for m in graph if m in reach[m]}


@pytest.mark.parametrize("module", LOWER)
def test_a_lower_module_imports_nothing_built_on_it(module):
    assert GRAPH[module] & set(UPPER) == set()


def test_the_one_cycle_is_the_deferred_classify_phi():
    assert cycles(GRAPH) == {frozenset({"functionals", "critical"})}
    functionals = (PACKAGE / "functionals.py").read_text(encoding="utf-8")
    assert "critical" in GRAPH["functionals"]
    assert "critical" not in package_imports(functionals, deferred=False)


def test_the_guard_finds_every_form_of_import():
    source = (
        "from . import grid\nimport convmap.jet\nfrom convmap.series import certify\n"
        "def f():\n    from .functionals import _kernel\n"
    )
    assert package_imports(source) == {"grid", "jet", "series", "functionals"}
    assert package_imports(source, deferred=False) == {"grid", "jet", "series"}
    assert cycles({"maps": {"functionals"}, "functionals": {"maps", "grid"}, "grid": set()}) == {
        frozenset({"maps", "functionals"})
    }
