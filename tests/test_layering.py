"""The import layers of the package: the modules under the field kernel,
``maps`` with its ``Jet`` among them, import nothing from the modules
built on it, the one import cycle is the deferred ``classify_phi`` of
``functionals.convexity_report``, and only ``functionals``, the one
checked batch entry, imports the jet entry ``maps._jets``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import convmap

PACKAGE = Path(convmap.__file__).parent
LOWER = ("errors", "grid", "series", "maps")
UPPER = ("functionals", "levelset", "critical", "cli")


def package_path(node: ast.ImportFrom) -> list[str] | None:
    """The path inside the package of the module a ``from`` import names
    (``[]`` for the package itself), or None for another package."""
    path = node.module.split(".") if node.module else []
    if node.level:
        return path
    return path[1:] if path[:1] == ["convmap"] else None


def package_imports(source: str, deferred: bool = True) -> set[str]:
    """The modules of the package that ``source`` imports (``from .maps
    import x``, ``from . import maps``, ``import convmap.maps``), with
    ``deferred`` those inside functions too."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree) if deferred else tree.body:
        if isinstance(node, ast.ImportFrom):
            path = package_path(node)
            if path is not None:  # absolute imports of other packages are skipped
                names.update(path[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("convmap."))
    return names


def names_taken(source: str, module: str) -> set[str]:
    """The names that ``source`` takes from the package's ``module``, inside
    functions too (``from .maps import _jets``, ``from convmap.maps import
    _jets``)."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and package_path(node) == [module]
        for alias in node.names
    }


SOURCES = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
GRAPH = {name: package_imports(source) for name, source in SOURCES.items()}


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
    assert "critical" in GRAPH["functionals"]
    assert "critical" not in package_imports(SOURCES["functionals"], deferred=False)


def test_the_guard_finds_every_form_of_import():
    source = (
        "from . import grid\nimport convmap.jet\nfrom convmap.series import certify\n"
        "def f():\n    from .functionals import _kernel\n"
    )
    assert package_imports(source) == {"grid", "jet", "series", "functionals"}
    assert package_imports(source, deferred=False) == {"grid", "jet", "series"}
    assert names_taken(source, "series") == {"certify"} and names_taken(source, "functionals") == {"_kernel"}
    assert names_taken("from convmap.maps import _jets\nfrom numpy.maps import _jets\n", "maps") == {"_jets"}
    assert cycles({"maps": {"functionals"}, "functionals": {"maps", "grid"}, "grid": set()}) == {
        frozenset({"maps", "functionals"})
    }


def test_only_the_batch_entry_imports_the_jet_entry():
    # every other batch goes through functionals.grid_functionals, which checks what _jets gives
    assert {name for name, source in SOURCES.items() if "_jets" in names_taken(source, "maps")} == {"functionals"}
