"""The package's public surface: every export resolves, and no definition is dead.

A module-level function or class in ``src/breakboot/`` is live when the
package exports it from ``breakboot/__init__.py``, when
``perfbench/tracer.py`` wraps it by name (its ``TARGETS`` table), or when
package code outside its own definition uses it: another module, or
another definition of its own module (how private helpers are reached).
Anything else is code that only the tests reach.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "breakboot"
TRACER = ROOT / "perfbench" / "tracer.py"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def init_imports() -> list[tuple[str, str]]:
    """(submodule, name) for each ``from .submodule import name`` of __init__."""
    return [
        (node.module, alias.name)
        for node in parse(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def trace_targets() -> set[str]:
    """The module attributes the tracer wraps (a method counts as its class)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {attr.split(".")[0] for _, attr, _ in tracer.TARGETS}


def used_names(tree: ast.AST) -> set[str]:
    """Names a piece of code reads, or imports from a sibling module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_resolves():
    exports = init_imports()
    assert exports
    bb = importlib.import_module("breakboot")
    for module, name in exports:
        assert getattr(importlib.import_module(f"breakboot.{module}"), name) is getattr(bb, name)


def test_every_definition_is_reached():
    live = {name for _, name in init_imports()} | trace_targets()
    top = [
        (path.stem, node, used_names(node))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for node in parse(path).body
    ]
    dead = [
        f"{stem}.{node.name}"
        for stem, node, _ in top
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in live
        and not any(node.name in uses for _, other, uses in top if other is not node)
    ]
    assert dead == []


def test_bootstrap_settings_come_as_one_config():
    # an exported function takes a BootstrapConfig, never its fields
    loose = {"scheme", "B", "master_seed", "rep_index"}
    bb = importlib.import_module("breakboot")
    takers = {
        name: sorted(loose & set(inspect.signature(obj).parameters))
        for _, name in init_imports()
        if inspect.isfunction(obj := getattr(bb, name))
    }
    assert {name: params for name, params in takers.items() if params} == {}


def test_no_module_imports_a_name_it_does_not_use():
    # __init__ imports only to export, which test_every_export_resolves checks
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = parse(path)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [
            f"{path.stem}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (name := (alias.asname or alias.name).split(".")[0]) not in loaded
        ]
    assert unused == []
