"""The benchmark scripts (``scripts/*.py``) reach into the package by name:
they import its functions and read private helpers as
``<module>.<name>``.  Removing or renaming one of those names must fail
here, not only when someone next runs the script."""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PACKAGE = "toda_spectra"


def _member(owner, name: str):
    """``owner.name``, a submodule of a package included; None if absent."""
    if hasattr(owner, name):
        return getattr(owner, name)
    if isinstance(owner, types.ModuleType) and hasattr(owner, "__path__"):
        try:
            return importlib.import_module(f"{owner.__name__}.{name}")
        except ModuleNotFoundError:
            return None
    return None


def _package_names(tree: ast.AST) -> tuple[list[str], dict]:
    """Names of the package the script imports that do not exist, and the
    local names bound to package modules."""
    missing, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == PACKAGE:
            owner = importlib.import_module(node.module)
            for alias in node.names:
                obj = _member(owner, alias.name)
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(obj, types.ModuleType):
                    modules[alias.asname or alias.name] = obj
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    mod = importlib.import_module(alias.name)
                    if alias.asname:
                        modules[alias.asname] = mod
                    else:
                        modules[PACKAGE] = importlib.import_module(PACKAGE)
    return missing, modules


def _attribute_reads(tree: ast.AST, modules: dict) -> list[str]:
    """``<module>.<name>`` reads on package modules whose name is absent;
    a chain such as ``toda_spectra.series_engine.X`` is followed while it
    names modules."""
    missing = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = [node.attr]
        base = node.value
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if not isinstance(base, ast.Name) or base.id not in modules:
            continue
        obj, path = modules[base.id], base.id
        for name in reversed(chain):
            if not isinstance(obj, types.ModuleType):
                break
            nxt = _member(obj, name)
            path = f"{path}.{name}"
            if nxt is None:
                missing.append(path)
                break
            obj = nxt
    return missing


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_names_exist_in_the_package(script):
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    missing, modules = _package_names(tree)
    missing += _attribute_reads(tree, modules)
    assert not missing, f"{script.name} uses names the package lacks: {missing}"
