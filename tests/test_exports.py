"""Exports: every name a module lists in ``__all__`` exists, and every name
the package imports into ``conftorus`` resolves to that module's object."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conftorus

MODULES = sorted(m.name for m in pkgutil.iter_modules(conftorus.__path__))
WITH_ALL = ["gcalg", "oracle", "series", "specseq"]  # cli and linalg declare none


def test_the_modules_with_all_are_listed():
    assert MODULES == ["cli", "gcalg", "linalg", "oracle", "series", "specseq"]
    declared = [n for n in MODULES if hasattr(importlib.import_module(f"conftorus.{n}"), "__all__")]
    assert declared == WITH_ALL


@pytest.mark.parametrize("name", WITH_ALL)
def test_all_names_exist(name):
    module = importlib.import_module(f"conftorus.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(conftorus.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(imported) > 30
    for module, name in imported:
        source = importlib.import_module(f"conftorus.{module}")
        assert getattr(conftorus, name) is getattr(source, name), (module, name)
