"""The benchmark's use of the package: every name perfbench/worker.py
takes from ``tovp`` must still exist, so a refactor cannot break the
benchmark without failing here first."""

import ast
import dataclasses
import importlib
from pathlib import Path

from tovp import formats
from tovp.extraction import ExtractionConfig

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _tree():
    return ast.parse(WORKER.read_text(), filename=str(WORKER))


def _exists(module, name):
    """``from module import name`` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_imported_names_exist():
    imported = [
        (node.module, alias.name)
        for node in ast.walk(_tree())
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tovp"
        for alias in node.names
    ]
    assert imported
    assert [f"{module}.{name}" for module, name in imported if not _exists(module, name)] == []


def test_formats_attributes_exist():
    used = {
        node.attr
        for node in ast.walk(_tree())
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "formats"
    }
    assert used
    assert sorted(name for name in used if not hasattr(formats, name)) == []


def test_extraction_config_keywords_are_fields():
    passed = {
        kw.arg
        for node in ast.walk(_tree())
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ExtractionConfig"
        for kw in node.keywords
    }
    fields = {f.name for f in dataclasses.fields(ExtractionConfig)}
    assert passed
    assert passed - fields == set()
