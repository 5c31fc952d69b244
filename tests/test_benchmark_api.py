"""The benchmark's use of the package: every name perfbench/worker.py
takes from ``tovp`` must still exist, so a refactor cannot break the
benchmark without failing here first."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from tovp import formats

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _tree():
    return ast.parse(WORKER.read_text(), filename=str(WORKER))


def _imported():
    """Each name the worker imports from ``tovp``, bound to its object."""
    return {
        alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
        for node in ast.walk(_tree())
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tovp"
        for alias in node.names
    }


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


def test_dataclass_keywords_are_fields():
    """Every keyword the worker passes to a ``tovp`` dataclass is a field of
    it, so removing a field cannot break the benchmark unseen."""
    imported = _imported()
    passed = {}
    for node in ast.walk(_tree()):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            cls = imported.get(node.func.id)
            if isinstance(cls, type) and dataclasses.is_dataclass(cls):
                passed.setdefault(cls, set()).update(kw.arg for kw in node.keywords)
    constructed = {cls.__name__ for cls in passed}
    assert {"ExtractionConfig", "SceneBox", "SceneSpec", "SpinningLidarSpec", "SensorConfig"} <= constructed
    unknown = {f"{cls.__name__}.{name}" for cls, names in passed.items()
               for name in names - {f.name for f in dataclasses.fields(cls)}}
    assert unknown == set()


def test_calls_bind_to_signatures():
    """Every call the worker makes to a name imported from ``tovp`` (or to
    an attribute of one, such as ``formats.read_scene``) binds to the
    callee's signature, and every method it calls on an instance built in
    place, such as ``ExtractionConfig().cell_size(...)``, exists and binds
    too, so a removed parameter or method cannot break the benchmark
    unseen."""
    imported = _imported()
    checked, failed = 0, []
    for node in ast.walk(_tree()):
        if not isinstance(node, ast.Call):
            continue
        f, args = node.func, [None] * len(node.args)
        if isinstance(f, ast.Name) and f.id in imported:
            name, callee = f.id, imported[f.id]
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in imported:
            name, callee = f"{f.value.id}.{f.attr}", getattr(imported[f.value.id], f.attr, None)
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Call)
              and isinstance(f.value.func, ast.Name) and f.value.func.id in imported):
            cls = imported[f.value.func.id]
            name, callee = f"{cls.__name__}().{f.attr}", getattr(cls, f.attr, None)
            if inspect.isfunction(callee):
                args.append(None)  # self
        else:
            continue
        checked += 1
        try:
            inspect.signature(callee).bind(*args, **{kw.arg: None for kw in node.keywords})
        except (TypeError, ValueError) as e:
            failed.append(f"line {node.lineno}: {name}: {e}")
    assert checked > 40
    assert failed == []
