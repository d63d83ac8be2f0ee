"""The brute-force references in oracles.py stay independent of the code they check."""

import ast
from pathlib import Path


def _imported_modules(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_oracles_import_nothing_from_distillab():
    source = Path(__file__).with_name("oracles.py").read_text(encoding="utf-8")
    imported = _imported_modules(source)
    assert "numpy" in imported  # the parse saw the imports
    assert not {m for m in imported if m.split(".")[0] == "distillab" or m.startswith(".")}
    assert "importlib" not in imported and "__import__" not in source


def test_import_scan_sees_package_imports():
    assert _imported_modules("from distillab.nn import MaxPool2d\nimport distillab") == \
        {"distillab.nn", "distillab"}
    assert _imported_modules("from . import nn") == {"."}
