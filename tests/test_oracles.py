"""Source hygiene: the brute-force references in oracles.py stay independent of the
code they check, no module of the package or its tests imports a name it never uses or
ends without exactly one newline, and the README's layout table names every module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads; an import whose lines carry
    `# noqa: F401` is kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__" or \
                any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


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


def _modules() -> list[Path]:
    modules = sorted((ROOT / "src" / "distillab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(modules) > 20  # the globs found the package and its tests
    return modules


def test_every_imported_name_is_used():
    unused = {str(p.relative_to(ROOT)): names for p in _modules()
              if (names := _unused_imports(p.read_text(encoding="utf-8")))}
    assert unused == {}


def test_unused_import_scan():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from a import (b,  # noqa: F401\n    c)\nfrom d import e, f\nprint(np.pi, f)\n")
    assert _unused_imports(source) == ["e", "os"]


def test_every_module_ends_with_one_newline():
    # `wc -l` then counts every module's last line, as `splitlines` does
    texts = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in _modules()}
    ragged = [name for name, text in texts.items()
              if not text.endswith("\n") or text.endswith("\n\n")]
    assert ragged == []


def test_readme_layout_table_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    rows = {line.split("`")[1] for line in layout.splitlines() if line.startswith("| `distillab.")}
    modules = {f"distillab.{p.stem}" for p in (ROOT / "src" / "distillab").glob("*.py")}
    assert rows == modules - {"distillab.__init__"}
