"""No module of ``dlk`` or of ``tests/`` imports a name it never uses, and
no test module imports another.

``__init__`` re-exports what it imports and is left out.  A name counts
as used when it appears anywhere in the module's syntax tree outside
the import itself, annotations included.  What several test modules
share lives in the helper modules of ``tests/``.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dlk"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") \
    + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_the_check_sees_an_unused_name():
    source = ("from x import a, b\nimport c.d\nimport e as f\n"
              "def g(v: b) -> None:\n    return c\n")
    assert unused_imports(source) == ["a (line 1)", "f (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_test_module_imports_another():
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) \
                else [a.name for a in node.names] \
                if isinstance(node, ast.Import) else []
            found += [f"{path.stem} imports {name}" for name in names
                      if name.split(".")[0].startswith("test_")]
    assert found == []
