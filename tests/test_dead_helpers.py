"""Every module-level function and class of ``dlk``, and of each helper
module of ``tests/`` (every module not named ``test_*.py``: the oracles,
the shared corpora and populations), has a reader.

A name counts as read when it appears outside its own definition in
``src/``, ``bench/`` or ``tests/``: as a name, an attribute, an imported
name, or a word of a string that is not a docstring (``logics`` compiles
templates from source text that calls its helpers).  A helper whose
last caller went away fails here.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/dlk/*.py")) + sorted(
    p for p in ROOT.glob("tests/*.py") if not p.name.startswith("test_"))
SOURCES = sorted(p for top in ("src", "bench", "tests")
                 for p in (ROOT / top).rglob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined(tree: ast.Module) -> list[str]:
    """The functions and classes a module defines at its top level."""
    return [stmt.name for stmt in tree.body if isinstance(stmt, DEFINITIONS)]


def read(tree: ast.Module) -> set[str]:
    """The names a module reads, a top-level definition's own name
    inside it left out."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)}
    found = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name.split(".")[-1]}
            elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str) and id(node) not in docstrings:
                names = set(re.findall(r"\w+", node.value))
            else:
                continue
            found |= names - {own}
    return found


def read_by(sources: list[str]) -> set[str]:
    return set().union(*(read(ast.parse(text)) for text in sources))


def unread(module: str, text: str, names: set[str]) -> list[str]:
    """``module.name`` for each definition in the module's source text
    that is not among the names read."""
    return [f"{module}.{name}" for name in defined(ast.parse(text))
            if name not in names]


def test_the_check_sees_a_dead_helper():
    lib = '''
def used():
    return 1

def dead(n):
    return dead(n - 1) if n else used()

class Kept:
    pass

def compiled():
    pass

def told():
    """Unlike dead, told is named in a docstring."""
'''
    other = 'from lib import Kept\nexec("compiled()")\n'
    assert unread("lib", lib, read_by([lib, other])) == ["lib.dead",
                                                         "lib.told"]


@pytest.fixture(scope="module")
def names() -> set[str]:
    return read_by([p.read_text(encoding="utf-8") for p in SOURCES])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_helper_is_read(path, names):
    assert unread(path.stem, path.read_text(encoding="utf-8"), names) == []
