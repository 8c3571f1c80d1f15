"""Every module-level function and class of ``dlk``, and of each helper
module of ``tests/`` (every module not named ``test_*.py``: the oracles,
the shared corpora and populations), has a reader; so does every
method, property and annotated field of a ``dlk`` class (dunder methods
aside: Python calls those).

A name counts as read when it appears outside its own definition in
``src/``, ``bench/`` or ``tests/``: as a name, an attribute, an imported
name, or a word of a string that is not a docstring (``logics`` compiles
templates from source text that calls its helpers).  A field counts as
read only as an attribute: a local variable or keyword argument of its
name does not read it, nor does its own declaration.  A helper whose
last caller went away, or a field nothing reads, fails here.

Every name ``dlk/__init__.py`` exports is read in ``src/dlk`` outside
``__init__.py``, or in ``bench/``: a public name only tests read is not
part of the workbench.
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
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def defined(tree: ast.Module) -> list[str]:
    """The functions and classes a module defines at its top level."""
    return [stmt.name for stmt in tree.body if isinstance(stmt, DEFINITIONS)]


def declared(member: ast.stmt) -> str | None:
    """The name a class-body statement declares: a method's, a
    property's or an annotated field's."""
    if isinstance(member, FUNCTIONS):
        return member.name
    if isinstance(member, ast.AnnAssign) and isinstance(member.target,
                                                        ast.Name):
        return member.target.id
    return None


def members(tree: ast.Module) -> list[tuple[str, str]]:
    """``Class.name`` for each member the classes a module defines at its
    top level declare, dunders left out, with the name that reads it: an
    annotated field's is ``.name``, since only an attribute reads a field
    (a local variable or a keyword argument of its name does not)."""
    return [(f"{stmt.name}.{name}",
             "." + name if isinstance(member, ast.AnnAssign) else name)
            for stmt in tree.body if isinstance(stmt, ast.ClassDef)
            for member in stmt.body if (name := declared(member))
            and not (name.startswith("__") and name.endswith("__"))]


def read(tree: ast.Module) -> set[str]:
    """The names a module reads, a top-level definition's own name
    inside it left out, and a class member's own name inside its
    declaration; an attribute read also as ``.name``."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)}
    found = set()

    def take(node: ast.AST, own: set[str]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names = {sub.id}
            elif isinstance(sub, ast.Attribute):
                names = {sub.attr, "." + sub.attr}
            elif isinstance(sub, ast.alias):
                names = {sub.name.split(".")[-1]}
            elif isinstance(sub, ast.Constant) and isinstance(
                    sub.value, str) and id(sub) not in docstrings:
                names = set(re.findall(r"\w+", sub.value))
            else:
                continue
            found.update(names - own)

    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            take(stmt, {stmt.name} if isinstance(stmt, FUNCTIONS) else set())
            continue
        own = {stmt.name}
        for node in (*stmt.decorator_list, *stmt.bases, *stmt.keywords):
            take(node, own)
        for member in stmt.body:
            take(member, own | {declared(member)})
    return found


def exported(text: str) -> list[str]:
    """The names a package's ``__init__`` source text imports."""
    return [alias.asname or alias.name for stmt in ast.parse(text).body
            if isinstance(stmt, ast.ImportFrom) for alias in stmt.names]


def read_by(sources: list[str]) -> set[str]:
    return set().union(*(read(ast.parse(text)) for text in sources))


def unread(module: str, text: str, names: set[str]) -> list[str]:
    """``module.name`` for each definition in the module's source text
    that is not among the names read."""
    return [f"{module}.{name}" for name in defined(ast.parse(text))
            if name not in names]


def unread_members(module: str, text: str, names: set[str]) -> list[str]:
    """``module.Class.name`` for each class member in the module's source
    text that is not among the names read."""
    return [f"{module}.{member}"
            for member, reader in members(ast.parse(text))
            if reader not in names]


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


def test_the_check_sees_a_dead_member():
    lib = '''
class Row:
    kept: int
    dead: str = ""
    told: int = 0
    named: bool = False

    def __post_init__(self):
        pass

    def used(self):
        return self.kept

    def recursive(self, n):
        return self.recursive(n - 1) if n else self.used()

    @property
    def shown(self):
        return str(self.kept)
'''
    # a local variable of a field's name does not read the field
    other = ('print(Row(1).used(), Row(2).shown, Row(3, told=4))\n'
             'named = True\nprint(named)\n')
    assert unread_members("lib", lib, read_by([lib, other])) == [
        "lib.Row.dead", "lib.Row.told", "lib.Row.named", "lib.Row.recursive"]


@pytest.fixture(scope="module")
def names() -> set[str]:
    return read_by([p.read_text(encoding="utf-8") for p in SOURCES])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_helper_is_read(path, names):
    assert unread(path.stem, path.read_text(encoding="utf-8"), names) == []


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/dlk/*.py")),
                         ids=lambda p: p.stem)
def test_every_class_member_is_read(path, names):
    assert unread_members(path.stem, path.read_text(encoding="utf-8"),
                          names) == []


def test_every_export_is_read():
    init = ROOT / "src" / "dlk" / "__init__.py"
    readers = [p for p in SOURCES if p != init and (
        p.is_relative_to(init.parent) or p.is_relative_to(ROOT / "bench"))]
    names = read_by([p.read_text(encoding="utf-8") for p in readers])
    assert [name for name in exported(init.read_text(encoding="utf-8"))
            if name not in names] == []
