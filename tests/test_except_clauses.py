"""No ``except`` tuple in ``src/`` or ``tests/`` names a class together
with one of its own subclasses: the subclass adds nothing the class does
not already catch.

Names are resolved through the builtins and the modules of ``dlk``; a
name neither defines (a local class, an attribute such as
``json.JSONDecodeError``) is left alone.
"""

import ast
import builtins
import importlib
import pkgutil
from pathlib import Path

import pytest

import dlk

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/dlk/*.py")) + sorted(ROOT.glob("tests/*.py"))


def _classes() -> dict[str, type]:
    found = {name: value for name, value in vars(builtins).items()
             if isinstance(value, type)}
    for info in pkgutil.iter_modules(dlk.__path__):
        module = importlib.import_module(f"dlk.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type):
                assert found.setdefault(name, value) is value, name
    return found


CLASSES = _classes()


def redundant_catches(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ExceptHandler)
                and isinstance(node.type, ast.Tuple)):
            continue
        named = [CLASSES[elt.id] for elt in node.type.elts
                 if isinstance(elt, ast.Name) and elt.id in CLASSES]
        found += [f"{sub.__name__} beside {cls.__name__} (line {node.lineno})"
                  for sub in named for cls in named
                  if sub is not cls and issubclass(sub, cls)]
    return found


def test_the_check_sees_a_subclass_beside_its_class():
    source = ("try:\n    pass\n"
              "except (KeyError, ParseError, OSError, SignViolation):\n"
              "    pass\n"
              "except (LookupError, Unknown, KeyError):\n    pass\n")
    assert redundant_catches(source) == [
        "SignViolation beside ParseError (line 3)",
        "KeyError beside LookupError (line 5)"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_no_except_tuple_names_a_subclass_of_another_member(path):
    assert redundant_catches(path.read_text(encoding="utf-8")) == []
