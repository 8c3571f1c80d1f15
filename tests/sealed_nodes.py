"""Node construction as ``dlk.syntax`` did it before every node class had
one generated constructor, kept as the oracle of those constructors.

Each node class was a ``@dataclass(frozen=True, slots=True)``.  Its
generated ``__init__`` wrote the fields with ``object.__setattr__`` and
called ``__post_init__``: there ``App``, ``Sum``, ``Pair`` and ``Bang``
checked the sign discipline, and every class then ran its sealer
(``_sealer``), which filled ``_size`` (and a salted hash, in a slot that
interning has since removed).  ``build_sealed`` makes a node of the real
class that way, with the sign checks and the size sealer verbatim.

A node built so is not interned: it is a distinct object from the
constructor's node of the same structure, so under identity equality
the two never compare equal.  Nodes of the two routes are compared
structurally, never with ``==`` nor put in one set.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from inspect import Parameter, Signature

from dlk.syntax import (
    NEGATIVE, POSITIVE, App, Bang, Formula, Pair, SignDisciplineError, Sum,
    Term, _GET_FIELDS, _PARTS, term_sign,
)


def _part_signs(what: str, left: Term, right: Term) -> tuple[str, str] | None:
    ls, rs = term_sign(left), term_sign(right)
    if ls is None or rs is None:  # schematic template, checked at instantiation
        return None
    if ls != rs:
        raise SignDisciplineError(f"{what} mixes signs {ls or 'none'!r} and {rs or 'none'!r}")
    return ls, rs


# the sign checks of the four ``__post_init__`` methods, which ended by
# calling the sealer
def _app_post_init(self):
    _part_signs("application", self.left, self.right)


def _sum_post_init(self):
    _part_signs("sum", self.left, self.right)


def _pair_post_init(self):
    signs = _part_signs("pairing", self.left, self.right)
    if signs is not None and signs[0] == POSITIVE:
        raise SignDisciplineError("pairing takes negative terms")


def _bang_post_init(self):
    if term_sign(self.inner) == NEGATIVE:
        raise SignDisciplineError("'!' takes a positive term")


_SIGN_CHECKS = {App: _app_post_init, Sum: _sum_post_init,
                Pair: _pair_post_init, Bang: _bang_post_init}


def _sealer(kind):
    """The function filling the size slot of a new node of class
    ``kind``, one per class, so that building a node looks nothing up; it
    sets the slot through its descriptor, the cheapest way to write it."""
    get = _GET_FIELDS[kind]
    base = Term if issubclass(kind, Term) else Formula
    set_size = vars(base)["_size"].__set__
    arity = len(_PARTS[kind])
    names = tuple(f.name for f in fields(kind)) if arity else ()
    if arity > 2 or names != _PARTS[kind]:
        raise TypeError(f"{kind.__name__} needs fields that are its parts, "
                        f"at most two")
    if arity == 0:
        def seal(node):
            set_size(node, 1)
    elif arity == 1:
        def seal(node):
            set_size(node, 1 + get(node)[0]._size)
    else:
        def seal(node):
            parts = get(node)
            set_size(node, 1 + parts[0]._size + parts[1]._size)
    return seal


_SEALS = {kind: _sealer(kind) for kind in _PARTS}

# the parameters of the dataclass ``__init__``: the fields, in order,
# with their defaults
_SIGNATURES = {
    kind: Signature([Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD,
                               default=Parameter.empty
                               if f.default is MISSING else f.default)
                     for f in fields(kind)])
    for kind in _PARTS}


def build_sealed(kind, *args, **kwargs):
    """``kind(*args, **kwargs)`` as the dataclass ``__init__``, the sign
    check and the sealer built it."""
    node = object.__new__(kind)
    bound = _SIGNATURES[kind].bind(*args, **kwargs)
    bound.apply_defaults()
    for name, value in bound.arguments.items():
        object.__setattr__(node, name, value)
    check = _SIGN_CHECKS.get(kind)
    if check is not None:
        check(node)
    _SEALS[kind](node)
    return node

