"""Core syntax: justification terms, formulas, an ASCII grammar, and
size-ordered enumeration.

Grammar::

    term     t ::= NAME SIGN? | '[' t '.' t ']' | '[' t '+' t ']'
                 | '[' t '&' t ']' | '!' t
    formula  F ::= '_|_' | PROPVAR | '~' F | F '/\\' F | F '\\/' F
                 | F '->' F | t ':' F | '(' F ')'

Leaf names starting with a lowercase letter are justification symbols
(``a``-``e`` constants, ``f``-``z`` variables); names starting with an
uppercase letter are propositional variables.  ``:`` binds tighter than
the connectives, ``~`` tighter than the binary ones, ``/\\`` tighter
than ``\\/``, and ``->`` (right associative) binds loosest.  Signs are
``+``/``-`` suffixes on leaf names and appear only in signed syntax;
compound signs are computed, never stored.  A ``+``/``-`` after a leaf
is read as a sign exactly when an operator, ``]``, ``)``, ``:`` or the
end of input follows, so ``[x+y]`` is a sum while ``[x+ . y-]`` is an
application of signed leaves.

Identity of terms and formulas is structural: ``P /\\ P`` is a different
formula from ``P`` and ``t:P`` never coincides with ``t:(P /\\ P)``.
Nodes are hash-consed, so structural identity is object identity: each
node class is a frozen dataclass with slots whose one constructor,
generated from ``_PARTS``, runs the class's sign rule (``App``, ``Sum``,
``Pair`` and ``Bang``) and then looks the fields up in the class's
intern table.  On a hit it returns the node already built; on a miss it
writes the fields, fills the ``_size`` slot, one more than the sum of
the parts' sizes, and records the node.  Equal structure is then one
object, and nodes compare and hash as ``object`` does, by identity, in
C: a dict or set of nodes calls no Python code, and ``term_size`` and
``formula_size`` read the slot, so testing a size bound walks nothing.
The table holds its nodes weakly and forgets a node once nothing else
holds it.  Copies, pickles and ``dataclasses.replace`` go through the
constructor and return the interned node.  Hashes follow memory
addresses, and strings hash by ``PYTHONHASHSEED``, so no output follows
the iteration order of a set or dict of nodes.

The parser refuses input nested more than ``MAX_NESTING`` levels deep,
counting each parenthesised group or ``->`` operand, each ``~``, each
``t:`` prefix and each term with ``NestingError``; deeper input would
exhaust the interpreter's recursion limit.

Structural code walks terms and formulas through one table, ``_PARTS``:
each node class maps to the attributes that hold its parts, in
constructor order (``Not: ("body",)``, ``Just: ("term", "body")``,
leaves ``()``), and its row order ranks head symbols for enumeration.
The constructors, subterms and subformulas, sort keys and enumeration
here, and substitution, matching and the unsigning translation in
``logics``, all read it, as do the pattern code of ``demand`` and the
staging of ``builder.build``.
``_TERM_OPS`` maps each term operation name of a profile to its
constructor and symbol, and ``_FORMATS`` gives each compound its printed
form.  A new node class is one row in ``_PARTS`` (plus one in
``_FORMATS``, and one in ``_TERM_OPS`` for a term operator); only the
grammar and the code that gives the node a meaning, such as
``term_sign`` or model evaluation, need a new case.  A compound's parts
are its fields, at most two, which the constructor generator checks.

Enumeration order is ``_sort_key`` order: by size, then by the head
symbol's rank, then by the parts' keys.  ``enumerate_terms`` and
``enumerate_formulas`` meet it by construction, computing no key per
node: their rows run in ``_RANK`` order, the size splits of a binary
node run by ascending size of the first part (the first field of its
key), and ``itertools.product`` walks pools that are each sorted.  Only
the leaves and the caller's term list are sorted.  ``builder.build`` is
the second reader of the formula rows and their splits: it builds the
same formulas, level by level, from ``_formula_start``,
``_formula_rows`` and ``_splits``, and stages each in the step that
builds it.  ``build`` calls a formula class's generated ``__new__``
directly, since calling the class runs ``type.__call__`` too, about
90 ns more per node for the same interned node.  ``_sort_key`` itself
orders sets for output: ``occurring_terms``, ``default_universe``, audit
violations and ``model_to_dict`` in ``semantics``, and the candidates of
``search_jl_model``.
"""

from __future__ import annotations

import weakref
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import partial
from itertools import product as _cartesian
from operator import attrgetter

POSITIVE = "+"
NEGATIVE = "-"
UNSIGNED = ""


class ParseError(ValueError):
    """Malformed input; carries the offending character position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class SignViolation(ParseError):
    """Well-formed shape, but a sign constraint is broken."""


class NestingError(ParseError):
    """The input nests deeper than ``MAX_NESTING`` levels."""


MAX_NESTING = 100


class SignDisciplineError(ValueError):
    """A compound term was built from incompatibly signed parts."""


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ("_size", "__weakref__")


def _part_signs(what: str, left: Term, right: Term) -> tuple[str, str] | None:
    ls, rs = term_sign(left), term_sign(right)
    if ls is None or rs is None:  # schematic template, checked at instantiation
        return None
    if ls != rs:
        raise SignDisciplineError(f"{what} mixes signs {ls or 'none'!r} and {rs or 'none'!r}")
    return ls, rs


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Const(Term):
    name: str
    sign: str = UNSIGNED


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Var(Term):
    name: str
    sign: str = UNSIGNED


@dataclass(frozen=True, slots=True, init=False, eq=False)
class App(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Bang(Term):
    inner: Term


@dataclass(frozen=True, slots=True, init=False, eq=False)
class TMeta(Term):
    """Term metavariable for axiom schemas; polarity constrains bindings."""

    name: str
    polarity: str = "any"  # any | pos | neg | sigma


def term_sign(t: Term) -> str | None:
    """Sign of a term, computed from its leaves; None for schematic terms."""
    # one class test per node, the most frequent kinds first
    kind = type(t)
    if kind is Var or kind is Const:
        return t.sign
    if kind is App or kind is Sum:
        return term_sign(t.left)
    if kind is Pair:
        s = term_sign(t.left)
        return s if s is None else (NEGATIVE if s == NEGATIVE else UNSIGNED)
    if kind is Bang:
        s = term_sign(t.inner)
        return s if s is None else (POSITIVE if s == POSITIVE else UNSIGNED)
    if kind is TMeta:
        return None
    raise TypeError(f"not a term: {t!r}")


def _pairing_signs(left: Term, right: Term):
    signs = _part_signs("pairing", left, right)
    if signs is not None and signs[0] == POSITIVE:
        raise SignDisciplineError("pairing takes negative terms")


def _bang_sign(inner: Term):
    if term_sign(inner) == NEGATIVE:
        raise SignDisciplineError("'!' takes a positive term")


# the sign rule a compound term's constructor runs on its parts
_SIGN_RULES = {
    App: partial(_part_signs, "application"), Sum: partial(_part_signs, "sum"),
    Pair: _pairing_signs, Bang: _bang_sign,
}


# ---------------------------------------------------------------------------
# formulas


class Formula:
    __slots__ = ("_size", "__weakref__")


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True, init=False, eq=False)
class PropVar(Formula):
    name: str


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, init=False, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Just(Formula):
    """A justified formula ``t:F``."""

    term: Term
    body: Formula


@dataclass(frozen=True, slots=True, init=False, eq=False)
class FMeta(Formula):
    """Formula metavariable for axiom schemas."""

    name: str


# ---------------------------------------------------------------------------
# the parts table

# Every node class, with the attributes holding its parts (terms or
# formulas) in constructor order; leaves have none.  The row order is the
# order of head symbols in enumeration: terms first, then formulas.
_PARTS: dict[type, tuple[str, ...]] = {
    Const: (), Var: (), App: ("left", "right"), Sum: ("left", "right"),
    Pair: ("left", "right"), Bang: ("inner",), TMeta: (),
    Bottom: (), PropVar: (), Not: ("body",), And: ("left", "right"),
    Or: ("left", "right"), Implies: ("left", "right"),
    Just: ("term", "body"), FMeta: (),
}

# term operation name (as in ``LogicProfile.term_ops``) -> constructor
# and operator symbol
_TERM_OPS: dict[str, tuple[type, str]] = {
    "app": (App, "."), "sum": (Sum, "+"), "pair": (Pair, "&"),
    "bang": (Bang, "!"),
}


def _getter(names: tuple[str, ...]):
    """A function returning the named attributes of a node as a tuple."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names) if names else lambda node: ()


_GET_PARTS = {kind: _getter(names) for kind, names in _PARTS.items()}

# a node's fields, which ``_reduce`` hands back to the constructor
_GET_FIELDS = {kind: _getter(tuple(f.name for f in fields(kind)))
               for kind in _PARTS}

# The intern tables, one per node class (see the module docstring).  A
# table is keyed by the field itself for a one-field class and by the
# field tuple otherwise; a compound's key is the tuple of its parts,
# which are interned already.  It holds each node by an ``_Entry``, a
# weak reference whose callback drops the entry when the node dies,
# unless a new node of the same fields has taken the key since.  The
# tables are not locked: ``dlk`` builds nodes from one thread.
_INTERNED: dict[type, dict] = {kind: {} for kind in _PARTS}


class _Entry(weakref.ref):
    """A weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


# a dead reference, the intern lookup's default: calling it gives None
_MISSING = weakref.ref(set())


def _forgetter(table: dict):
    """The callback that drops a dead node's entry from ``table``."""
    def forget(entry):
        if table.get(entry.key) is entry:
            del table[entry.key]
    return forget


def _constructor(kind):
    """The ``__new__`` of node class ``kind``, generated so that building
    a node is one call that looks nothing up but its table entry.  It
    runs the class's sign rule, if it has one, on every call, so that a
    refused node is refused however often it was built before and the
    rule's calls do not depend on what the table holds.  A hit returns
    the interned node; a miss writes the fields through their slot
    descriptors, fills ``_size`` and interns the new node."""
    names = tuple(f.name for f in fields(kind))
    parts = _PARTS[kind]
    if parts and names != parts or len(parts) > 2:
        raise TypeError(f"{kind.__name__} needs fields that are its parts, "
                        f"at most two")
    base = Term if issubclass(kind, Term) else Formula
    table = _INTERNED[kind]
    env = {"_set_size": vars(base)["_size"].__set__, "_new": object.__new__,
           "_rule": _SIGN_RULES.get(kind), "_table": table,
           "_get": table.get, "_missing": _MISSING, "_entry": _Entry,
           "_forget": _forgetter(table)}
    params, body = ["cls"], []
    if kind in _SIGN_RULES:
        body.append(f"_rule({', '.join(parts)})")
    key = names[0] if len(names) == 1 else \
        "(" + "".join(f"{name}, " for name in names) + ")"
    body += [f"key = {key}", "node = _get(key, _missing)()",
             "if node is not None:", "    return node", "node = _new(cls)"]
    for f in fields(kind):
        env[f"_set_{f.name}"] = vars(kind)[f.name].__set__
        body.append(f"_set_{f.name}(node, {f.name})")
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    body += ["_set_size(node, "
             + " + ".join(["1"] + [f"{part}._size" for part in parts]) + ")",
             "entry = _table[key] = _entry(node, _forget)", "entry.key = key",
             "return node"]
    exec(f"def __new__({', '.join(params)}):\n"
         + "".join(f"    {line}\n" for line in body), env)
    new = env["__new__"]
    new.__qualname__ = f"{kind.__qualname__}.__new__"
    return staticmethod(new)


def _reduce(node):
    return type(node), _GET_FIELDS[type(node)](node)


# the generated guards of a frozen class with slots raise TypeError on a
# name that is not a field, from ``super()`` in the replaced class
def _setattr(node, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(node, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


for _kind in _PARTS:
    _kind.__new__ = _constructor(_kind)
    _kind.__reduce__ = _reduce
    _kind.__setattr__ = _setattr
    _kind.__delattr__ = _delattr

BOTTOM = Bottom()


def _parts(node) -> tuple:
    """Immediate parts of a term or formula, in constructor order."""
    return _GET_PARTS[type(node)](node)


def _label(leaf) -> tuple[str, ...]:
    """What a leaf prints as: name and sign, a name, or ``_|_``."""
    if isinstance(leaf, (Const, Var)):
        return (leaf.name, leaf.sign)
    return ("_|_",) if isinstance(leaf, Bottom) else (leaf.name,)


def _size(node) -> int:
    return node._size


term_size = formula_size = _size


def _walk(node, kind):
    """The node and, pre-order, every part of class ``kind`` below it."""
    yield node
    for part in _parts(node):
        if isinstance(part, kind):
            yield from _walk(part, kind)


def subterms(t: Term):
    """All subterms of t, t included."""
    yield from _walk(t, Term)


def subformulas(f: Formula):
    """All subformulas of f, f included (terms are not descended into)."""
    yield from _walk(f, Formula)


def formula_terms(f: Formula):
    """All terms occurring in justification position within f, with subterms."""
    for node in _walk(f, (Term, Formula)):
        if isinstance(node, Term):
            yield node


# ---------------------------------------------------------------------------
# printing

_LVL_IMPLIES, _LVL_OR, _LVL_AND, _LVL_NOT, _LVL_JUST, _LVL_ATOM = 1, 2, 3, 4, 5, 6

# compound node class -> (format, its binding level, the floor of each
# part); a part binding more loosely than its floor is parenthesised
_FORMATS: dict[type, tuple[str, int, tuple[int, ...]]] = {
    App: ("[{}.{}]", _LVL_ATOM, (0, 0)),
    Sum: ("[{}+{}]", _LVL_ATOM, (0, 0)),
    Pair: ("[{} & {}]", _LVL_ATOM, (0, 0)),
    Bang: ("!{}", _LVL_ATOM, (0,)),
    Not: ("~{}", _LVL_NOT, (_LVL_NOT,)),
    And: ("{} /\\ {}", _LVL_AND, (_LVL_AND, _LVL_NOT)),
    Or: ("{} \\/ {}", _LVL_OR, (_LVL_OR, _LVL_AND)),
    Implies: ("{} -> {}", _LVL_IMPLIES, (_LVL_OR, _LVL_IMPLIES)),
    Just: ("{}:{}", _LVL_JUST, (0, _LVL_JUST)),
}


def _print(node, floor: int) -> str:
    if type(node) not in _FORMATS:
        return "".join(_label(node))
    fmt, level, floors = _FORMATS[type(node)]
    text = fmt.format(*map(_print, _parts(node), floors))
    return "(" + text + ")" if level < floor else text


def print_term(t: Term) -> str:
    return _print(t, 0)


def print_formula(f: Formula) -> str:
    return _print(f, 0)


# ---------------------------------------------------------------------------
# sort keys

_RANK = {kind: rank for rank, kind in enumerate(_PARTS)}


def _sort_key(node) -> tuple:
    """(size, rank of the head symbol, the parts' keys or the leaf's label)."""
    parts = _parts(node)
    if not parts:
        return (1, _RANK[type(node)], _label(node))
    tail = tuple(map(_sort_key, parts))
    return (1 + sum(key[0] for key in tail), _RANK[type(node)], tail)


term_sort_key = formula_sort_key = _sort_key


# ---------------------------------------------------------------------------
# tokenizer / parser

_PUNCT = set("~:()[].+-&!")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text``, each (kind, text, position), ending in
    EOF.  A token is told by its first character: punctuation (``-``
    opening ``->``), space, then ``_|_``, ``/\\``, ``\\/`` and names."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in _PUNCT:
            if c == "-" and text.startswith("->", i):
                tokens.append(("ARROW", "->", i))
                i += 2
            else:
                tokens.append((c, c, i))
                i += 1
        elif c.isspace():
            i += 1
        elif c == "_" and text.startswith("_|_", i):
            tokens.append(("BOT", "_|_", i))
            i += 3
        elif c == "/" and text.startswith("/\\", i):
            tokens.append(("AND", "/\\", i))
            i += 2
        elif c == "\\" and text.startswith("\\/", i):
            tokens.append(("OR", "\\/", i))
            i += 2
        elif c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            # an identifier glued to '[' is one bracketed name (X[s-:E] style)
            if j < n and text[j] == "[":
                depth = 0
                k = j
                while k < n:
                    if text[k] == "[":
                        depth += 1
                    elif text[k] == "]":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
                if depth != 0:
                    raise ParseError("unbalanced '[' in bracketed name", j)
                j = k + 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


_SIGN_FOLLOWERS = {".", "+", "&", "]", ")", ":", "EOF"}


class _Parser:
    def __init__(self, text: str, signed: bool):
        self.tokens = _tokenize(text)
        self.signed = signed
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def nested(self, parse):
        """Run ``parse`` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise NestingError(f"input nested more than {MAX_NESTING} "
                               f"levels deep", self.peek()[2])
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def expect_eof(self):
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])

    # formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "ARROW":
            self.next()
            return Implies(left, self.nested(self.formula))
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[0] == "OR":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "AND":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        if self.peek()[0] == "~":
            self.next()
            return Not(self.nested(self.unary))
        return self.justified()

    def _starts_term(self) -> bool:
        kind, value, _ = self.peek()
        if kind in ("[", "!"):
            return True
        return kind == "NAME" and value[0].islower()

    def justified(self) -> Formula:
        if self._starts_term():
            t = self.nested(self.term)
            self.expect(":", "':' after a justification term")
            return Just(t, self.nested(self.justified))
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "BOT":
            return BOTTOM
        if kind == "NAME" and value[0].isupper():
            return PropVar(value)
        if kind == "(":
            f = self.nested(self.formula)
            self.expect(")", "')'")
            return f
        raise ParseError("expected a formula", pos)

    # terms --------------------------------------------------------------

    def term(self) -> Term:
        kind, value, pos = self.peek()
        if kind == "[":
            self.next()
            left = self.nested(self.term)
            op_kind, op_value, op_pos = self.next()
            if op_kind not in (".", "+", "&"):
                raise ParseError("expected a term operator '.', '+' or '&'", op_pos)
            right = self.nested(self.term)
            self.expect("]", "']'")
            ctor = {".": App, "+": Sum, "&": Pair}[op_kind]
            try:
                return ctor(left, right)
            except SignDisciplineError as exc:
                raise SignViolation(str(exc), op_pos) from None
        if kind == "!":
            self.next()
            inner = self.nested(self.term)
            try:
                return Bang(inner)
            except SignDisciplineError as exc:
                raise SignViolation(str(exc), pos) from None
        if kind == "NAME" and value[0].islower():
            self.next()
            sign = self._maybe_sign()
            if self.signed and sign == UNSIGNED:
                raise SignViolation(f"leaf {value!r} requires a sign in signed syntax", pos)
            if not self.signed and sign != UNSIGNED:
                raise SignViolation("signs are only allowed in signed syntax", pos)
            ctor = Const if value[0] in "abcde" else Var
            return ctor(value, sign)
        raise ParseError("expected a justification term", pos)

    def _maybe_sign(self) -> str:
        kind, value, _ = self.peek()
        if kind in ("+", "-") and self.peek(1)[0] in _SIGN_FOLLOWERS:
            self.next()
            return value
        return UNSIGNED


def parse_formula(text: str, signed: bool = False) -> Formula:
    p = _Parser(text, signed)
    f = p.formula()
    p.expect_eof()
    return f


def parse_term(text: str, signed: bool = False) -> Term:
    p = _Parser(text, signed)
    t = p.term()
    p.expect_eof()
    return t


def parse_variable(name: str) -> PropVar:
    """The propositional variable spelled exactly ``name``.  A name must
    read back as itself, so ``p`` (a term), ``_|_`` (falsum), ``P /\\ Q``,
    `` P`` and ``''`` raise ParseError; bracketed names such as
    ``X[s-:E]`` are variables."""
    try:
        f = parse_formula(name)
    except ParseError:
        f = None
    if type(f) is not PropVar or f.name != name:
        raise ParseError(f"{name!r} is not a propositional variable", 0)
    return f


def read_formulas(texts, signed: bool, what: str,
                  error: type[ValueError]) -> list[Formula]:
    """Parse a document's list of formula strings.  ``error`` is raised,
    naming ``what`` and the index of the item at fault, when ``texts`` is
    not a list, an item is not a string or an item does not parse."""
    if not isinstance(texts, list):
        raise error(f"{what} must be a list of formula strings")
    out = []
    for i, text in enumerate(texts):
        if not isinstance(text, str):
            raise error(f"{what}: formula {i} must be a string, "
                        f"not {text!r}")
        try:
            out.append(parse_formula(text, signed))
        except ParseError as exc:
            raise error(f"{what}: formula {i}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# enumeration

@dataclass(frozen=True)
class Alphabet:
    """Symbol inventory for enumeration.

    With ``signed`` set, every term leaf is generated in both signs.  A
    name given twice is one symbol.
    """

    prop_vars: tuple[str, ...] = ()
    term_vars: tuple[str, ...] = ()
    term_consts: tuple[str, ...] = ()
    signed: bool = False

    def leaves(self) -> list[Term]:
        signs = (POSITIVE, NEGATIVE) if self.signed else (UNSIGNED,)
        out: list[Term] = [Const(n, s) for n in dict.fromkeys(self.term_consts)
                           for s in signs]
        out += [Var(n, s) for n in dict.fromkeys(self.term_vars) for s in signs]
        return out


def _splits(arity: int, n: int) -> list[tuple[int, ...]]:
    """The sizes of the parts of a node of size n with ``arity`` parts,
    by ascending size of the first part."""
    return [(n - 1,)] if arity == 1 else \
        [(k, n - 1 - k) for k in range(1, n - 1)]


def _compounds(rows, n: int) -> list:
    """Every node of size n that a row's constructor builds from parts
    drawn, by size, from the row's pools (dicts size -> nodes); those
    breaking sign discipline are skipped.

    The nodes come out in ``_sort_key`` order when the rows are in
    ``_RANK`` order and every pool list is sorted by ``_sort_key`` and
    free of duplicates: the size splits run by ascending size of the
    first part, which is the first field of its key, and the product
    walks each part's sorted pool in turn, so the parts' keys ascend
    lexicographically within a row."""
    items = []
    for ctor, pools in rows:
        for sizes in _splits(len(pools), n):
            for parts in _cartesian(*(pool.get(k, ())
                                      for pool, k in zip(pools, sizes))):
                try:
                    items.append(ctor(*parts))
                except SignDisciplineError:
                    pass
    return items


def enumerate_terms(alphabet: Alphabet, size_bound: int,
                    ops: frozenset[str] = frozenset({"app", "sum"})) -> list[Term]:
    """All terms of size <= size_bound over the alphabet, enumeration order.

    The order is total: by size, then by a fixed rank of the head symbol,
    then lexicographically by the parts; every proper subterm precedes
    its compound.  It is ``_sort_key`` order, met by construction (see
    ``_compounds``): only the leaves are sorted.
    """
    by_size: dict[int, list[Term]] = {1: sorted(alphabet.leaves(), key=_sort_key)}
    built = {ctor for op, (ctor, _) in _TERM_OPS.items() if op in ops}
    rows = [(ctor, (by_size,) * len(names))
            for ctor, names in _PARTS.items() if ctor in built]
    for n in range(2, size_bound + 1):
        by_size[n] = _compounds(rows, n)
    return [t for n in range(1, size_bound + 1) for t in by_size.get(n, ())]


def _formula_start(alphabet: Alphabet, terms: list[Term]):
    """What a formula enumeration starts from: the formulas of size 1 in
    ``_sort_key`` order, falsum first, and ``terms`` deduplicated,
    grouped by size and each group sorted once."""
    terms_by_size: dict[int, list[Term]] = {}
    for t in dict.fromkeys(terms):
        terms_by_size.setdefault(_size(t), []).append(t)
    for group in terms_by_size.values():
        group.sort(key=_sort_key)
    base: list[Formula] = [BOTTOM] + [PropVar(v) for v in
                                      dict.fromkeys(alphabet.prop_vars)]
    return sorted(base, key=_sort_key), terms_by_size


def _formula_rows(by_size: dict, terms_by_size: dict) -> list:
    """The compound formula rows for ``_compounds``, in ``_RANK`` order:
    each constructor with a pool per part, ``terms_by_size`` for the one
    term part (Just's, named "term") and ``by_size`` for the others."""
    return [(ctor, tuple(terms_by_size if name == "term" else by_size
                         for name in names))
            for ctor, names in _PARTS.items()
            if names and issubclass(ctor, Formula)]


def enumerate_formulas(alphabet: Alphabet, size_bound: int,
                       terms: list[Term]) -> list[Formula]:
    """All formulas of size <= size_bound, enumeration order.

    Justified formulas draw their terms from ``terms``, a term
    enumeration such as ``enumerate_terms`` gives, or any list of terms:
    they are deduplicated, grouped by size and each group sorted once,
    so that ``_compounds`` builds the formulas in ``_sort_key`` order.
    """
    leaves, terms_by_size = _formula_start(alphabet, terms)
    by_size: dict[int, list[Formula]] = {1: leaves}
    rows = _formula_rows(by_size, terms_by_size)
    for n in range(2, size_bound + 1):
        by_size[n] = _compounds(rows, n)
    return [f for n in range(1, size_bound + 1) for f in by_size.get(n, ())]
