"""Grammar, printing, sizes, and the bounded enumerations."""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields

import pytest

from dlk.syntax import (
    BOTTOM, MAX_NESTING, Alphabet, And, App, Bang, Bottom, Const, FMeta,
    Formula, Implies, Just, NestingError, Not, Or, Pair, ParseError, PropVar,
    SignDisciplineError, SignViolation, Sum, TMeta, Var, _PARTS, _RANK,
    _size,
    enumerate_formulas,
    enumerate_terms, formula_size, parse_formula, parse_term, print_formula,
    read_formulas, subformulas, subterms, term_sign, term_size,
)

P, Q, R = PropVar("P"), PropVar("Q"), PropVar("R")
x, y = Var("x"), Var("y")
a = Const("a")


# ---------------------------------------------------------------------------
# parsing


def test_precedence_and_association():
    # ':' binds tightest, then '~', '/\', '\/', '->' (right-assoc)
    assert parse_formula("t:P /\\ Q") == And(Just(Var("t"), P), Q)
    assert parse_formula("~t:P") == Not(Just(Var("t"), P))
    assert parse_formula("s:t:P") == Just(Var("s"), Just(Var("t"), P))
    assert parse_formula("P -> Q -> R") == Implies(P, Implies(Q, R))
    assert parse_formula("P \\/ Q /\\ R") == Or(P, And(Q, R))
    assert parse_formula("~P /\\ ~Q") == And(Not(P), Not(Q))
    assert parse_formula("P -> Q \\/ R -> S") == Implies(
        P, Implies(Or(Q, R), PropVar("S")))


def test_term_grammar():
    assert parse_term("[s.t]") == App(Var("s"), Var("t"))
    assert parse_term("[s + t]") == Sum(Var("s"), Var("t"))
    assert parse_term("[s&t]") == Pair(Var("s"), Var("t"))
    assert parse_term("a") == Const("a")     # a-e are constants
    assert parse_term("f") == Var("f")       # f-z are variables
    assert parse_term("!x", signed=False) == Bang(Var("x"))


def test_bottom_and_parens():
    assert parse_formula("_|_") == Bottom()
    assert parse_formula("(P -> Q) -> R") == Implies(Implies(P, Q), R)
    assert parse_formula("t:(P -> Q)") == Just(Var("t"), Implies(P, Q))


@pytest.mark.parametrize("bad", [
    "", "P ->", "(P", "P Q", "t:", "~", "[s,t]:P", "p", "P -> -> Q",
])
def test_rejected_formulas(bad):
    with pytest.raises((ParseError, SignViolation)):
        parse_formula(bad)


@pytest.mark.parametrize("open_, close", [
    ("~", ""), ("(", ")"), ("t:", ""), ("P -> ", ""),
])
def test_nesting_is_capped(open_, close):
    def nest(levels):
        return open_ * levels + "P" + close * levels

    assert isinstance(parse_formula(nest(MAX_NESTING - 1)), Formula)
    with pytest.raises(NestingError):
        parse_formula(nest(MAX_NESTING + 1))


def test_term_nesting_is_capped():
    with pytest.raises(NestingError):
        parse_term("[" * 3000 + "x")


def test_signed_leaves_need_signs():
    assert parse_formula("s-:E", signed=True) == Just(
        Var("s", "-"), PropVar("E"))
    with pytest.raises((ParseError, SignViolation)):
        parse_formula("s:E", signed=True)
    # and unsigned mode rejects sign suffixes
    with pytest.raises((ParseError, SignViolation)):
        parse_formula("s-:E", signed=False)


def test_sign_homogeneity_enforced_at_construction():
    sp, tn = Var("s", "+"), Var("t", "-")
    with pytest.raises(SignDisciplineError):
        App(sp, tn)
    with pytest.raises(SignDisciplineError):
        Sum(sp, tn)
    with pytest.raises(SignDisciplineError):
        Pair(sp, Var("u", "+"))    # pairing is negative-only
    with pytest.raises(SignDisciplineError):
        Bang(tn)                   # bang is positive-only
    assert term_sign(Pair(tn, Var("u", "-"))) == "-"
    assert term_sign(Bang(sp)) == "+"
    assert term_sign(x) == ""


class _DocError(ValueError):
    pass


@pytest.mark.parametrize("texts, message", [
    ("P", "'fs' must be a list of formula strings"),
    (["P", 7], "'fs': formula 1 must be a string, not 7"),
    (["P", "Q", "s:E"], "'fs': formula 2: "),
    (["~" * 3000 + "P"], "'fs': formula 0: input nested more than"),
])
def test_read_formulas_names_the_list_and_the_item(texts, message):
    with pytest.raises(_DocError) as err:
        read_formulas(texts, True, "'fs'", _DocError)
    assert str(err.value).startswith(message)


def test_read_formulas_parses_in_order():
    assert read_formulas(["t+:P", "~Q"], True, "'fs'", _DocError) == [
        Just(Var("t", "+"), P), Not(Q)]
    assert read_formulas([], False, "'fs'", _DocError) == []


def test_print_parse_round_trip():
    texts = [
        "t:P -> ~P", "s:(t:P -> ~P)", "~(t:P -> ~P)",
        "[s & t]:(P /\\ Q)", "[s+t]:P \\/ [s.t]:Q",
        "_|_ -> P", "~~P", "a:A -> (b:B -> [a & b]:(A /\\ B))",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f


def test_signed_round_trip():
    for text in ["t+:(s-:E)", "~[s- & t-]:(P /\\ Q)", "!c+:P -> c+:P"]:
        f = parse_formula(text, signed=True)
        assert parse_formula(print_formula(f), signed=True) == f


# ---------------------------------------------------------------------------
# sizes: independent recursive counters


def fsize(f):
    if isinstance(f, (PropVar, Bottom)):
        return 1
    if isinstance(f, Not):
        return 1 + fsize(f.body)
    if isinstance(f, Just):
        return 1 + tsize(f.term) + fsize(f.body)
    return 1 + fsize(f.left) + fsize(f.right)


def tsize(t):
    if isinstance(t, (Var, Const)):
        return 1
    if isinstance(t, Bang):
        return 1 + tsize(t.inner)
    return 1 + tsize(t.left) + tsize(t.right)


@pytest.mark.parametrize("text,expected", [
    ("P", 1), ("_|_", 1), ("~P", 2), ("t:P", 3), ("t:P -> ~P", 6),
    ("s:(t:P -> ~P)", 8), ("[s & t]:(P /\\ Q)", 7),
])
def test_formula_size_cases(text, expected):
    f = parse_formula(text)
    assert formula_size(f) == expected == fsize(f)


def test_term_size_cases():
    for text, expected in [("x", 1), ("[x.y]", 3), ("[x+[y & y]]", 5),
                           ("!x", 2)]:
        t = parse_term(text)
        assert term_size(t) == expected == tsize(t)


# ---------------------------------------------------------------------------
# subformulas / subterms


def test_subformulas_of_denial_shape():
    f = parse_formula("t:P -> ~P")
    subs = set(subformulas(f))
    assert subs == {f, Just(Var("t"), P), Not(P), P}


def test_subterms():
    t = parse_term("[[x.y]+x]")
    assert set(subterms(t)) == {t, App(x, y), x, y}


# ---------------------------------------------------------------------------
# enumeration against a brute-force oracle


def brute_terms(leaves, bound, ops):
    by_size = {1: list(leaves)}
    for n in range(2, bound + 1):
        row = []
        if "bang" in ops:
            for inner in by_size.get(n - 1, []):
                try:
                    row.append(Bang(inner))
                except SignDisciplineError:
                    pass
        for ls in range(1, n - 1):
            for l in by_size.get(ls, []):
                for r in by_size.get(n - 1 - ls, []):
                    for op, ctor in (("app", App), ("sum", Sum),
                                     ("pair", Pair)):
                        if op in ops:
                            try:
                                row.append(ctor(l, r))
                            except SignDisciplineError:
                                pass
        by_size[n] = row
    return {t for row in by_size.values() for t in row}


def brute_formulas(atoms, terms, bound):
    by_size = {1: list(atoms) + [Bottom()]}
    for n in range(2, bound + 1):
        row = []
        for body in by_size.get(n - 1, []):
            row.append(Not(body))
        for t in terms:
            for body in by_size.get(n - 1 - term_size(t), []):
                row.append(Just(t, body))
        for ls in range(1, n - 1):
            for l in by_size.get(ls, []):
                for r in by_size.get(n - 1 - ls, []):
                    row.extend((And(l, r), Or(l, r), Implies(l, r)))
        by_size[n] = row
    return {f for row in by_size.values() for f in row}


@pytest.mark.parametrize("ops", [
    frozenset({"app", "sum"}),
    frozenset({"app", "sum", "pair"}),
    frozenset({"app", "sum", "bang"}),
])
def test_term_enumeration_matches_brute_force(ops):
    alpha = Alphabet((), ("x",), ("a",), signed=False)
    got = enumerate_terms(alpha, 5, ops)
    want = brute_terms([x, a], 5, ops)
    assert set(got) == want
    assert len(got) == len(want)          # no duplicates
    sizes = [term_size(t) for t in got]
    assert sizes == sorted(sizes)         # ascending by size


def test_signed_term_enumeration():
    alpha = Alphabet((), ("x",), (), signed=True)
    ops = frozenset({"app", "sum", "pair", "bang"})
    got = enumerate_terms(alpha, 3, ops)
    want = brute_terms([Var("x", "+"), Var("x", "-")], 3, ops)
    assert set(got) == want
    assert all(term_sign(t) in ("+", "-") for t in got)


def test_formula_enumeration_matches_brute_force():
    alpha = Alphabet(("P",), ("x",), (), signed=False)
    ops = frozenset({"app", "sum"})
    terms = enumerate_terms(alpha, 3, ops)
    got = enumerate_formulas(alpha, 4, terms=terms)
    want = brute_formulas([P], brute_terms([x], 3, ops), 4)
    assert set(got) == want
    sizes = [formula_size(f) for f in got]
    assert sizes == sorted(sizes)


def test_enumerations_run_their_rows_in_rank_order():
    alpha = Alphabet(("P",), ("x",), ("a",), signed=False)
    terms = enumerate_terms(alpha, 4, frozenset({"app", "sum", "pair", "bang"}))
    formulas = enumerate_formulas(alpha, 5, terms)
    for nodes, kinds in ((terms, {Const, Var, App, Sum, Pair, Bang}),
                         (formulas, {Bottom, PropVar, Not, And, Or, Implies,
                                     Just})):
        assert {type(node) for node in nodes} == kinds
        heads = [(_size(node), _RANK[type(node)]) for node in nodes]
        assert heads == sorted(heads)


def test_repeated_symbols_and_terms_enumerate_once():
    ops = frozenset({"app", "sum", "pair", "bang"})
    for signed in (False, True):
        alpha = Alphabet(("P", "Q", "P"), ("x", "x"), ("a", "a"), signed)
        once = Alphabet(("P", "Q"), ("x",), ("a",), signed)
        assert alpha.leaves() == once.leaves()
        terms = enumerate_terms(alpha, 3, ops)
        assert terms == enumerate_terms(once, 3, ops)
        assert len(set(terms)) == len(terms)
        formulas = enumerate_formulas(alpha, 4, terms + terms[::-1])
        assert formulas == enumerate_formulas(once, 4, terms)
        assert len(set(formulas)) == len(formulas)


def test_enumeration_monotone_in_bound():
    alpha = Alphabet(("P",), ("x",), (), signed=False)
    ops = frozenset({"app", "sum", "pair"})
    small = set(enumerate_terms(alpha, 3, ops))
    large = set(enumerate_terms(alpha, 5, ops))
    assert small <= large


# ---------------------------------------------------------------------------
# the node classes: slotted, frozen, interned

# one node of every class, and each class's match arguments
NODES = {
    Const: (Const("a", "+"), ("name", "sign")),
    Var: (Var("x"), ("name", "sign")),
    App: (App(x, y), ("left", "right")),
    Sum: (Sum(Var("x", "-"), Var("y", "-")), ("left", "right")),
    Pair: (Pair(Var("x", "-"), Const("a", "-")), ("left", "right")),
    Bang: (Bang(Var("x", "+")), ("inner",)),
    TMeta: (TMeta("t", "neg"), ("name", "polarity")),
    Bottom: (BOTTOM, ()),
    PropVar: (P, ("name",)),
    Not: (Not(P), ("body",)),
    And: (And(P, Q), ("left", "right")),
    Or: (Or(P, Not(Q)), ("left", "right")),
    Implies: (Implies(And(P, Q), R), ("left", "right")),
    Just: (Just(App(x, y), P), ("term", "body")),
    FMeta: (FMeta("P"), ("name",)),
}


def test_every_node_class_is_covered():
    assert set(NODES) == set(_PARTS)


@pytest.mark.parametrize("kind", list(NODES), ids=lambda k: k.__name__)
def test_node_hash_is_the_generated_one(kind):
    # the identity hash of the interned node: the node built again is
    # the same node, and a node of another class over the same fields is
    # another node and hashes apart
    node, match_args = NODES[kind]
    assert type(node) is kind
    names = [f.name for f in fields(node)]
    values = [getattr(node, name) for name in names]
    assert kind(*values) is node and hash(kind(*values)) == hash(node)
    for other in _PARTS:
        if other is kind or [f.name for f in fields(other)] != names \
                or issubclass(other, Formula) != isinstance(node, Formula):
            continue
        try:
            twin = other(*values)
        except SignDisciplineError:
            continue
        assert twin != node and hash(twin) != hash(node)
    assert not hasattr(node, "__dict__")
    assert kind.__match_args__ == match_args
    for name in [f.name for f in fields(node)] + ["other"]:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)


@pytest.mark.parametrize("kind", list(NODES), ids=lambda k: k.__name__)
def test_node_copies_and_pickles_equal(kind):
    node, _ = NODES[kind]
    for twin in (copy.copy(node), copy.deepcopy(node),
                 pickle.loads(pickle.dumps(node))):
        assert twin is node


def test_constructors_keep_the_sign_discipline():
    pos, neg = Var("x", "+"), Var("y", "-")
    for build in (lambda: App(pos, neg), lambda: Sum(neg, pos),
                  lambda: Pair(neg, pos), lambda: Pair(pos, Var("z", "+")),
                  lambda: Bang(neg), lambda: Just(Sum(pos, neg), P)):
        with pytest.raises(SignDisciplineError):
            build()
