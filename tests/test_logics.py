"""Axiom schemas, profiles, matching, and the signed translation."""

import copy
import pickle

import pytest

from dlk.logics import (
    Binding, RefusalError, SCHEMAS, _translation, check_in_profile,
    get_profile, instantiate, match_axiom, match_template, translate,
)
from dlk.proofs import Proof, axiom_line, proof_to_dict
from dlk.syntax import (
    Alphabet, And, Implies, Just, Not, Or, PropVar, Var,
    enumerate_formulas, enumerate_terms, parse_formula, parse_term,
    print_formula, subformulas, term_sign, formula_terms,
)

CLASSICAL = {
    "k", "s", "and-elim-left", "and-elim-right", "and-intro",
    "or-intro-left", "or-intro-right", "or-elim", "ex-falso",
    "classical-negation", "neg-intro", "neg-elim",
}


def test_profile_schema_sets():
    assert set(get_profile("jl").schema_ids) == CLASSICAL | {
        "application", "sum-left", "sum-right"}
    assert set(get_profile("dl").schema_ids) == CLASSICAL | {
        "application", "sum-left", "sum-right", "denial", "pairing"}
    assert set(get_profile("dl0").schema_ids) == CLASSICAL | {
        "application", "sum-left", "sum-right", "denial"}
    assert set(get_profile("lp").schema_ids) == CLASSICAL | {
        "application", "sum-left", "sum-right", "factivity",
        "introspection"}
    assert set(get_profile("fused").schema_ids) == CLASSICAL | {
        "application", "sum-left", "sum-right", "denial", "pairing",
        "factivity", "introspection"}


def test_profile_term_ops():
    assert get_profile("dl0").term_ops == frozenset({"app", "sum"})
    assert get_profile("dl").term_ops == frozenset({"app", "sum", "pair"})
    assert get_profile("lp").term_ops == frozenset({"app", "sum", "bang"})
    assert get_profile("fused").term_ops == frozenset(
        {"app", "sum", "pair", "bang"})
    with pytest.raises(KeyError):
        get_profile("s4")


def test_instantiate_denial():
    binding = Binding({"P": parse_formula("Q")},
                      {"t": parse_term("[x+y]")})
    inst = instantiate(SCHEMAS["denial"].template, binding)
    assert print_formula(inst) == "[x+y]:Q -> ~Q"


def test_instantiate_then_match_round_trip():
    # every schema, instantiated with concrete material, matches itself
    dl = get_profile("dl")
    fused = get_profile("fused")
    fm = {"P": parse_formula("A -> B"), "Q": parse_formula("~A"),
          "R": PropVar("C")}
    for profile, signed in ((dl, False), (fused, True)):
        tm = ({"s": parse_term("s-", signed=True),
               "t": parse_term("t-", signed=True)} if signed
              else {"s": parse_term("[x.y]"), "t": Var("t")})
        for sid in profile.schema_ids:
            template = SCHEMAS[sid].template
            names = {m.name for m in formula_terms(template)
                     if hasattr(m, "polarity")}
            if sid in ("factivity", "introspection"):
                tm_local = {n: parse_term(n + "+", signed=True)
                            for n in names}
            else:
                tm_local = {n: tm[n] for n in names}
            inst = instantiate(template, Binding(fm, tm_local),
                               signed=signed)
            assert sid in [hit for hit, _ in match_axiom(inst, profile)], sid


def test_match_axiom_rejects_near_misses():
    dl = get_profile("dl")
    assert match_axiom(parse_formula("P -> Q -> R"), dl) == []
    assert match_axiom(parse_formula("t:P -> ~Q"), dl) == []
    assert match_axiom(parse_formula("P"), dl) == []


def test_match_is_by_shape_not_by_name():
    # the same formula can instantiate several schemas
    dl = get_profile("dl")
    hits = [sid for sid, _ in match_axiom(parse_formula("P -> P -> P"), dl)]
    assert "k" in hits


def test_polarity_discipline_only_in_signed_profiles():
    fused = get_profile("fused")
    dl = get_profile("dl")
    # unsigned DL does not care about signs (there are none)
    assert [sid for sid, _ in
            match_axiom(parse_formula("t:P -> ~P"), dl)] == ["denial"]
    # fused denial demands a negative term ...
    neg = parse_formula("t-:P -> ~P", signed=True)
    pos = parse_formula("t+:P -> ~P", signed=True)
    assert [sid for sid, _ in match_axiom(neg, fused)] == ["denial"]
    assert all(sid != "denial" for sid, _ in match_axiom(pos, fused))
    # ... factivity a positive one
    fact_pos = parse_formula("t+:P -> P", signed=True)
    fact_neg = parse_formula("t-:P -> P", signed=True)
    assert "factivity" in [sid for sid, _ in match_axiom(fact_pos, fused)]
    assert all(sid != "factivity"
               for sid, _ in match_axiom(fact_neg, fused))


def test_match_template_binds_consistently():
    template = SCHEMAS["and-intro"].template   # P -> Q -> P /\ Q
    got = match_template(template, parse_formula("A -> B -> A /\\ B"))
    assert got is not None
    assert got.formulas["P"] == PropVar("A")
    assert got.formulas["Q"] == PropVar("B")
    # inconsistent reuse of a metavariable must fail
    assert match_template(template,
                          parse_formula("A -> B -> A /\\ C")) is None


def test_check_in_profile():
    dl = get_profile("dl")
    assert check_in_profile(parse_formula("t:P -> ~P"), dl) == []
    assert check_in_profile(parse_formula("!t:P"), dl) != []
    assert check_in_profile(parse_formula("[s & t]:P"),
                            get_profile("dl0")) != []
    assert check_in_profile(parse_formula("s+:C", signed=True), dl) != []
    assert check_in_profile(parse_formula("s+:C", signed=True),
                            get_profile("fused")) == []


# ---------------------------------------------------------------------------
# the signed translation


def minted_names(f) -> dict[str, str]:
    """Printed negative justified subformulas -> their fresh atom names,
    in the order ``_translation`` mints them."""
    return {print_formula(g): atom.name
            for g, atom in _translation([f])[1].items()}


def test_translate_replaces_negative_subjects():
    f = parse_formula("s-:E", signed=True)
    image = translate(f)
    assert print_formula(image) == "X[s-:E]"
    assert minted_names(f) == {"s-:E": "X[s-:E]"}


def test_translate_keeps_positive_wrapper():
    f = parse_formula("t+:(s-:E)", signed=True)
    assert print_formula(translate(f)) == "t+:X[s-:E]"


def test_translate_is_identity_on_propositional():
    for text in ("P", "~P", "P -> Q \\/ ~R", "_|_"):
        f = parse_formula(text, signed=True)
        assert translate(f) == f
        assert minted_names(f) == {}


@pytest.mark.parametrize("text", ["X[s-:E] /\\ s-:E", "~X[s-:E] /\\ s-:E"])
def test_translate_refuses_input_holding_an_atom_it_mints(text):
    # the image X[s-:E] /\ X[s-:E] would make a satisfiable formula a
    # contradiction, or a contradiction satisfiable
    with pytest.raises(ValueError, match=r"mint X\[s-:E\]"):
        translate(parse_formula(text, signed=True))


@pytest.mark.parametrize("text", ["X[s-:E] /\\ s-:E", "~X[s-:E] /\\ s-:E"])
def test_the_translation_dictionary_refuses_what_translate_refuses(text):
    # a dictionary for an image translate does not give would map s-:E
    # to an atom the input already uses
    with pytest.raises(ValueError, match=r"mint X\[s-:E\]"):
        minted_names(parse_formula(text, signed=True))


@pytest.mark.parametrize("texts", [["X[s-:E]", "s-:E"],
                                   ["t+:s-:E", "~X[s-:E] -> P"]])
def test_translation_refuses_one_formulas_atom_as_anothers_variable(texts):
    formulas = [parse_formula(t, signed=True) for t in texts]
    for f in formulas:          # each formula alone translates
        translate(f)
    with pytest.raises(RefusalError, match=r"mint X\[s-:E\]"):
        _translation(formulas)


def test_translation_of_several_formulas_is_each_ones_translation():
    formulas = [parse_formula(t, signed=True)
                for t in ["s-:E", "t+:(s-:E /\\ r-:F)", "P"]]
    images, minted = _translation(formulas)
    assert images == [translate(f) for f in formulas]
    assert {print_formula(g): atom.name for g, atom in minted.items()} == {
        "s-:E": "X[s-:E]", "r-:F": "X[r-:F]"}


def test_translate_refuses_a_justified_formula_without_a_sign():
    with pytest.raises(RefusalError, match="term has no sign"):
        translate(parse_formula("s:E"))


def test_the_translation_dictionary_lists_atoms_in_minting_order():
    f = parse_formula("t-:(s-:E) /\\ (s-:E -> u+:(v-:F))", signed=True)
    assert list(minted_names(f).items()) == [
        ("s-:E", "X[s-:E]"), ("t-:s-:E", "X[t-:X[s-:E]]"),
        ("v-:F", "X[v-:F]")]


def test_translate_translates_its_images_again():
    f = parse_formula("t+:(s-:E) /\\ s-:E", signed=True)
    image = translate(f)
    assert print_formula(image) == "t+:X[s-:E] /\\ X[s-:E]"
    assert translate(image) == image


def test_translate_homomorphic_on_boolean_nodes():
    l = parse_formula("s-:E", signed=True)
    r = parse_formula("t+:P", signed=True)
    assert translate(And(l, r)) == And(translate(l), translate(r))
    assert translate(Or(l, r)) == Or(translate(l), translate(r))
    assert translate(Implies(l, r)) == Implies(translate(l), translate(r))
    assert translate(Not(l)) == Not(translate(l))


def test_translate_images_have_no_negative_terms():
    fused = get_profile("fused")
    alpha = Alphabet(("P",), (), ("c",), signed=True)
    terms = enumerate_terms(alpha, 4, fused.term_ops)
    for f in enumerate_formulas(alpha, 5, terms=terms):
        image = translate(f)
        for sub in subformulas(image):
            if isinstance(sub, Just):
                assert term_sign(sub.term) == "+", print_formula(f)


def test_translate_injective_on_a_small_fragment():
    fused = get_profile("fused")
    alpha = Alphabet(("P", "Q"), (), ("c",), signed=True)
    terms = enumerate_terms(alpha, 4, fused.term_ops)
    fms = enumerate_formulas(alpha, 5, terms=terms)
    images = {}
    for f in fms:
        key = translate(f)
        assert key not in images, (
            f"{print_formula(f)} and {print_formula(images[key])} collide")
        images[key] = f


def test_binding_contract():
    # a slotted, not frozen, dataclass: equal by value, hashed by the
    # values under sorted names, copied and pickled whole, and written to
    # a proof document by name
    P, Q = parse_formula("A -> B"), parse_formula("~A")
    t = parse_term("[x+y]")
    one = Binding({"P": P, "Q": Q}, {"t": t})
    other = Binding({"Q": Q, "P": P}, {"t": t})
    assert one == other and hash(one) == hash(other)
    assert one != Binding({"P": P}, {"t": t}) != Binding({"P": P}, {})
    assert Binding() == Binding({}, {}) and hash(Binding()) == hash(
        Binding({}, {}))
    assert not hasattr(one, "__dict__")
    assert repr(one) == (f"Binding(formulas={{'P': {P!r}, 'Q': {Q!r}}}, "
                         f"terms={{'t': {t!r}}})")
    for twin in (copy.copy(one), copy.deepcopy(one),
                 pickle.loads(pickle.dumps(one))):
        assert type(twin) is Binding and twin == one
        assert hash(twin) == hash(one)
    assert copy.deepcopy(one).formulas["P"] is P    # nodes are interned
    binding = Binding({"P": parse_formula("Q")}, {"t": t})
    line = axiom_line("denial", binding,
                      instantiate(SCHEMAS["denial"].template, binding))
    doc = proof_to_dict(Proof(get_profile("dl"), (line,)))
    assert doc["lines"] == [{"kind": "axiom",
                             "formula": "[x+y]:Q -> ~Q",
                             "schema": "denial",
                             "binding": {"formulas": {"P": "Q"},
                                         "terms": {"t": "[x+y]"}}}]
