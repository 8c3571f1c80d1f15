"""``syntax._tokenize`` against the tokenizer it replaced, its oracle
(``startswith_tokenizer.py``).

Random strings are joined from pieces: every character of the grammar,
digits, ``|`` and ``>``, spaces of several kinds, the multi-character
tokens and their broken prefixes, bracketed names (closed, nested and
unbalanced) and characters the grammar has no use for, letters and
digits of other scripts among them.  Both tokenizers must give the same
tokens, or raise ``ParseError`` with the same message at the same
position.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlk.syntax import ParseError, _tokenize

import startswith_tokenizer as oracle

PIECES = st.sampled_from(
    list("~:()[].+-&!/\\_PQRxyab") + list("0123456789|>")
    + [" ", "  ", "\t", "\n", " "]
    + ["_|_", "/\\", "\\/", "->", "_|", "_ |_", "-", "--", "->>"]
    + ["X[s-:E]", "Y[[a]]b", "Z[", "W[a]]", "P_1", "x2"]
    + ["#", "@", "$", "\x00", "é", "λ", "Ω", "٣", "²"])

TEXTS = st.lists(PIECES, max_size=30).map("".join)


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position)


@settings(max_examples=600, deadline=None)
@given(TEXTS)
@example("~" * 3000 + "P")
@example("a:(P /\\ Q) -> [x.y]:~P \\/ _|_ -> X[s-:E] /\\ !x+:Q")
@example("P -> - > Q")
@example("")
def test_tokens_are_the_oracles(text):
    assert _outcome(_tokenize, text) == _outcome(oracle._tokenize, text)
