"""The tokenizer of ``dlk.syntax`` as it was before it told tokens by
their first character, kept as the oracle of ``_tokenize``.

``_tokenize`` here tests whitespace, then ``_|_``, ``/\\``, ``\\/`` and
``->`` with ``startswith`` at every character, then punctuation, then
names: four ``startswith`` calls before a punctuation character is
found.  It is the old code, verbatim.  Both must give the same tokens,
or raise ``ParseError`` with the same message at the same position.
"""

from __future__ import annotations

from dlk.syntax import ParseError

_PUNCT = set("~:()[].+-&!")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("_|_", i):
            tokens.append(("BOT", "_|_", i))
            i += 3
        elif text.startswith("/\\", i):
            tokens.append(("AND", "/\\", i))
            i += 2
        elif text.startswith("\\/", i):
            tokens.append(("OR", "\\/", i))
            i += 2
        elif text.startswith("->", i):
            tokens.append(("ARROW", "->", i))
            i += 2
        elif c in _PUNCT:
            tokens.append((c, c, i))
            i += 1
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
