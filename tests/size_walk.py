"""The bounded size walk, kept as the oracle of the ``_size`` slot.

The demand engine measured a formula or a bound value with ``size_upto``
(``_size_upto`` in ``dlk.demand``, verbatim below) until every node kept
its size in a slot, filled by its constructor (``syntax._constructor``).
The slot must agree with the walk on every node, however it was built.
"""

from __future__ import annotations

from dlk.syntax import _GET_PARTS


def size_upto(node, limit: int) -> int:
    """``formula_size``/``term_size`` of the node, or ``limit + 1`` when
    it is larger; looks at no more than ``limit + 1`` nodes."""
    stack = [node]
    size = 0
    while stack:
        size += 1
        if size > limit:
            break
        node = stack.pop()
        stack.extend(_GET_PARTS[type(node)](node))
    return size
