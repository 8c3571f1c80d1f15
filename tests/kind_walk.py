"""The two-level kind key computed through the parts table, kept as the
oracle of ``dlk.demand._TOP``.

The rule index keyed its tables with ``top`` (``_top`` in
``dlk.demand``, verbatim below), which reads a node's parts through
``syntax._parts`` on every lookup, until each node class got a generated
function that reads the parts' classes directly (``demand._kind_key``).
Both must give every node the same key.
"""

from __future__ import annotations

from dlk.syntax import _parts


def top(node) -> tuple:
    """The node kinds of a node's top two levels: its own, then its
    parts'."""
    return (type(node), *map(type, _parts(node)))
