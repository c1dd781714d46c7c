"""Bit-code references shared by the tests: bitstring order by sorting.

``intervals.check_order_preserving`` checks order and prefix-freedom in
one pass over adjacent codes; these sort-based definitions are what the
tests hold it and the Code Assigner to.
"""
from typing import Tuple

from repro.core.strutil import Code


def code_key(code: Code) -> Tuple[int, int]:
    """Sort key giving bitstring-lexicographic order over codes.

    Pad every code with zeros to a common width, compare the padded
    value, tie-break shorter-first (a bitstring sorts before its
    extensions).
    """
    v, n = code
    width = 64
    if n > width:
        width = n
    return (v << (width - n), n)


def is_prefix_free(codes) -> bool:
    """True iff no code is a bit-prefix of another (distinct entries)."""
    sc = sorted(codes, key=code_key)
    for (v1, n1), (v2, n2) in zip(sc, sc[1:]):
        if n1 <= n2 and (v2 >> (n2 - n1)) == v1:
            return False
    return True
