"""Byte-string helpers for the string axis model (HOPE §3.1).

All HOPE machinery operates on ``bytes`` keys laid out on the
lexicographic *string axis*. This module provides the small amount of
axis arithmetic every other module needs:

* ``increment`` — the tight right boundary of the interval covered by a
  symbol (smallest string greater than every extension of the symbol);
* ``lcp`` / ``interval_symbol`` — the max-length common prefix of an
  interval ``[lo, hi)``, which is the dictionary symbol of that interval;
* ``trie_node_count`` — the size of the trie over sorted strings, for the
  analytic memory models of trie dictionaries and SuRF;
* ``Code`` / ``bits_to_bytes`` — codes are ``(value, nbits)`` pairs;
  concatenated keys materialise as zero-padded bytes plus an explicit
  bit count.

Why ``(padded_bytes, nbits)`` ordering equals bitstring ordering: two
bitstrings that first differ at bit *k* differ in the byte containing
*k* after zero-padding (earlier bytes equal, that byte smaller for the
0-bit side); if one is a prefix of the other, padded bytes compare
``<=`` and ``nbits`` breaks the tie in the right direction. This is
property-tested in ``tests/test_strutil.py``.
"""
from __future__ import annotations

from typing import Optional, Sequence, Tuple

Code = Tuple[int, int]  # (value, nbits) — value < 2**nbits


def increment(b: bytes) -> Optional[bytes]:
    """Smallest byte string strictly greater than every string with prefix ``b``.

    I.e. the right boundary of the axis interval "all extensions of b".
    Returns ``None`` for "end of axis" when ``b`` is empty or all 0xFF.
    """
    b = b.rstrip(b"\xff")
    if not b:
        return None
    return b[:-1] + bytes([b[-1] + 1])


def lcp(a: bytes, b: bytes) -> bytes:
    """Longest common prefix of two byte strings."""
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return a[:i]
    return a[:n]


def trie_node_count(sorted_strings: Sequence[bytes]) -> int:
    """Nodes of the trie over ``sorted_strings``, the root included.

    The nodes are the distinct prefixes of the strings (the empty prefix
    is the root). Sorted strings visit them depth-first: each string adds
    a node for every prefix longer than its common prefix with the
    previous string, so duplicates add none.
    """
    nodes = 1
    prev = b""
    for s in sorted_strings:
        nodes += len(s) - len(lcp(prev, s))
        prev = s
    return nodes


def pred_inf(hi: bytes) -> Tuple[bytes, bool]:
    """The supremum of strings strictly below ``hi``, as ``(base, inf_ff)``.

    If ``inf_ff`` is True the value is conceptually ``base + 0xFF * inf``
    (strings approaching ``hi`` from below); otherwise it is exactly
    ``base`` (``hi`` ends in 0x00, so its immediate predecessor is the
    prefix itself).
    """
    if not hi:
        raise ValueError("no strings below the empty string")
    if hi[-1] == 0:
        return hi[:-1], False
    return hi[:-1] + bytes([hi[-1] - 1]), True


def interval_symbol(lo: bytes, hi: Optional[bytes]) -> bytes:
    """Max-length common prefix of all strings in the axis interval ``[lo, hi)``.

    ``hi is None`` means the interval extends to the end of the axis.
    This is the dictionary symbol HOPE stores for the interval (§3.1);
    a valid complete dictionary requires it to be non-empty, which the
    symbol selectors guarantee by construction (callers validate).
    """
    if hi is None:
        base, inf_ff = b"", True
    else:
        if lo >= hi:
            raise ValueError(f"empty interval [{lo!r}, {hi!r})")
        base, inf_ff = pred_inf(hi)
    # lcp(lo, base + 0xFF^inf): compare lo to base, then to 0xFF forever.
    out = bytearray()
    for i, c in enumerate(lo):
        other = base[i] if i < len(base) else (0xFF if inf_ff else None)
        if other is None or c != other:
            break
        out.append(c)
    return bytes(out)


def bits_to_bytes(value: int, nbits: int) -> bytes:
    """Materialise a bitstring as zero-padded bytes (MSB first)."""
    if nbits == 0:
        return b""
    pad = (-nbits) % 8
    return (value << pad).to_bytes((nbits + 7) // 8, "big")
