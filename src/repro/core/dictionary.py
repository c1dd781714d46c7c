"""Dictionary module (HOPE §4.2): interval -> code lookup structures.

A HOPE dictionary stores only the *left boundary* of each interval; a
lookup is a "greatest boundary <= suffix" (predecessor) query returning
the interval's code and symbol length. The paper (Table 1) names three
structures for that one query; here two classes execute it and the
paper's memory layouts are analytic models:

* ``ArrayDict``    — Single-Char (256 entries) and Double-Char
                     (256*257 entries, terminator layout): one O(1)
                     array probe;
* ``BoundaryDict`` — every variable-interval scheme (3/4-Grams, ALM,
                     ALM-Improved): a bisect over the sorted left
                     boundaries. Its ``model`` only selects the memory
                     layout charged by ``trie_memory_bytes``:
                     ``"bitmap"`` is the 3-Grams/4-Grams bitmap-trie
                     (Figure 6) and ``"art"`` the ART-based dictionary
                     for ALM / ALM-Improved.

Memory accounting is analytic (see ``memory_bytes``): Python object
overhead is irrelevant to the paper's numbers, which are layout
arithmetic (DESIGN.md §3/§5).
"""
from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence, Tuple

from ..trees.art import node_bytes as art_node_bytes
from .intervals import Interval
from .strutil import lcp, trie_node_count

Lookup = Tuple[int, int, int]  # (code, nbits, symbol_len)

# Per-entry value cost shared by all structures: 32-bit code + 8-bit length.
_VALUE_BYTES = 5
# Bitmap-trie node: 256-bit child bitmap + 32-bit prefix counter (Figure 6).
_BITMAP_NODE_BYTES = 36
_TRIE_MODELS = ("bitmap", "art")


class BaseDict:
    """Interface: lookup(src, pos) -> (code, nbits, symbol_len).

    ``max_boundary_len`` is the longest interval left boundary: a lookup
    never reads more than that many bytes of ``src[pos:]``.
    """

    max_boundary_len: int

    def lookup(self, src: bytes, pos: int) -> Lookup:  # pragma: no cover
        raise NotImplementedError

    def memory_bytes(self) -> int:  # pragma: no cover
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover
        raise NotImplementedError


class ArrayDict(BaseDict):
    """Fixed-length-interval array dictionary (Single-Char / Double-Char).

    ``width=1``: 256 entries, entry ``b`` covers ``[b, b+1)``.
    ``width=2``: 256*257 entries in the paper's terminator layout —
    entry ``b1*257`` is the 1-byte symbol ``b1`` (interval
    ``[b1, b1\\x00)``, i.e. the exact string ``b1``), entries
    ``b1*257 + 1 + b2`` are the 2-byte symbols.
    """

    def __init__(self, intervals: Sequence[Interval], width: int):
        if width not in (1, 2):
            raise ValueError("ArrayDict supports widths 1 and 2")
        expected = 256 if width == 1 else 256 * 257
        if len(intervals) != expected:
            raise ValueError(f"width-{width} ArrayDict needs {expected} entries, got {len(intervals)}")
        self.width = width
        self.max_boundary_len = width
        self.codes: List[int] = [iv.code for iv in intervals]
        self.nbits: List[int] = [iv.nbits for iv in intervals]
        self.symlen: List[int] = [len(iv.symbol) for iv in intervals]

    def lookup(self, src: bytes, pos: int) -> Lookup:
        if self.width == 1:
            i = src[pos]
        else:
            b1 = src[pos]
            i = b1 * 257 + 1 + src[pos + 1] if pos + 1 < len(src) else b1 * 257
        return (self.codes[i], self.nbits[i], self.symlen[i])

    def memory_bytes(self) -> int:
        return len(self.codes) * _VALUE_BYTES

    def __len__(self) -> int:
        return len(self.codes)


class BoundaryDict(BaseDict):
    """Predecessor lookup by bisecting the sorted interval left boundaries.

    The probe is ``src[pos:pos + max_boundary_len]``: a boundary no
    longer than the probe is ``<=`` the probe iff it is ``<=`` the whole
    suffix, so the bounded probe finds the same interval without copying
    the rest of a long key.

    ``model`` ("bitmap" or "art") picks the paper's memory layout for
    ``memory_bytes``; it does not change the lookup.
    """

    def __init__(self, intervals: Sequence[Interval], model: str = "bitmap"):
        if model not in _TRIE_MODELS:
            raise ValueError(f"model must be one of {_TRIE_MODELS}")
        self.model = model
        self.boundaries: List[bytes] = [iv.lo for iv in intervals]
        if any(a >= b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("interval boundaries must be strictly increasing")
        self.values: List[Lookup] = [(iv.code, iv.nbits, len(iv.symbol)) for iv in intervals]
        self.max_boundary_len = max(map(len, self.boundaries))

    def index(self, src: bytes, pos: int) -> int:
        """Index of the interval containing ``src[pos:]``."""
        i = bisect_right(self.boundaries, src[pos : pos + self.max_boundary_len]) - 1
        if i < 0:
            raise KeyError(f"no interval contains {src[pos:]!r} (incomplete dictionary)")
        return i

    def lookup(self, src: bytes, pos: int) -> Lookup:
        return self.values[self.index(src, pos)]

    def memory_bytes(self) -> int:
        return trie_memory_bytes(self.boundaries, self.model)

    def __len__(self) -> int:
        return len(self.boundaries)


def _art_folded_or_node_bytes(fanout: int, ends_here: bool) -> int:
    """A non-root node's ART cost: 1 prefix byte if it is folded, else a node."""
    return 1 if fanout == 1 and not ends_here else art_node_bytes(fanout)


def trie_memory_bytes(boundaries: Sequence[bytes], model: str) -> int:
    """Analytic size of a trie dictionary over sorted, distinct ``boundaries``.

    The trie's nodes are the distinct prefixes of the boundaries (the
    empty prefix is the root). Sorted boundaries visit them depth-first:
    boundary ``b`` adds one child to its longest common prefix with the
    previous boundary and new nodes for its longer prefixes.

    ``"bitmap"`` charges every node 36 B (Figure 6). ``"art"`` is the
    modified ART of §4.2: a non-root node with one child that ends no
    boundary is folded into its child's stored full prefix (1 B each, no
    optimistic skipping); every other node is charged the smallest
    adaptive node for its fanout, a boundary ending there counting as one
    child. Both add 5 B of code + length per entry.
    """
    if model not in _TRIE_MODELS:
        raise ValueError(f"model must be one of {_TRIE_MODELS}")
    values = len(boundaries) * _VALUE_BYTES
    if model == "bitmap":
        return trie_node_count(boundaries) * _BITMAP_NODE_BYTES + values
    # [fanout, ends here] of each node on the previous boundary's path,
    # root first; a boundary ending at a node counts as one child
    path = [[0, False]]
    total = 0
    prev = b""
    for b in boundaries:
        shared = len(lcp(prev, b))
        while len(path) > shared + 1:
            total += _art_folded_or_node_bytes(*path.pop())
        path[shared][0] += 1
        path += [[1, False] for _ in range(len(b) - shared - 1)] + [[1, True]]
        prev = b
    while len(path) > 1:
        total += _art_folded_or_node_bytes(*path.pop())
    return total + art_node_bytes(path[0][0]) + values
