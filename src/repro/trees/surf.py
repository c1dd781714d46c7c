"""SuRF — Succinct Range Filter substrate [52] (paper §5).

A static, batch-built trie filter. Each key is truncated to its
shortest unique prefix; SuRF-Real additionally stores the first
``suffix_bits`` bits of the remaining key to cut false positives.

The structure is the sorted list of truncated keys with their suffix
bits; queries are bisects over it. The truncated keys are the
root-to-leaf paths of SuRF's trie, so the trie itself is never built:
its *memory model* is SuRF's LOUDS-Sparse encoding, 10 bits per trie
edge (8-bit label + has-child + louds bit) plus ``suffix_bits`` and a
prefix-key bit per key — the "close to the theoretical optimum"
accounting of §2 — with the edges counted from the sorted truncations.

Supported operations, as in the paper's YCSB setup:

* ``may_contain(key)``         — approximate point membership (one-sided:
  no false negatives for loaded keys);
* ``may_contain_range(lo, hi)``— approximate emptiness test for
  ``[lo, hi]``, the (start, start-with-last-byte+1) query of §7.1;
* ``avg_leaf_depth``           — trie height metric of Figure 10;
* ``false_positive_rate``      — measured on supplied negative keys
  (Figure 11).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence

from ..core.strutil import lcp, trie_node_count


class SuRF:
    """Succinct Range Filter over a static sorted key set."""

    def __init__(self, suffix_bits: int = 8):
        self.suffix_bits = suffix_bits
        self.n_keys = 0
        self._trunc: List[bytes] = []  # truncated keys, sorted
        self._sufs: List[int] = []
        self._prefix_key: List[bool] = []  # LOUDS-Sparse's prefix-key bits

    # -- build -----------------------------------------------------------
    def build(self, keys: Sequence[bytes], values=None) -> None:
        """Batch-build from sorted unique keys (SuRF is build-once)."""
        keys = list(keys)
        # every query bisects the truncations, so they must be sorted
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise ValueError("SuRF.build needs keys in sorted order")
        self.n_keys = len(keys)
        # shared[i]: common-prefix length of keys i-1 and i (0 at both ends)
        shared = [0] + [len(lcp(a, b)) for a, b in zip(keys, keys[1:])] + [0]
        self._trunc, self._sufs, self._prefix_key = [], [], []
        for i, k in enumerate(keys):
            tlen = min(max(shared[i], shared[i + 1]) + 1, len(k))
            self._trunc.append(k[:tlen])
            self._sufs.append(self._suffix_of(k, tlen))
            # k is a proper prefix of the next key: its truncation is the
            # whole key, and the next truncation strictly extends it
            self._prefix_key.append(i + 1 < len(keys) and shared[i + 1] == len(k) < len(keys[i + 1]))

    def _suffix_of(self, key: bytes, tlen: int) -> int:
        """First ``suffix_bits`` bits of the key remainder (SuRF-Real)."""
        if self.suffix_bits == 0:
            return 0
        rest = key[tlen : tlen + (self.suffix_bits + 7) // 8 + 1]
        acc = 0
        have = 0
        for b in rest:
            acc = (acc << 8) | b
            have += 8
        if have >= self.suffix_bits:
            acc >>= have - self.suffix_bits
        else:
            acc <<= self.suffix_bits - have
        return acc

    # -- queries ---------------------------------------------------------
    def may_contain(self, key: bytes) -> bool:
        """True if a stored truncation is a prefix of ``key`` with matching suffix.

        These truncations are the trie nodes on ``key``'s path that end a
        stored key. They sort at or below ``key``; visit them from the
        longest down, skipping every entry that cannot be one.
        """
        trunc = self._trunc
        i = bisect_right(trunc, key)
        while i:
            t = trunc[i - 1]
            if key.startswith(t):
                if self._sufs[i - 1] == self._suffix_of(key, len(t)):
                    return True  # stored key may be this query (or a FP)
                i = bisect_left(trunc, t)
            else:
                # t < key and diverges from it: every shorter prefix of
                # key that is stored is a prefix of lcp(t, key)
                i = bisect_right(trunc, lcp(t, key))
        return False

    def may_contain_range(self, lo: bytes, hi: bytes) -> bool:
        """True if some stored key may lie in ``[lo, hi]`` (approximate).

        Implements moveToKeyGreaterThan(lo) over the truncated keys: the
        first entry ``>= lo``, or the entry just before it when that is a
        prefix of ``lo`` (its stored key may extend it and be ``>= lo``)
        and its prefix-key bit is clear (set, it is a whole key ``< lo``).
        The found entry is compared against ``hi`` at stored precision:
        comparisons that are ties at the stored granularity conservatively
        return True (filter semantics).
        """
        trunc = self._trunc
        i = bisect_left(trunc, lo)
        if i > 0 and lo.startswith(trunc[i - 1]) and not self._prefix_key[i - 1]:
            i -= 1
        return i < len(trunc) and trunc[i] <= hi

    # -- metrics ---------------------------------------------------------
    def memory_bytes(self) -> int:
        edges = trie_node_count(self._trunc) - 1  # every node but the root
        bits = 10 * edges + self.suffix_bits * self.n_keys + self.n_keys  # +prefix-key bits
        return (bits + 7) // 8

    def avg_leaf_depth(self) -> float:
        return sum(map(len, self._trunc)) / max(1, len(self._trunc))

    def false_positive_rate(self, negatives: Sequence[bytes]) -> float:
        if not negatives:
            return 0.0
        fp = sum(1 for k in negatives if self.may_contain(k))
        return fp / len(negatives)

    def __len__(self) -> int:
        return self.n_keys
