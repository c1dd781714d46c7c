"""Symbol Selector module (HOPE §3.3 / §4.2): interval-boundary selection.

Each selector turns a list of sampled keys (``bytes``) into the sorted
left boundaries of a complete string-axis partition:

* ``single_char``  — 256 fixed intervals ``[b, b+1)``;
* ``double_char``  — 256*257 intervals in the paper's terminator (∅)
  layout: ``[b1, b1\\x00)`` plus ``[b1 b2, b1 b2+1)``;
* ``grams(k)``     — VIVC: top ``(max_entries-256)//2`` most frequent
  k-byte substrings become intervals, their gaps become entries; the
  axis is seeded with the 256 single-byte boundaries so every gap
  interval keeps a non-empty common prefix (DESIGN.md §5);
* ``alm`` / ``alm_improved`` — VIFC/VIVC: substrings (all substrings /
  suffixes only) scored by ``len(s) * freq(s)``; the threshold ``W`` is the
  target-th largest score, read from the sorted scores; a *blending* pass
  first redistributes each symbol's count to its longest extension so
  the selected set is prefix-free (Antoshenkov's requirement, §4.2).

Frequency counting may be supplied externally (``freqs=``) — the Spark
path in ``core.spark_select`` computes the same Counter distributively
for 3-Grams, 4-Grams and ALM-Improved; original ALM counts locally.
"""
from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

from .strutil import increment

_SEEDS = [bytes([b]) for b in range(256)]

# Substring-length caps keeping the original-ALM O(L^2) statistics pass
# tractable (the paper itself flags this cost and fixes it in
# ALM-Improved by counting only suffixes).
ALM_MAX_SUBSTR = 16
ALM_IMPROVED_MAX_SUFFIX = 64


def _seeded_boundaries(symbols: Iterable[bytes]) -> List[bytes]:
    """The 256 single-byte seeds ∪ ``symbols`` ∪ their ``increment``s, sorted.

    Each symbol ``s`` becomes the interval ``[s, increment(s))``; the
    seeds keep every gap between them a non-empty common prefix.
    """
    boundaries = set(_SEEDS)
    for s in symbols:
        boundaries.add(s)
        inc = increment(s)
        if inc is not None:
            boundaries.add(inc)
    return sorted(boundaries)


def select_single_char(samples: Sequence[bytes]) -> List[bytes]:
    """256 single-byte boundaries (FIVC; dictionary size fixed at 2^8)."""
    return list(_SEEDS)


def select_double_char(samples: Sequence[bytes]) -> List[bytes]:
    """The paper's 256*257-entry Double-Char layout (FIVC, 2^16-ish fixed).

    For each first byte ``b1``: boundary ``b1`` (the ∅-terminated 1-byte
    symbol covering the exact string ``b1``) followed by ``b1 b2`` for
    all 256 second bytes.
    """
    out: List[bytes] = []
    for b1 in range(256):
        out.append(bytes([b1]))
        for b2 in range(256):
            out.append(bytes([b1, b2]))
    return out


def count_grams(samples: Iterable[bytes], k: int) -> Counter:
    """Frequencies of all overlapping k-byte substrings (hash-table pass)."""
    c: Counter = Counter()
    for s in samples:
        for i in range(len(s) - k + 1):
            c[s[i : i + k]] += 1
    return c


def select_grams(
    samples: Sequence[bytes],
    k: int,
    max_entries: int,
    freqs: Optional[Counter] = None,
) -> List[bytes]:
    """VIVC k-Grams boundaries: frequent grams + gap entries + seeds."""
    if max_entries < 512:
        raise ValueError("gram schemes need max_entries >= 512")
    if freqs is None:
        freqs = count_grams(samples, k)
    budget = (max_entries - 256) // 2
    # deterministic tie-break (count desc, gram asc) so the Spark-fed
    # and local paths build byte-identical dictionaries
    ranked = sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0]))
    return _seeded_boundaries(g for g, _ in ranked[:budget])


def count_substrings(samples: Iterable[bytes], max_len: int = ALM_MAX_SUBSTR) -> Counter:
    """Original-ALM statistics: every substring of every length (capped)."""
    c: Counter = Counter()
    for s in samples:
        n = len(s)
        for i in range(n):
            end = min(n, i + max_len)
            for j in range(i + 1, end + 1):
                c[s[i:j]] += 1
    return c


def count_suffixes(samples: Iterable[bytes], max_len: int = ALM_IMPROVED_MAX_SUFFIX) -> Counter:
    """ALM-Improved statistics: only suffixes of the sample keys."""
    c: Counter = Counter()
    for s in samples:
        n = len(s)
        for i in range(n):
            c[s[i : i + max_len]] += 1
    return c


def blend(freqs: Counter) -> Counter:
    """Antoshenkov's blending: move each symbol's count to its longest
    extension present in the list, so surviving symbols are prefix-free.

    Implemented over the sorted symbol list: a symbol's extensions are
    contiguous after it; processing symbols longest-first pushes counts
    down chains in one pass using a parent map built from sorted order.
    """
    syms = sorted(freqs)
    # For each symbol, its longest extension is found by scanning sorted
    # successors that start with it; track via a stack of open prefixes.
    result: Counter = Counter()
    stack: List[bytes] = []  # chain of prefixes of the current symbol
    children_of: Dict[bytes, List[bytes]] = {s: [] for s in syms}
    for s in syms:
        while stack and not s.startswith(stack[-1]):
            stack.pop()
        if stack:
            children_of[stack[-1]].append(s)
        stack.append(s)
    # Longest extension = deepest descendant; push counts to it.
    def longest_leaf(s: bytes) -> bytes:
        best, best_len = s, len(s)
        todo = list(children_of[s])
        while todo:
            t = todo.pop()
            if len(t) > best_len:
                best, best_len = t, len(t)
            todo.extend(children_of[t])
        return best

    for s in syms:
        if children_of[s]:
            tgt = longest_leaf(s)
            result[tgt] += freqs[s]
        else:
            result[s] += freqs[s]
    return result


def select_alm(
    samples: Sequence[bytes],
    max_entries: int,
    improved: bool,
    freqs: Optional[Counter] = None,
) -> List[bytes]:
    """ALM / ALM-Improved boundaries via blending + threshold W search."""
    if max_entries < 512:
        raise ValueError("ALM schemes need max_entries >= 512")
    if freqs is None:
        freqs = count_suffixes(samples) if improved else count_substrings(samples)
    freqs = blend(freqs)
    target = (max_entries - 256) // 2
    # Threshold W (len*freq) for ~target symbols: the target-th largest
    # product, read straight from the products sorted descending.
    products = sorted((len(s) * f for s, f in freqs.items()), reverse=True)
    if not products:
        return _seeded_boundaries([])
    idx = min(target, len(products)) - 1
    w = products[idx] if idx >= 0 else products[-1]
    chosen = [s for s, f in freqs.items() if len(s) * f >= w]
    # Ties at W can overshoot; trim lowest products first (deterministic
    # tie-break on the symbol itself).
    if len(chosen) > target:
        chosen.sort(key=lambda s: (-(len(s) * freqs[s]), s))
        chosen = chosen[:target]
    return _seeded_boundaries(chosen)
