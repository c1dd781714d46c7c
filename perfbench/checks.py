"""Answer checks (oracles) of the benchmark.

The closed loops hand every answer to an oracle right after timing the
request, so checks stay outside the timed regions and no answer needs to
be kept. Every wrong answer is counted in ``failed``: nothing is
deduplicated, skipped or drawn again. ``selftest.py`` feeds each check
a deliberately wrong answer and requires it to be counted.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Sequence, Tuple


def padding_ties(sorted_encoded: Sequence[bytes]) -> int:
    """Loaded keys whose tree key equals the previous one's (a tie drops a key)."""
    return sum(1 for a, b in zip(sorted_encoded, sorted_encoded[1:]) if a == b)


class FilterOracle:
    """Each point probe is a loaded key and each range probe starts at one,
    so a filter without false negatives must answer True."""

    def __init__(self) -> None:
        self.failed = 0

    def __call__(self, kind: str, args: tuple, answer: Any) -> None:
        if answer is not True:
            self.failed += 1


class SortedKeysOracle:
    """Source keys in order, updated on each insert.

    A scan is right iff its values (each value is the source key it was
    stored under) are the next ``n`` source keys from its start key; a
    point lookup is right iff it returns the key itself.
    """

    def __init__(self, loaded: Sequence[bytes]) -> None:
        self.keys = sorted(loaded)
        self.failed = 0

    def __call__(self, kind: str, args: tuple, answer: Any) -> None:
        if kind == "insert":
            insort(self.keys, args[0])
        elif kind == "range":
            start, n = args
            i = bisect_left(self.keys, start)
            if [v for _, v in answer] != self.keys[i:i + n]:
                self.failed += 1
        elif answer != args[0]:
            self.failed += 1


def range_count_mismatches(
    sorted_keys: Sequence[bytes],
    bounds: Sequence[Tuple[bytes, bytes]],
    counts: Sequence[int],
) -> int:
    """Range counts over ``[lo, hi)`` that differ from the source-key count."""
    return sum(
        1
        for (lo, hi), c in zip(bounds, counts)
        if c != bisect_left(sorted_keys, hi) - bisect_left(sorted_keys, lo)
    )
