"""HOPE facade: Build phase wiring (paper Table 1 + Figure 5).

``SCHEME_TABLE`` maps each scheme to its three modules, which
``build_hope(scheme, samples, max_dict_entries)`` calls in order —
Symbol Selector → Code Assigner → Dictionary — before wrapping the
dictionary in an ``Encoder``:

=============  ==============================  ===================  ==============================
Scheme         Symbol Selector                 Code Assigner        Dictionary
=============  ==============================  ===================  ==============================
single         ``select_single_char``          ``hu_tucker_codes``  ``ArrayDict`` width 1 (256)
double         ``select_double_char``          ``hu_tucker_codes``  ``ArrayDict`` width 2 (256*257)
3grams         ``select_grams`` k=3            ``hu_tucker_codes``  ``BoundaryDict`` model bitmap
4grams         ``select_grams`` k=4            ``hu_tucker_codes``  ``BoundaryDict`` model bitmap
alm            ``select_alm``                  ``assign_fixed``     ``BoundaryDict`` model art
alm-improved   ``select_alm`` improved         ``hu_tucker_codes``  ``BoundaryDict`` model art
=============  ==============================  ===================  ==============================

Build timing is recorded per module (symbol_select / code_assign /
dict_build) to reproduce Figure 9. Interval access probabilities come
from a test encoding of the samples over the chosen intervals (§4.2),
using ``BoundaryDict``'s predecessor query. Every build ends with the
one-pass ``check_order_preserving`` of the coded intervals.

The two ``BoundaryDict`` models execute the same bisect and differ only
in the paper memory layout ``memory_bytes`` charges: bitmap-trie
(Figure 6) or ART-based trie (``dictionary.trie_memory_bytes``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

from . import symbol_select as ss
from .code_assign import assign_fixed
from .dictionary import ArrayDict, BaseDict, BoundaryDict
from .encoder import EncodedKey, Encoder
from .hu_tucker import hu_tucker_codes
from .intervals import Interval, build_intervals, check_order_preserving, with_codes

#: scheme -> (Symbol Selector ``(samples, max_entries, freqs) -> boundaries``,
#: Code Assigner ``(access probabilities) -> codes``,
#: Dictionary ``(coded intervals) -> BaseDict``)
SCHEME_TABLE: Dict[str, Tuple[Callable, Callable, Callable]] = {
    "single": (
        lambda samples, max_entries, freqs: ss.select_single_char(samples),
        hu_tucker_codes,
        partial(ArrayDict, width=1),
    ),
    "double": (
        lambda samples, max_entries, freqs: ss.select_double_char(samples),
        hu_tucker_codes,
        partial(ArrayDict, width=2),
    ),
    "3grams": (
        lambda samples, max_entries, freqs: ss.select_grams(samples, 3, max_entries, freqs),
        hu_tucker_codes,
        partial(BoundaryDict, model="bitmap"),
    ),
    "4grams": (
        lambda samples, max_entries, freqs: ss.select_grams(samples, 4, max_entries, freqs),
        hu_tucker_codes,
        partial(BoundaryDict, model="bitmap"),
    ),
    "alm": (
        lambda samples, max_entries, freqs: ss.select_alm(samples, max_entries, False, freqs),
        lambda probabilities: assign_fixed(len(probabilities)),
        partial(BoundaryDict, model="art"),
    ),
    "alm-improved": (
        lambda samples, max_entries, freqs: ss.select_alm(samples, max_entries, True, freqs),
        hu_tucker_codes,
        partial(BoundaryDict, model="art"),
    ),
}
SCHEMES = tuple(SCHEME_TABLE)


@dataclass
class HopeEncoder:
    """A built HOPE instance: dictionary + encoder + build metadata."""

    scheme: str
    dictionary: BaseDict
    encoder: Encoder
    intervals: List[Interval]
    build_times: Dict[str, float] = field(default_factory=dict)

    @property
    def dict_entries(self) -> int:
        return len(self.intervals)

    def dict_memory_bytes(self) -> int:
        return self.dictionary.memory_bytes()

    def encode(self, key: bytes) -> EncodedKey:
        return self.encoder.encode(key)

    def compression_rate(self, keys: Sequence[bytes]) -> float:
        """uncompressed bytes / compressed bytes over ``keys``, bit-exact
        as in the microbenchmark CPR definition (§6.1)."""
        encode_bits = self.encoder.encode_bits
        orig = 0
        comp_bits = 0
        for k in keys:
            orig += len(k)
            comp_bits += encode_bits(k)[1]
        if orig == 0:
            return 1.0
        return orig / (comp_bits / 8.0) if comp_bits else float("inf")


def _test_encode_probabilities(
    intervals: Sequence[Interval], samples: Sequence[bytes]
) -> List[float]:
    """Interval hit counts from test-encoding the samples (§4.2)."""
    index = BoundaryDict(intervals).index
    symlens = [len(iv.symbol) for iv in intervals]
    hits = [0] * len(intervals)
    for key in samples:
        pos = 0
        n = len(key)
        while pos < n:
            i = index(key, pos)
            hits[i] += 1
            pos += symlens[i]
    return [float(h) for h in hits]


def build_hope(
    scheme: str,
    samples: Sequence[bytes],
    max_dict_entries: int = 1 << 16,
    freqs=None,
) -> HopeEncoder:
    """Run HOPE's Build phase and return a ready-to-encode instance.

    ``max_dict_entries`` bounds the variable-interval schemes (Single-
    and Double-Char have fixed sizes); ``freqs`` optionally supplies
    pre-computed pattern frequencies (the Spark path). Raises
    ``AssertionError`` if the codes are not order-preserving.
    """
    if scheme not in SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    select, assign, make_dictionary = SCHEME_TABLE[scheme]

    t0 = time.perf_counter()
    intervals = build_intervals(select(samples, max_dict_entries, freqs))
    probs = _test_encode_probabilities(intervals, samples)
    t1 = time.perf_counter()
    codes = assign(probs)
    t2 = time.perf_counter()
    intervals = with_codes(intervals, codes)
    dictionary = make_dictionary(intervals)
    t3 = time.perf_counter()

    check_order_preserving(intervals)
    return HopeEncoder(
        scheme=scheme,
        dictionary=dictionary,
        encoder=Encoder(dictionary),
        intervals=intervals,
        build_times={
            "symbol_select": t1 - t0,
            "code_assign": t2 - t1,
            "dict_build": t3 - t2,
        },
    )
