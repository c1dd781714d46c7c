"""Tests for the Dictionary structures (core/dictionary.py).

The key invariant: every structure answers the string axis model's
predecessor query — the interval whose ``Interval.contains`` holds for
the key suffix — for every scheme's boundary set. The baseline is a
linear scan over the intervals, independent of any structure's layout.
"""
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.code_assign import assign_fixed
from repro.core.dictionary import ArrayDict, BoundaryDict, trie_memory_bytes
from repro.core.intervals import build_intervals, with_codes
from repro.core.symbol_select import (
    select_alm,
    select_double_char,
    select_grams,
    select_single_char,
)

SAMPLES = [b"com.gmail@alice", b"com.gmail@bob", b"org.wiki@dave", b"net.art@erin"] * 25

BOUNDARY_SETS = [
    ("3grams", select_grams(SAMPLES, 3, 4096)),
    ("4grams", select_grams(SAMPLES, 4, 4096)),
    ("alm", select_alm(SAMPLES, 1024, improved=False)),
    ("alm-improved", select_alm(SAMPLES, 1024, improved=True)),
]

# Keys: sample-like text, then a NUL, 0xFF or arbitrary binary tail.
_FRAGMENTS = st.one_of(st.sampled_from(sorted(set(SAMPLES))), st.binary(min_size=1, max_size=4))
_TAILS = st.one_of(
    st.binary(max_size=8),
    st.integers(1, 8).map(lambda n: b"\x00" * n),
    st.integers(1, 8).map(lambda n: b"\xff" * n),
)
KEYS = st.builds(bytes.__add__, st.lists(_FRAGMENTS, min_size=1, max_size=4).map(b"".join), _TAILS)


def _made(boundaries):
    ivs = build_intervals(boundaries)
    return with_codes(ivs, assign_fixed(len(ivs)))


def _baseline_lookup(intervals, src, pos):
    suffix = src[pos:]
    iv = next(iv for iv in intervals if iv.contains(suffix))
    return (iv.code, iv.nbits, len(iv.symbol))


def _check_every_position(d, intervals, key):
    assume(len(key) > d.max_boundary_len)
    for pos in range(len(key)):
        assert d.lookup(key, pos) == _baseline_lookup(intervals, key, pos), (key, pos)


# Baseline scans are linear, so keep the Double-Char keys few and build once.
ARRAY_INTERVALS = {1: _made(select_single_char(SAMPLES)), 2: _made(select_double_char(SAMPLES))}


class TestArrayDict:
    def test_single_char_lookup(self):
        ivs = _made(select_single_char(SAMPLES))
        d = ArrayDict(ivs, width=1)
        code, nbits, symlen = d.lookup(b"apple", 0)
        assert symlen == 1
        assert code == 97  # fixed codes are the interval indexes

    def test_double_char_lookup_pair(self):
        ivs = _made(select_double_char(SAMPLES))
        d = ArrayDict(ivs, width=2)
        code, nbits, symlen = d.lookup(b"aa", 0)
        assert symlen == 2
        assert code == 97 * 257 + 1 + 97

    def test_double_char_lookup_terminator(self):
        ivs = _made(select_double_char(SAMPLES))
        d = ArrayDict(ivs, width=2)
        code, nbits, symlen = d.lookup(b"xa", 1)  # one byte left
        assert symlen == 1
        assert code == 97 * 257

    def test_wrong_size_raises(self):
        ivs = _made(select_single_char(SAMPLES))
        with pytest.raises(ValueError):
            ArrayDict(ivs, width=2)

    def test_memory(self):
        ivs = _made(select_single_char(SAMPLES))
        assert ArrayDict(ivs, width=1).memory_bytes() == 256 * 5

    @pytest.mark.parametrize("width,selector", [(1, select_single_char), (2, select_double_char)])
    @given(key=KEYS)
    @settings(max_examples=15, deadline=None)
    def test_matches_baseline(self, width, selector, key):
        ivs = ARRAY_INTERVALS[width]
        _check_every_position(ArrayDict(ivs, width=width), ivs, key)


class TestTrieDict:
    """BoundaryDict with a trie memory model: the lookup is the same under
    both models, only ``memory_bytes()`` differs."""

    @pytest.mark.parametrize("name,boundaries", BOUNDARY_SETS)
    @pytest.mark.parametrize("model", ["bitmap", "art"])
    @given(key=KEYS)
    @settings(max_examples=100, deadline=None)
    def test_matches_baseline(self, name, boundaries, model, key):
        ivs = _made(boundaries)
        _check_every_position(BoundaryDict(ivs, model=model), ivs, key)

    def test_duplicate_boundary_raises(self):
        ivs = _made(select_single_char(SAMPLES))
        with pytest.raises(ValueError):
            BoundaryDict(list(ivs) + [ivs[-1]])

    def test_bitmap_memory_is_36b_per_node(self):
        ivs = _made(select_single_char(SAMPLES))
        d = BoundaryDict(ivs, model="bitmap")
        # 256 single-byte boundaries -> root + 256 children = 257 nodes
        assert d.memory_bytes() == 257 * 36 + 256 * 5

    def test_art_memory_smaller_than_bitmap_for_sparse(self):
        ivs = _made(select_alm(SAMPLES, 1024, improved=True))
        bitmap = BoundaryDict(ivs, model="bitmap").memory_bytes()
        art = BoundaryDict(ivs, model="art").memory_bytes()
        assert art > 0 and bitmap > 0

    def test_invalid_model(self):
        ivs = _made(select_single_char(SAMPLES))
        with pytest.raises(ValueError):
            BoundaryDict(ivs, model="wat")


class TestSortedBaseline:
    """BoundaryDict as the sorted-boundary (bisect) dictionary."""

    def test_incomplete_raises(self):
        ivs = _made(select_single_char(SAMPLES))[10:]
        d = BoundaryDict(ivs)
        with pytest.raises(KeyError):
            d.lookup(b"\x00", 0)

    def test_len(self):
        ivs = _made(select_single_char(SAMPLES))
        assert len(BoundaryDict(ivs)) == 256

    def test_bitmap_trie_1_4x_of_array(self):
        """Paper §6.1: the 3-Grams bitmap-trie is ~1.4x the Double-Char
        array at the same entry count; we check the same order of
        magnitude (structure-dependent)."""
        ivs3 = _made(select_grams(SAMPLES * 10, 3, 65536))
        trie = BoundaryDict(ivs3, model="bitmap")
        per_entry_trie = trie.memory_bytes() / len(trie)
        assert per_entry_trie < 5 * 36  # sane: far below one node per entry


class TestTrieMemoryModels:
    # Values printed by the trie-walk dictionary's memory_bytes() before
    # its node-building trie was replaced by trie_memory_bytes.
    GOLDEN = {
        "3grams": {"bitmap": 14821, "art": 23013},
        "4grams": {"bitmap": 15619, "art": 22382},
        "alm": {"bitmap": 22938, "art": 25661},
        "alm-improved": {"bitmap": 22938, "art": 25661},
    }

    @pytest.mark.parametrize("name,boundaries", BOUNDARY_SETS)
    @pytest.mark.parametrize("model", ["bitmap", "art"])
    def test_golden(self, name, boundaries, model):
        d = BoundaryDict(_made(boundaries), model=model)
        assert d.memory_bytes() == trie_memory_bytes(boundaries, model) == self.GOLDEN[name][model]

    def test_art_collapses_unary_chains(self):
        # root -> "a" (Node4) -> "ab" then "abcd"; "abc" is a unary chain
        # byte folded into the leaf's stored prefix.
        node4 = 16 + 4 + 32
        assert trie_memory_bytes([b"a", b"ab", b"abcd"], "art") == 4 * node4 + 1 + 3 * 5
