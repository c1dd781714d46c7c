"""Unit tests for the string-axis helpers (core/strutil.py)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strutil import (
    bits_to_bytes,
    increment,
    interval_symbol,
    lcp,
    pred_inf,
)
from tests.reference import code_key, is_prefix_free


class TestIncrement:
    def test_simple(self):
        assert increment(b"abc") == b"abd"

    def test_carry(self):
        assert increment(b"ab\xff") == b"ac"

    def test_multi_carry(self):
        assert increment(b"a\xff\xff") == b"b"

    def test_all_ff(self):
        assert increment(b"\xff\xff") is None

    def test_empty(self):
        assert increment(b"") is None

    def test_single(self):
        assert increment(b"\x00") == b"\x01"

    def test_max_byte_prefix(self):
        assert increment(b"\xff\x00") == b"\xff\x01"

    @given(st.binary(min_size=1, max_size=12))
    def test_increment_is_strictly_greater(self, b):
        inc = increment(b)
        if inc is not None:
            assert inc > b
            # every extension of b is below inc
            assert b + b"\xff" * 4 < inc


class TestLcp:
    @pytest.mark.parametrize(
        "a,b,expect",
        [
            (b"abc", b"abd", b"ab"),
            (b"abc", b"abc", b"abc"),
            (b"abc", b"abcdef", b"abc"),
            (b"", b"abc", b""),
            (b"xyz", b"abc", b""),
        ],
    )
    def test_cases(self, a, b, expect):
        assert lcp(a, b) == expect
        assert lcp(b, a) == expect

    @given(st.binary(max_size=10), st.binary(max_size=10))
    def test_lcp_is_common_prefix(self, a, b):
        p = lcp(a, b)
        assert a.startswith(p) and b.startswith(p)
        if len(a) > len(p) and len(b) > len(p):
            assert a[len(p)] != b[len(p)]


class TestPredInf:
    def test_ends_zero(self):
        assert pred_inf(b"b\x00") == (b"b", False)

    def test_normal(self):
        assert pred_inf(b"ion") == (b"iom", True)

    def test_raises_empty(self):
        with pytest.raises(ValueError):
            pred_inf(b"")


class TestIntervalSymbol:
    @pytest.mark.parametrize(
        "lo,hi,expect",
        [
            (b"a", b"b", b"a"),  # single-char interval
            (b"inh", b"ion", b"i"),  # gram gap interval (Fig 4d)
            (b"in", b"inh", b"in"),  # lo is prefix of hi
            (b"abc", b"abc\x00", b"abc"),  # exact-string interval
            (b"ing", b"inh", b"ing"),  # gram own interval
            (b"\xff", None, b"\xff"),  # last interval on the axis
            (b"\xff\x10", None, b"\xff"),
            (b"a", b"a\x00", b"a"),  # terminator interval (Double-Char)
        ],
    )
    def test_cases(self, lo, hi, expect):
        assert interval_symbol(lo, hi) == expect

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError):
            interval_symbol(b"b", b"a")

    @given(st.binary(min_size=1, max_size=8), st.binary(min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_symbol_is_common_prefix_of_members(self, lo, hi):
        if not lo < hi:
            return
        sym = interval_symbol(lo, hi)
        assert lo.startswith(sym)
        # any member of [lo, hi) must start with sym: check lo and a
        # string just below hi
        base, inf = pred_inf(hi)
        probe = base + (b"\xff" * 3 if inf else b"")
        if lo <= probe < hi:
            assert probe.startswith(sym)


class TestCodes:
    def test_code_key_orders_bitstrings(self):
        # 0 < 00 < 01 < 1 as bitstrings
        codes = [(0, 1), (0, 2), (1, 2), (1, 1)]
        keys = [code_key(c) for c in codes]
        assert keys == sorted(keys)

    def test_prefix_free_detects_prefix(self):
        assert not is_prefix_free([(0, 1), (1, 2)])  # "0" prefix of... "01"? no: 1,2 = "01"
        assert not is_prefix_free([(0, 1), (0, 2)])  # "0" prefix of "00"
        assert is_prefix_free([(0, 2), (1, 2), (1, 1)])

    def test_bits_to_bytes_pads_right(self):
        assert bits_to_bytes(0b101, 3) == bytes([0b10100000])
        assert bits_to_bytes(0b1, 9) == bytes([0, 0b10000000])
        assert bits_to_bytes(0, 0) == b""

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(1, 8)), min_size=2, max_size=20))
    @settings(max_examples=200)
    def test_padded_bytes_then_nbits_equals_bitstring_order(self, items):
        # build random bitstrings from (value, nbits) chunks
        def assemble(chunks):
            acc, n = 0, 0
            for v, b in chunks:
                acc = (acc << b) | (v & ((1 << b) - 1))
                n += b
            return acc, n

        a = assemble(items[: len(items) // 2 + 1])
        b = assemble(items[len(items) // 2 :])
        sa = (bits_to_bytes(*a), a[1])
        sb = (bits_to_bytes(*b), b[1])
        # compare as actual bitstrings
        bits_a = bin(a[0])[2:].zfill(a[1]) if a[1] else ""
        bits_b = bin(b[0])[2:].zfill(b[1]) if b[1] else ""
        assert (bits_a < bits_b) == (sa < sb)
        assert (bits_a == bits_b) == (sa == sb)
