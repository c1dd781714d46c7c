"""Tests for the string axis model (core/intervals.py)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import (
    AXIS_START,
    Interval,
    build_intervals,
    check_order_preserving,
    check_symbols,
    with_codes,
)
from repro.core.strutil import code_key, is_prefix_free


def _simple_boundaries():
    return [bytes([b]) for b in range(256)]


class TestBuildIntervals:
    def test_single_char_axis(self):
        ivs = build_intervals(_simple_boundaries())
        assert len(ivs) == 256
        assert ivs[0].lo == AXIS_START
        assert ivs[97].symbol == b"a"
        assert ivs[97].hi == b"b"
        assert ivs[255].hi is None

    def test_requires_axis_start(self):
        with pytest.raises(ValueError, match="axis must start"):
            build_intervals([b"a", b"b"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty dictionary"):
            build_intervals([])

    def test_rejects_unsorted(self):
        bs = _simple_boundaries()
        bs[5], bs[6] = bs[6], bs[5]
        with pytest.raises(ValueError):
            build_intervals(bs)

    def test_gap_symbols(self):
        bs = sorted(set(_simple_boundaries() + [b"ing", b"inh", b"ion", b"ioo"]))
        ivs = build_intervals(bs)
        by_lo = {iv.lo: iv for iv in ivs}
        assert by_lo[b"ing"].symbol == b"ing"
        assert by_lo[b"inh"].symbol == b"i"  # the Figure 4d gap entry
        assert by_lo[b"ion"].symbol == b"ion"

    def test_contains(self):
        ivs = build_intervals(_simple_boundaries())
        assert ivs[97].contains(b"apple")
        assert not ivs[97].contains(b"banana")
        assert ivs[255].contains(b"\xff\xff\xff")


class TestCodeChecks:
    def test_with_codes_roundtrip(self):
        ivs = build_intervals(_simple_boundaries())
        codes = [(i, 8) for i in range(256)]
        ivs = with_codes(ivs, codes)
        check_order_preserving(ivs)
        check_symbols(ivs)

    def test_with_codes_length_mismatch(self):
        ivs = build_intervals(_simple_boundaries())
        with pytest.raises(ValueError):
            with_codes(ivs, [(0, 1)])

    def test_non_monotone_codes_detected(self):
        ivs = build_intervals(_simple_boundaries())
        codes = [(255 - i, 8) for i in range(256)]
        ivs = with_codes(ivs, codes)
        with pytest.raises(AssertionError):
            check_order_preserving(ivs)

    def test_non_prefix_free_detected(self):
        ivs = [
            Interval(lo=b"\x00", hi=b"\x01", symbol=b"\x00", code=0, nbits=1),
            Interval(lo=b"\x01", hi=None, symbol=b"\x01", code=1, nbits=2),
        ]  # codes "0" and "01": monotone but "0" is a prefix of "01"
        with pytest.raises(AssertionError):
            check_order_preserving(ivs)


#: (value, nbits) codes of at most 6 bits
_CODES = st.integers(1, 6).flatmap(lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.just(n)))


@st.composite
def _code_lists(draw):
    """Short codes so prefixes and ties are common; sorted half the time
    so that lists which increase by ``code_key`` are drawn too."""
    codes = draw(st.lists(_CODES, min_size=2, max_size=12))
    return sorted(codes, key=code_key) if draw(st.booleans()) else codes


class TestOnePassCheck:
    @given(_code_lists())
    @settings(max_examples=400)
    def test_matches_sorting_reference(self, codes):
        """The adjacent-pair check accepts exactly the code lists that are
        strictly increasing by ``code_key`` and ``is_prefix_free``."""
        ivs = [Interval(lo=b"", hi=None, symbol=b"", code=v, nbits=n) for v, n in codes]
        keys = [code_key(c) for c in codes]
        expected = all(a < b for a, b in zip(keys, keys[1:])) and is_prefix_free(codes)
        try:
            check_order_preserving(ivs)
            accepted = True
        except AssertionError:
            accepted = False
        assert accepted == expected
