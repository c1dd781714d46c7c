"""Hypothesis property tests: the §3.1 theorem — any complete HOPE
dictionary encodes arbitrary byte strings order-preservingly."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hope import build_hope

SAMPLES = [b"com.gmail@alice", b"com.gmail@bob", b"org.wiki@dave", b"net.x@y"] * 20

_BUILT = {}


def _hope(scheme):
    if scheme not in _BUILT:
        _BUILT[scheme] = build_hope(scheme, SAMPLES, max_dict_entries=1024)
    return _BUILT[scheme]


@pytest.mark.parametrize("scheme", ["single", "double", "3grams", "4grams", "alm", "alm-improved"])
class TestOrderTheorem:
    @given(a=st.binary(min_size=1, max_size=24), b=st.binary(min_size=1, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_pairwise_order(self, scheme, a, b):
        hope = _hope(scheme)
        ka = hope.encode(a)
        kb = hope.encode(b)
        if a < b:
            assert ka < kb
        elif a > b:
            assert ka > kb
        else:
            assert ka == kb

    @given(k=st.binary(min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_total_progress(self, scheme, k):
        """Completeness: encoding terminates and consumes every byte."""
        hope = _hope(scheme)
        payload, nbits = hope.encode(k)
        assert nbits >= 1
        # decode-ability sanity: bit count consistent with payload length
        assert (nbits + 7) // 8 == len(payload)
