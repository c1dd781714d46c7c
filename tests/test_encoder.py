"""Tests for the Encoder (core/encoder.py): bit assembly + batching."""
import random

import pytest

from repro.core.code_assign import assign_fixed
from repro.core.dictionary import ArrayDict
from repro.core.encoder import Encoder
from repro.core.hope import build_hope
from repro.core.intervals import build_intervals, with_codes
from repro.core.symbol_select import select_single_char

SAMPLES = [b"com.gmail@alice", b"com.gmail@bob", b"org.wiki@dave"] * 30


def _single_char_encoder():
    ivs = with_codes(build_intervals(select_single_char(SAMPLES)), assign_fixed(256))
    return Encoder(ArrayDict(ivs, width=1))


class TestEncodeBits:
    def test_fixed_single_char_is_identity_bytes(self):
        enc = _single_char_encoder()
        payload, nbits = enc.encode(b"ab")
        assert nbits == 16
        assert payload == b"ab"  # 8-bit fixed codes = the bytes themselves

    def test_empty_key(self):
        enc = _single_char_encoder()
        assert enc.encode(b"") == (b"", 0)

    def test_bit_count_accumulates(self):
        enc = _single_char_encoder()
        _, n1 = enc.encode(b"a")
        _, n5 = enc.encode(b"abcde")
        assert n5 == 5 * n1

    def test_padding_zero_filled(self):
        hope = build_hope("single", SAMPLES)
        payload, nbits = hope.encode(b"m")
        pad = 8 * len(payload) - nbits
        if pad:
            assert payload[-1] & ((1 << pad) - 1) == 0


class TestBatchEncoding:
    @pytest.mark.parametrize("scheme", ["single", "double", "3grams", "4grams"])
    def test_batch_equals_individual(self, scheme):
        hope = build_hope(scheme, SAMPLES, max_dict_entries=2048)
        keys = sorted(
            {
                b"com.gmail@" + bytes(random.Random(i).choices(b"abcdefgh", k=6))
                for i in range(64)
            }
        )
        batch = hope.encoder.encode_batch(keys)
        indiv = [hope.encode(k) for k in keys]
        assert batch == indiv

    @pytest.mark.parametrize("scheme", ["alm", "alm-improved"])
    def test_batch_safe_for_alm_too(self, scheme):
        hope = build_hope(scheme, SAMPLES, max_dict_entries=1024)
        keys = sorted({s + bytes([i]) for i, s in enumerate(SAMPLES[:40])})
        assert hope.encoder.encode_batch(keys) == [hope.encode(k) for k in keys]

    def test_batch_no_common_prefix(self):
        hope = build_hope("double", SAMPLES)
        keys = [b"apple", b"zebra"]
        assert hope.encoder.encode_batch(keys) == [hope.encode(k) for k in keys]

    def test_batch_empty_and_singleton(self):
        hope = build_hope("single", SAMPLES)
        assert hope.encoder.encode_batch([]) == []
        assert hope.encoder.encode_batch([b"q"]) == [hope.encode(b"q")]

    def test_pair_encode(self):
        hope = build_hope("double", SAMPLES)
        lo, hi = b"com.gmail@foa", b"com.gmail@fob"
        assert hope.encoder.encode_pair(lo, hi) == (hope.encode(lo), hope.encode(hi))

    @pytest.mark.parametrize("scheme", ["double", "3grams"])
    def test_checkpoint_shares_prefix_work(self, scheme):
        """The checkpoint must consume a prefix-aligned chunk for
        long-shared-prefix batches (that is the whole optimisation)."""
        hope = build_hope(scheme, SAMPLES, max_dict_entries=2048)
        prefix = b"com.gmail@verylongsharedprefix"
        acc, nbits, consumed = hope.encoder._encode_prefix_checkpoint(prefix)
        assert consumed > 0
        maxlen = hope.dictionary.max_boundary_len
        assert len(prefix) - consumed < maxlen + 4


class TestRandomizedRoundtrip:
    @pytest.mark.parametrize("scheme", ["single", "double", "3grams", "4grams", "alm", "alm-improved"])
    def test_batch_random_sorted_runs(self, scheme):
        hope = build_hope(scheme, SAMPLES, max_dict_entries=1024)
        rng = random.Random(99)
        keys = sorted(
            {bytes(rng.randrange(32, 127) for _ in range(rng.randrange(1, 24))) for _ in range(80)}
        )
        assert hope.encoder.encode_batch(keys) == [hope.encode(k) for k in keys]
