"""Tests for the SuRF substrate (trees/surf.py)."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hope import build_hope
from repro.trees.surf import SuRF
from repro.workloads.datasets import dataset_keys


def _keys(n, seed=0, minlen=4, maxlen=18):
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        out.add(bytes(rng.randrange(97, 123) for _ in range(rng.randrange(minlen, maxlen))))
    return sorted(out)


@pytest.fixture(scope="module")
def loaded():
    keys = _keys(3000, seed=1)
    s = SuRF(suffix_bits=8)
    s.build(keys)
    return s, keys


class TestNoFalseNegatives:
    def test_point(self, loaded):
        s, keys = loaded
        assert all(s.may_contain(k) for k in keys)

    def test_range_singleton(self, loaded):
        s, keys = loaded
        for i in range(0, len(keys), 13):
            assert s.may_contain_range(keys[i], keys[i])

    def test_range_spanning(self, loaded):
        s, keys = loaded
        for i in range(0, len(keys) - 10, 37):
            assert s.may_contain_range(keys[i], keys[i + 10])

    @pytest.mark.parametrize("bits", [0, 2, 4, 8])
    def test_no_fn_any_suffix_bits(self, bits):
        keys = _keys(500, seed=3)
        s = SuRF(suffix_bits=bits)
        s.build(keys)
        assert all(s.may_contain(k) for k in keys)


class TestFalsePositives:
    def test_fpr_decreases_with_suffix_bits(self):
        keys = _keys(2000, seed=5)
        present = set(keys)
        rng = random.Random(6)
        negatives = []
        while len(negatives) < 2000:
            k = bytes(rng.randrange(97, 123) for _ in range(rng.randrange(4, 18)))
            if k not in present:
                negatives.append(k)
        fprs = []
        for bits in (0, 2, 4, 8):
            s = SuRF(suffix_bits=bits)
            s.build(keys)
            fprs.append(s.false_positive_rate(negatives))
        assert fprs[0] >= fprs[1] >= fprs[2] >= fprs[3]
        assert fprs[3] < 0.1

    def test_far_negatives_rejected(self, loaded):
        s, _ = loaded
        assert not s.may_contain(b"0123456789")  # digits never loaded
        assert not s.may_contain_range(b"0", b"9")

    def test_empty_range_between_keys(self, loaded):
        s, keys = loaded
        # range strictly between two adjacent truncated keys can still
        # be a (one-sided) True; but a range beyond the last key is False
        assert not s.may_contain_range(b"\xff", b"\xff\xff")


class TestStructure:
    def test_heights_are_unique_prefix_lengths(self):
        keys = [b"apple", b"apply", b"banana"]
        s = SuRF(suffix_bits=0)
        s.build(keys)
        # apple/apply share 4 bytes -> truncated at 5; banana unique at 1
        assert sorted(map(len, s._trunc)) == [1, 5, 5]
        assert s.avg_leaf_depth() == pytest.approx((5 + 5 + 1) / 3)

    def test_prefix_key_flag(self):
        keys = [b"ab", b"abc"]
        s = SuRF(suffix_bits=0)
        s.build(keys)
        assert s.may_contain(b"ab") and s.may_contain(b"abc")

    def test_memory_scales_with_suffix_bits(self):
        keys = _keys(1000, seed=7)
        m = []
        for bits in (0, 4, 8):
            s = SuRF(suffix_bits=bits)
            s.build(keys)
            m.append(s.memory_bytes())
        assert m[0] < m[1] < m[2]
        # suffix bits cost exactly n_keys * bits
        assert (m[2] - m[0]) == pytest.approx(1000, abs=2)

    def test_memory_far_below_raw_keys(self, loaded):
        s, keys = loaded
        assert s.memory_bytes() < sum(map(len, keys))

    def test_len(self, loaded):
        s, keys = loaded
        assert len(s) == len(keys)

    def test_unsorted_build_raises(self):
        with pytest.raises(ValueError):
            SuRF().build([b"b", b"a"])

    def test_empty_build(self):
        s = SuRF()
        s.build([])
        assert not s.may_contain(b"x")
        assert not s.may_contain_range(b"a", b"z")


# -- reference model -------------------------------------------------------
# Keys over a NUL/0x01/0xFF-heavy alphabet: a small alphabet makes the
# empty key, duplicate keys and keys that are prefixes of others common.
_KEY = st.lists(st.sampled_from([b"\x00", b"\x01", b"\xff", b"a"]), max_size=5).map(b"".join)


@st.composite
def _key_sets(draw):
    keys = draw(st.lists(_KEY, max_size=20))
    for k in draw(st.lists(st.sampled_from(keys), max_size=4)) if keys else []:
        keys.append(k + draw(_KEY))  # prefix chains
    return sorted(keys)


def _reference_entries(keys, bits):
    """(truncation, suffix) per key, from the definitions, by brute force.

    A key is cut one byte past its longest common prefix with any other
    key (at most its full length); the suffix is the first ``bits`` bits
    of the rest of the key, zero-padded.
    """
    entries = []
    for i, k in enumerate(keys):
        shared = 0
        for j, o in enumerate(keys):
            if j != i:
                n = 0
                while n < min(len(k), len(o)) and k[n] == o[n]:
                    n += 1
                shared = max(shared, n)
        tlen = min(shared + 1, len(k))
        entries.append((k[:tlen], _reference_suffix(k, tlen, bits)))
    return entries


def _reference_suffix(key, tlen, bits):
    rest = key[tlen:]
    v, have = int.from_bytes(rest, "big"), 8 * len(rest)
    return v >> (have - bits) if have >= bits else v << (bits - have)


class TestReferenceModel:
    """``SuRF`` answers equal a linear scan over the stored (truncation, suffix) pairs."""

    @pytest.mark.parametrize("bits", [0, 3, 8, 13])
    @given(keys=_key_sets(), probes=st.lists(_KEY, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_matches_linear_scan(self, bits, keys, probes):
        s = SuRF(suffix_bits=bits)
        s.build(keys)
        entries = _reference_entries(keys, bits)
        probes = probes + keys + [k + b"\x00" for k in keys] + [k + b"\xff" for k in keys]
        for q in probes:
            expect = any(q.startswith(t) and suf == _reference_suffix(q, len(t), bits)
                         for t, suf in entries)
            assert s.may_contain(q) == expect, q
        # moveToKeyGreaterThan(lo): the entries >= lo, and the largest
        # entry below lo if it is a prefix of lo (its key may be >= lo).
        # A shorter stored prefix of lo is extended by that entry, so it
        # is a whole key and < lo.
        for lo in probes[:12]:
            below = [t for t, _ in entries if t < lo]
            reach = [t for t, _ in entries if t >= lo]
            if below and lo.startswith(max(below)):
                reach.append(max(below))
            for hi in probes[:12]:
                got = s.may_contain_range(lo, hi)
                assert got == any(t <= hi for t in reach), (lo, hi)
                assert got or not any(lo <= k <= hi for k in keys), (lo, hi)
        # LOUDS-Sparse: 10 bits per trie edge (a distinct non-empty
        # prefix of a truncation), suffix and prefix-key bits per key
        edges = len({t[:n] for t, _ in entries for n in range(1, len(t) + 1)})
        assert s.memory_bytes() == (10 * edges + (bits + 1) * len(keys) + 7) // 8
        depths = [len(t) for t, _ in entries]
        assert s.avg_leaf_depth() == pytest.approx(sum(depths) / max(1, len(depths)))


class TestGoldenMetrics:
    """Metric values printed by the pointer-trie SuRF this structure replaced."""

    def test_loaded(self, loaded):
        s, keys = loaded
        negatives = [k for k in _keys(2000, seed=2) if k not in set(keys)]
        assert len(negatives) == 2000
        assert s.memory_bytes() == 8243
        assert s.avg_leaf_depth() == pytest.approx(3.1573333333333333)
        assert s.false_positive_rate(negatives) == pytest.approx(0.0085)

    @pytest.mark.parametrize("bits,mem,fpr", [(0, 6503, 0.412), (8, 9503, 0.169)])
    def test_email_4grams(self, bits, mem, fpr):
        keys = dataset_keys("email", 4000, seed=21)
        enc = build_hope("4grams", keys[:400], max_dict_entries=2048).encoder.encode
        load = sorted({enc(k)[0] for k in keys[:3000]})
        assert len(load) == 3000
        s = SuRF(suffix_bits=bits)
        s.build(load)
        assert s.memory_bytes() == mem
        assert s.avg_leaf_depth() == pytest.approx(5.908666666666667)
        assert s.false_positive_rate([enc(k)[0] for k in keys[3000:]]) == pytest.approx(fpr)
