"""End-to-end scheme properties (core/hope.py) — the paper's Table 1
wiring plus the three §3.1 guarantees (completeness, unique
decodability via prefix codes, order preservation) for every scheme on
every dataset.
"""
import hashlib
import random

import pytest

from repro.core.dictionary import ArrayDict, BoundaryDict
from repro.core.hope import SCHEME_TABLE, SCHEMES, build_hope
from repro.workloads.datasets import dataset_keys

DICT_SIZE = 2048


@pytest.fixture(scope="module")
def built():
    """One built encoder per (scheme, dataset) — module-scoped cache."""
    cache = {}
    for scheme in SCHEMES:
        for ds in ("email", "wiki", "url"):
            keys = dataset_keys(ds, 600, seed=11)
            cache[(scheme, ds)] = (build_hope(scheme, keys[:300], max_dict_entries=DICT_SIZE), keys)
    return cache


class TestTable1Wiring:
    """Paper Table 1: scheme -> module configuration."""

    def test_all_schemes_registered(self):
        assert set(SCHEMES) == set(SCHEME_TABLE)

    @pytest.mark.parametrize("scheme,dict_cls", [
        ("single", ArrayDict), ("double", ArrayDict),
        ("3grams", BoundaryDict), ("4grams", BoundaryDict),
        ("alm", BoundaryDict), ("alm-improved", BoundaryDict),
    ])
    def test_dictionary_structure(self, scheme, dict_cls, built):
        hope, _ = built[(scheme, "email")]
        assert isinstance(hope.dictionary, dict_cls)

    def test_bitmap_vs_art_models(self, built):
        assert built[("3grams", "email")][0].dictionary.model == "bitmap"
        assert built[("alm-improved", "email")][0].dictionary.model == "art"

    def test_alm_uses_fixed_length_codes(self, built):
        hope, _ = built[("alm", "email")]
        lens = {iv.nbits for iv in hope.intervals}
        assert len(lens) == 1  # fixed-length

    def test_hu_tucker_schemes_use_variable_codes(self, built):
        for scheme in ("single", "double", "3grams", "4grams", "alm-improved"):
            hope, _ = built[(scheme, "email")]
            lens = {iv.nbits for iv in hope.intervals}
            assert len(lens) > 1, scheme

    def test_fixed_dict_sizes(self, built):
        assert built[("single", "email")][0].dict_entries == 256
        assert built[("double", "email")][0].dict_entries == 256 * 257

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError):
            build_hope("nope", [b"a"])


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("ds", ["email", "wiki", "url"])
class TestSchemeGuarantees:
    def test_order_preserving(self, scheme, ds, built):
        hope, keys = built[(scheme, ds)]
        ordered = sorted(set(keys))
        enc = [hope.encode(k) for k in ordered]
        assert all(a < b for a, b in zip(enc, enc[1:]))

    def test_completeness_arbitrary_bytes(self, scheme, ds, built):
        hope, _ = built[(scheme, ds)]
        rng = random.Random(hash((scheme, ds)) % 2**31)
        for _ in range(100):
            k = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
            payload, nbits = hope.encode(k)
            assert nbits > 0
            assert len(payload) == (nbits + 7) // 8

    def test_compresses_its_domain(self, scheme, ds, built):
        hope, keys = built[(scheme, ds)]
        assert hope.compression_rate(keys[300:]) > 1.0

    def test_encode_deterministic(self, scheme, ds, built):
        hope, keys = built[(scheme, ds)]
        assert hope.encode(keys[0]) == hope.encode(keys[0])


class TestCprOrdering:
    """§6.1 shape: higher-order schemes compress better on email keys."""

    def test_double_beats_single(self, built):
        h1, keys = built[("single", "email")]
        h2, _ = built[("double", "email")]
        assert h2.compression_rate(keys) > h1.compression_rate(keys)

    def test_alm_improved_beats_alm(self, built):
        ha, keys = built[("alm", "email")]
        hi, _ = built[("alm-improved", "email")]
        assert hi.compression_rate(keys) > ha.compression_rate(keys)

    def test_byte_aligned_cpr_not_higher(self, built):
        hope, keys = built[("double", "email")]
        byte_aligned = sum(map(len, keys)) / sum(len(hope.encode(k)[0]) for k in keys)
        assert byte_aligned <= hope.compression_rate(keys) + 1e-9


class TestBuildMetadata:
    def test_build_times_recorded(self, built):
        hope, _ = built[("3grams", "email")]
        bt = hope.build_times
        assert set(bt) == {"symbol_select", "code_assign", "dict_build"}
        assert all(v >= 0 for v in bt.values())

    def test_dict_memory_positive(self, built):
        for scheme in SCHEMES:
            assert built[(scheme, "email")][0].dict_memory_bytes() > 0

    def test_larger_dict_not_worse_cpr(self):
        keys = dataset_keys("email", 800, seed=3)
        small = build_hope("3grams", keys[:400], max_dict_entries=1024)
        large = build_hope("3grams", keys[:400], max_dict_entries=8192)
        assert large.compression_rate(keys[400:]) >= small.compression_rate(keys[400:]) - 0.05


#: sha256 of repr([(lo, code, nbits) for each interval]) and of
#: repr([encode(k) for each fixture key]) for every scheme on email,
#: printed by the earlier ``build_hope`` that dispatched on string kinds,
#: before ``SCHEME_TABLE`` held the modules: dictionaries and codes are
#: byte-identical.
GOLDEN_EMAIL = {
    "single": ("c42469fb6d79058daeeadec12c704796e1697ee51b624c3edf489cde8de9b73d",
        "781181d2a184225c33c0ee1df95b3912ba5de35f04b3c6a291b3d0e29f6be70d"),
    "double": ("93e389cecb1269d694d817e92993611c31e666011c640dd4235b8aff7bdf10d1",
        "b387d795b434f021e2becd27d2f9c8b45c2a265c0b16e61bf455292a2ca46d07"),
    "3grams": ("7c06a955dad66d922498bad68b95af08688d4f1beed1400203904edd8ad6b8c6",
        "dffbaae8de74cfe6370e2876a642242fdeddcd7ad9e7974dbf37ef5eebff5965"),
    "4grams": ("85d921f5116b4ca57536e4c2bb2bf520a4e36df43f44c754336e10de7dd69c61",
        "72e3f975b48f969beadf23f5aa38cdff129c3ef8bf3cc2afa5b6df2936a00d0a"),
    "alm": ("853f6c63282cb98b21968a48ef9664687ef3ce3694b75b293a381d9119225c14",
        "3447688d8c9db5b0bcffce5dd450bb94278448036659d703434bd381c456387e"),
    "alm-improved": ("35fa458c7567f0d50723c235120fe42788571dfac5804a8b724f3555d35ca299",
        "e5f11cfcfe54335fa302d0377be56c50dc41ed46d9c506c8f4ad624bfa4f67a7"),
}


def _sha256(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_byte_identical_to_golden(scheme, built):
    hope, keys = built[(scheme, "email")]
    intervals = _sha256([(iv.lo, iv.code, iv.nbits) for iv in hope.intervals])
    encodings = _sha256([hope.encode(k) for k in keys])
    assert (intervals, encodings) == GOLDEN_EMAIL[scheme]
