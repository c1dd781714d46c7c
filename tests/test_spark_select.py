"""Spark-side Symbol Selector statistics must match the local path
exactly (core/spark_select.py vs core/symbol_select.py)."""
import pytest

from repro.core.spark_select import gram_freqs, sample_keys, suffix_freqs
from repro.core.symbol_select import count_grams, count_suffixes
from repro.workloads.datasets import dataset_keys


@pytest.fixture(scope="module")
def email_df(key_df):
    return key_df(dataset_keys("email", 1200, seed=21)).repartition(4).cache()


@pytest.fixture(scope="module")
def email_bytes(email_df):
    return [r["key"].encode("latin-1") for r in email_df.collect()]


class TestDistributedCounting:
    @pytest.mark.parametrize("k", [3, 4])
    def test_gram_freqs_match_local(self, email_df, email_bytes, k):
        assert gram_freqs(email_df, "key", k) == count_grams(email_bytes, k)

    def test_suffix_freqs_match_local(self, email_df, email_bytes):
        assert suffix_freqs(email_df, "key", 64) == count_suffixes(email_bytes, 64)

    def test_gram_counts_positive(self, email_df):
        c = gram_freqs(email_df, "key", 3)
        assert c.most_common(1)[0][1] > 100  # "com" and friends are hot

    def test_short_keys_produce_no_grams(self, key_df):
        assert gram_freqs(key_df([b"ab", b"x"]), "key", 3) == {}


class TestSampling:
    def test_sample_fraction(self, email_df):
        s = sample_keys(email_df, "key", fraction=0.1, seed=3)
        assert 40 <= len(s) <= 250
        assert all(isinstance(k, bytes) for k in s)

    def test_sample_deterministic(self, email_df):
        assert sample_keys(email_df, "key", 0.05, seed=1) == sample_keys(email_df, "key", 0.05, seed=1)

    def test_sampled_keys_build_valid_hope(self, email_df, email_bytes):
        from repro.core.hope import build_hope

        s = sample_keys(email_df, "key", fraction=0.05, seed=2)
        hope = build_hope("3grams", s, max_dict_entries=2048)
        assert hope.compression_rate(email_bytes) > 1.2


class TestSparkFedBuild:
    """build_hope(freqs=<spark Counter>) == build_hope(local counting)."""

    @pytest.mark.parametrize("scheme,k", [("3grams", 3), ("4grams", 4)])
    def test_same_dictionary_from_spark_freqs(self, email_bytes, key_df, scheme, k):
        from repro.core.hope import build_hope

        sample = email_bytes[:300]
        local = build_hope(scheme, sample, max_dict_entries=2048)
        # distributed frequencies over the same 300 keys
        spark_counter = gram_freqs(key_df(sample), "key", k)
        dist = build_hope(scheme, sample, max_dict_entries=2048, freqs=spark_counter)
        assert [iv.lo for iv in local.intervals] == [iv.lo for iv in dist.intervals]
        assert [(iv.code, iv.nbits) for iv in local.intervals] == [
            (iv.code, iv.nbits) for iv in dist.intervals
        ]
