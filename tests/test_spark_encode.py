"""Per-partition encoding in Spark + DuckDB-oracle equivalence
(core/spark_encode.py). These are the reproduction's correctness
linchpin: order-preserving compression must leave every range query's
*result set* unchanged, verified against DuckDB on the source domain.
"""
import pytest
from pyspark.sql import functions as F

from repro.core.hope import build_hope
from repro.core.spark_encode import check_order_preserved, encode_df, encoded_range_filter
from repro.core.spark_select import sample_keys
from repro.oracle import assert_equivalent
from repro.workloads.datasets import dataset_keys


@pytest.fixture(scope="module")
def email_df(key_df):
    return key_df(dataset_keys("email", 1000, seed=31)).repartition(5).cache()


@pytest.fixture(scope="module")
def hope_3grams(email_df):
    return build_hope("3grams", sample_keys(email_df, "key", 0.2, seed=1), max_dict_entries=2048)


@pytest.fixture(scope="module")
def encoded(email_df, hope_3grams):
    return encode_df(email_df, "key", hope_3grams).cache()


class TestEncodeDf:
    def test_adds_columns(self, encoded):
        assert {"enc_key", "enc_nbits"} <= set(encoded.columns)

    def test_row_count_preserved(self, email_df, encoded):
        assert encoded.count() == email_df.count()

    def test_matches_driver_side_encoding(self, encoded, hope_3grams):
        for r in encoded.limit(50).collect():
            payload, nbits = hope_3grams.encode(r["key"].encode("latin-1"))
            assert bytes(r["enc_key"]) == payload
            assert r["enc_nbits"] == nbits

    def test_order_preserved(self, encoded):
        assert check_order_preserved(encoded, "key") == 0

    @pytest.mark.parametrize("scheme", ["single", "double", "alm-improved"])
    def test_order_preserved_other_schemes(self, email_df, scheme):
        hope = build_hope(scheme, sample_keys(email_df, "key", 0.2, seed=2), max_dict_entries=1024)
        enc = encode_df(email_df, "key", hope)
        assert check_order_preserved(enc, "key") == 0

    def test_spark_sort_by_encoded_equals_source_sort(self, encoded):
        by_enc = [r["key"] for r in encoded.orderBy("enc_key", "enc_nbits").collect()]
        by_src = [r["key"] for r in encoded.orderBy("key").collect()]
        assert by_enc == by_src

    def test_compression_on_wire(self, encoded):
        row = encoded.select(
            F.sum(F.length("key")).alias("orig"),
            F.sum(F.length("enc_key")).alias("comp"),
        ).collect()[0]
        assert row["comp"] < row["orig"]


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "lo,hi",
        [
            ("com.gmail@", "com.gmail@zzzz"),
            ("com.a", "com.z"),
            ("de.", "de.zzzz"),
            ("a", "z"),
        ],
    )
    def test_range_filter_equals_duckdb(self, email_df, encoded, hope_3grams, lo, hi):
        got = encoded_range_filter(
            encoded, hope_3grams, lo.encode(), hi.encode()
        ).select("key")
        assert_equivalent(
            got,
            f"SELECT key FROM t WHERE key >= '{lo}' AND key < '{hi}'",
            t=email_df,
        )

    def test_count_aggregate_over_encoded_filter(self, email_df, encoded, hope_3grams):
        got = (
            encoded_range_filter(encoded, hope_3grams, b"com.", b"com.zzzz")
            .agg(F.count("*").alias("n"))
        )
        assert_equivalent(
            got,
            "SELECT count(*) AS n FROM t WHERE key >= 'com.' AND key < 'com.zzzz'",
            t=email_df,
        )

    def test_empty_range(self, encoded, hope_3grams):
        out = encoded_range_filter(encoded, hope_3grams, b"zzz", b"zzzz")
        assert out.count() == 0


class TestTpchIntegration:
    """HOPE applied to a TPC-H-style string key column, joined back and
    aggregated — the full Catalyst path with the oracle as referee."""

    def test_orderpriority_encoded_groupby(self, orders_lineitem):
        o, _ = orders_lineitem
        sample = [r["o_orderpriority"].encode() for r in o.select("o_orderpriority").limit(200).collect()]
        hope = build_hope("single", sample)
        enc = encode_df(o, "o_orderpriority", hope)
        # group by the encoded key: counts must match grouping by source
        got = (
            enc.groupBy("enc_key")
            .agg(F.count("*").alias("n"), F.first("o_orderpriority").alias("o_orderpriority"))
            .select("o_orderpriority", "n")
        )
        assert_equivalent(
            got,
            "SELECT o_orderpriority, count(*) AS n FROM o GROUP BY o_orderpriority",
            o=o,
        )

    def test_range_filter_then_join(self, orders_lineitem):
        o, li = orders_lineitem
        sample = [r["o_orderpriority"].encode() for r in o.limit(100).collect()]
        hope = build_hope("double", sample)
        enc_o = encode_df(o, "o_orderpriority", hope)
        hot = encoded_range_filter(enc_o, hope, b"1-URGENT", b"2-HIGHZ")
        got = (
            hot.join(li, hot.o_orderkey == li.l_orderkey)
            .agg(F.count("*").alias("n"))
        )
        assert_equivalent(
            got,
            "SELECT count(*) AS n FROM o JOIN li ON o_orderkey = l_orderkey "
            "WHERE o_orderpriority >= '1-URGENT' AND o_orderpriority < '2-HIGHZ'",
            o=o,
            li=li,
        )
