"""DuckDB-oracle plumbing (repro/oracle.py) on a small orders/lineitem pair."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def li(orders_lineitem):
    return orders_lineitem[1]


@pytest.fixture(scope="module")
def o(orders_lineitem):
    return orders_lineitem[0]


class TestOracle:
    def test_aggregate_equivalence(self, li):
        got = li.groupBy("l_returnflag").agg(
            F.sum("l_quantity").alias("qty"), F.count("*").alias("n")
        )
        assert_equivalent(
            got,
            "SELECT l_returnflag, sum(l_quantity) AS qty, count(*) AS n "
            "FROM li GROUP BY l_returnflag",
            li=li,
        )

    def test_join_equivalence(self, li, o):
        got = (
            li.join(o, li.l_orderkey == o.o_orderkey)
            .groupBy("o_orderpriority")
            .agg(F.count("*").alias("n"))
        )
        assert_equivalent(
            got,
            "SELECT o_orderpriority, count(*) AS n FROM li JOIN o "
            "ON l_orderkey = o_orderkey GROUP BY o_orderpriority",
            li=li,
            o=o,
        )

    def test_mismatch_detected(self, li):
        wrong = li.groupBy("l_returnflag").agg((F.count("*") + 1).alias("n"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT l_returnflag, count(*) AS n FROM li GROUP BY l_returnflag",
                li=li,
            )
