"""Spark test data shared by the Spark test modules.

The ``spark`` session fixture itself lives in the root ``conftest.py``.
"""
import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="session")
def key_df(spark):
    """``key_df(keys)``: byte keys as a one-column DataFrame (``key``, latin-1 strings)."""

    def make(keys):
        return spark.createDataFrame(pd.DataFrame({"key": [k.decode("latin-1") for k in keys]}))

    return make


@pytest.fixture(scope="session")
def orders_lineitem(spark):
    """A small seeded TPC-H-style ``(orders, lineitem)`` pair, cached.

    It has only the columns the DuckDB-oracle tests read: 3,000 orders
    with dense keys and five priorities, and 12,000 line items that
    point at random orders.
    """
    g = np.random.default_rng(0)
    n_orders, n_items = 3000, 12000
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n_orders + 1),
            "o_orderpriority": g.choice(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n_orders),
        }
    )
    lineitem = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n_items),
            "l_returnflag": g.choice(list("NRA"), n_items),
            "l_quantity": g.integers(1, 51, n_items).astype("float64"),
        }
    )
    return spark.createDataFrame(orders).cache(), spark.createDataFrame(lineitem).cache()
