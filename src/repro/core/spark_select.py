"""Distributed Symbol Selector statistics (Build phase, Spark side).

The hash-table frequency pass of §4.2 expressed in the DataFrame API —
substring explosion + groupBy/count runs on executors through Catalyst,
so the Build phase scales with the sampled corpus:

* ``gram_freqs``   — all overlapping k-byte substrings (3-Grams / 4-Grams);
* ``suffix_freqs`` — key suffixes (ALM-Improved);
* ``sample_keys``  — the 1 % Bernoulli key sample HOPE builds from.

Original ALM has no Spark path: its all-substrings statistics are
counted locally by ``symbol_select.count_substrings``.

Strings travel through Spark as latin-1 so any byte value round-trips.
The resulting ``Counter`` feeds ``build_hope(..., freqs=...)`` — tests
verify it matches the local counting path exactly.
"""
from __future__ import annotations

from collections import Counter
from typing import List

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def _freqs_from_expr(df: DataFrame, expr: str) -> Counter:
    rows = (
        df.select(F.explode(F.expr(expr)).alias("pat"))
        .where(F.length("pat") > 0)
        .groupBy("pat")
        .count()
        .collect()
    )
    return Counter({r["pat"].encode("latin-1"): r["count"] for r in rows})


def gram_freqs(df: DataFrame, key_col: str, k: int) -> Counter:
    """Frequencies of all overlapping k-grams of ``key_col`` (distributed)."""
    expr = (
        f"CASE WHEN length({key_col}) >= {k} THEN "
        f"transform(sequence(1, length({key_col}) - {k} + 1), "
        f"i -> substring({key_col}, i, {k})) "
        f"ELSE array() END"
    )
    return _freqs_from_expr(df, expr)


def suffix_freqs(df: DataFrame, key_col: str, max_len: int = 64) -> Counter:
    """Frequencies of every key suffix, capped at ``max_len`` bytes."""
    expr = (
        f"transform(sequence(1, length({key_col})), "
        f"i -> substring({key_col}, i, {max_len}))"
    )
    return _freqs_from_expr(df, expr)


def sample_keys(df: DataFrame, key_col: str, fraction: float = 0.01, seed: int = 42) -> List[bytes]:
    """HOPE's bulk-load sample: Bernoulli sample of the key column."""
    rows = df.select(key_col).sample(fraction=fraction, seed=seed).collect()
    return [r[key_col].encode("latin-1") for r in rows]
