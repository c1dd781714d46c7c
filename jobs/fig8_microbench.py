"""Figure 8 — compression microbenchmarks.

For each scheme x dataset x dictionary size: compression rate,
single-thread encode latency per char, and dictionary memory. Symbol
statistics are computed distributively in Spark (core.spark_select);
encoding latency is measured single-threaded on the driver, as in the
paper.

Usage: spark-submit jobs/fig8_microbench.py [n_keys]
"""
import sys
import time

import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import get_spark, print_table

from repro.core.hope import build_hope
from repro.core.spark_select import gram_freqs, suffix_freqs
from repro.workloads.datasets import dataset_keys

DICT_SIZES = {
    "single": [256],
    "double": [256 * 257],
    "3grams": [1 << 12, 1 << 14, 1 << 16],
    "4grams": [1 << 12, 1 << 14, 1 << 16],
    "alm": [1 << 12, 1 << 14],
    "alm-improved": [1 << 12, 1 << 14, 1 << 16],
}


def main(n_keys: int = 30_000) -> None:
    spark = get_spark("fig8")
    rows = []
    for ds in ("email", "wiki", "url"):
        n = n_keys if ds != "url" else n_keys // 3
        # keys come from the generator, not a collected DataFrame, so the
        # sample and evaluation keys do not depend on the partition count
        keys = dataset_keys(ds, n, seed=8)
        # 1% of the paper's 25M-key corpora is 250K samples; at repro
        # scale a bare 1% undersupplies distinct grams, so floor the
        # sample at 4000 keys (within the paper's 10K-100K guideline).
        sample = keys[: max(4000, n // 100)]
        import pandas as pd

        sample_df = spark.createDataFrame(
            pd.DataFrame({"key": [k.decode("latin-1") for k in sample]})
        ).repartition(8)
        eval_keys = keys[: 10_000]
        nchars = sum(map(len, eval_keys))
        for scheme, sizes in DICT_SIZES.items():
            freqs = None
            if scheme == "3grams":
                freqs = gram_freqs(sample_df, "key", 3)
            elif scheme == "4grams":
                freqs = gram_freqs(sample_df, "key", 4)
            elif scheme == "alm-improved":
                freqs = suffix_freqs(sample_df, "key", 64)
            for size in sizes:
                hope = build_hope(scheme, sample, max_dict_entries=size, freqs=freqs)
                t0 = time.perf_counter()
                for k in eval_keys:
                    hope.encoder.encode_bits(k)
                dt = time.perf_counter() - t0
                rows.append(
                    (
                        ds,
                        scheme,
                        size,
                        hope.dict_entries,
                        round(hope.compression_rate(eval_keys), 3),
                        round(dt / nchars * 1e9, 1),
                        hope.dict_memory_bytes(),
                    )
                )
                print(f"# done {ds}/{scheme}/{size}", file=sys.stderr)
    print_table(
        "Figure 8 — compression microbenchmarks",
        ["dataset", "scheme", "dict limit", "dict entries", "CPR", "encode ns/char", "dict bytes"],
        rows,
    )
    spark.stop()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 30_000)
