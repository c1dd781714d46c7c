"""Workload wiki-spark-bulk: HOPE's Spark path, one driver with Spark local[N].

Each run reads the cached wiki corpus (Parquet, ``TASKS_PER_CORE`` files
per core) into a cached DataFrame and runs one warm-up job. Then:

1. setup, ``SETUP_REPEATS`` times: a 1 % Spark sample (``sample_keys``),
   3-gram statistics over the same sample (``gram_freqs``) and
   ``build_hope("3grams", 64K, freqs=...)``; ``setup_s`` is the median;
2. ``encode_df`` materialised with a ``noop`` write: one cold pass (the
   Python workers start), then ``WARM_PASSES`` warm passes whose median
   gives ``encode_keys_per_s``;
3. the encoded DataFrame is cached; ``check_order_preserved`` runs on it;
4. ``encoded_range_filter(...).count()`` queries, bounded by keys drawn
   with ``--seed``, run one after another until ``--seconds`` pass.

Checks: the encoded row count equals the input's, the order check finds
no violation, and every range count equals the count of source keys in
``[lo, hi)``. Each key is encoded once per pass, so a memo cache would
find no repeats here.

Times are scaled to the reference machine speed (``refspeed.py``); the
kernel is sampled around every Spark job and, from a thread, during it.
"""
from __future__ import annotations

import gc
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict

import numpy as np

import checks
import corpus
from refspeed import Speed
from tracing import Tracer

DATASET, N_KEYS = "wiki", 200_000
SAMPLE = 0.01
DICT_ENTRIES = 1 << 16
SETUP_REPEATS = 5
WARM_PASSES = 3
# local[2] on 4 cores: warm passes vary less than at local[4], and the
# driver keeps a core for the reference kernel
SPARK_CORES = 2
# more tasks than cores, so one slowed core does not set a pass's time
TASKS_PER_CORE = 4
N_RANGES = 64  # fixed query set, cycled until the time is up
LOCAL_ENCODE_KEYS = 20_000  # single-thread reference for parallel_efficiency


def start_spark(root: Path, cores: int):
    """A local[cores] session whose files all stay under ``.bench_cache``."""
    tmp = corpus.cache_dir(root) / "spark-tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 2g "
        f"--driver-java-options -Djava.io.tmpdir={tmp} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.sql.shuffle.partitions={cores} "
        f"--conf spark.sql.warehouse.dir={tmp / 'warehouse'} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (SparkSession.builder.appName("hope-benchmark")
             .config("spark.sql.execution.arrow.pyspark.enabled", "true").getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM it launched has exited."""
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    spark.stop()
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    keys = corpus.load_keys(root, DATASET, N_KEYS)
    cores = min(SPARK_CORES, os.cpu_count() or 1)
    parquet = corpus.parquet_dir(root, DATASET, N_KEYS, TASKS_PER_CORE * cores)
    sorted_keys = sorted(keys)
    rnd = random.Random(seed)
    picks = sorted(rnd.sample(keys, 2 * N_RANGES))
    bounds = list(zip(picks[0::2], picks[1::2]))

    spark = start_spark(root, cores)
    try:
        return _run(spark, parquet, keys, sorted_keys, bounds, cores, seed, seconds, trace)
    finally:
        stop_spark(spark)


def _noop_write(df) -> None:
    df.write.format("noop").mode("overwrite").save()


def _run(spark, parquet, keys, sorted_keys, bounds, cores, seed, seconds, trace) -> Dict[str, Any]:
    from repro.core import spark_encode, spark_select
    from repro.core.hope import build_hope

    speed = Speed()
    tracer = Tracer() if trace else None
    if trace:
        tracer.calibrate()

    def traced(name, fn):
        return tracer.wrap(name, fn) if trace else fn

    sample_keys = traced("core.spark_select.sample_keys", spark_select.sample_keys)
    gram_freqs = traced("core.spark_select.gram_freqs", spark_select.gram_freqs)
    build = traced("core.hope.build_hope", build_hope)

    df = spark.read.parquet(str(parquet)).cache()
    rows = df.count()
    df.selectExpr("max(length(key))").collect()  # warm-up job, untimed

    runs = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        sample, t_sample = speed.time(sample_keys, df, "key", SAMPLE, seed, during=True)
        freqs, t_freqs = speed.time(
            gram_freqs, df.sample(fraction=SAMPLE, seed=seed), "key", 3, during=True)
        hope, t_build = speed.time(build, "3grams", sample, DICT_ENTRIES, freqs=freqs)
        runs.append(({"sample": t_sample, "freqs": t_freqs, "build": t_build}, hope.build_times))

    encoded = spark_encode.encode_df(df, "key", hope)
    write = traced("core.spark_encode.encode_df.noop_write", _noop_write)
    _, t_cold = speed.time(write, encoded, during=True)
    t_warm = [speed.time(write, encoded, during=True)[1] for _ in range(WARM_PASSES)]

    encoded = encoded.cache()
    n_encoded = encoded.count()
    sums = encoded.selectExpr("sum(length(key))", "sum(length(enc_key))", "sum(enc_nbits)").first()
    src_bytes, enc_bytes, enc_bits = (int(v) for v in sums)
    check_order = traced("core.spark_encode.check_order_preserved", spark_encode.check_order_preserved)
    violations, t_order = speed.time(check_order, encoded, "key", during=True)

    def range_count(lo, hi):
        return spark_encode.encoded_range_filter(encoded, hope, lo, hi).count()

    counts = []

    def range_loop(fn, secs, i):
        """Queries from ``bounds[i:]`` (cycled) until ``secs`` pass: next position, timings."""
        gc.collect()
        deadline = perf_counter() + secs
        timings = []
        while True:
            lo, hi = bounds[i % len(bounds)]
            c, t = speed.time(fn, lo, hi, during=True)
            timings.append(t)
            counts.append(((lo, hi), c))
            i += 1
            if perf_counter() >= deadline:
                return i, timings

    pos, q_untraced = range_loop(range_count, seconds / 2 if trace else seconds, 0)
    if trace:
        hope.encoder.encode_pair = tracer.wrap("core.encoder.encode_pair", hope.encoder.encode_pair)
        pos, q_traced = range_loop(tracer.op("op.range", range_count), seconds / 2, pos)
        del hope.encoder.encode_pair

    # every kernel sample is in: scale the timings
    per_run = []
    for timings, build_times in runs:
        s = {k: speed.scaled_s([t]) for k, t in timings.items()}
        s["total"] = sum(s.values())
        f = s["build"] / (timings["build"][1] / 1e9)
        s.update({k: v * f for k, v in build_times.items()})
        s["raw_total"] = sum(t[1] for t in timings.values()) / 1e9
        per_run.append(s)
    setup_med = {k: statistics.median(s[k] for s in per_run) for k in per_run[0]}
    cold = speed.scaled_s([t_cold])
    warm = statistics.median(speed.scaled_s([t]) for t in t_warm)
    warm_raw = statistics.median(t[1] for t in t_warm) / 1e9
    order_s = speed.scaled_s([t_order])

    def latencies(timings):
        t = np.array(timings, dtype=np.int64).reshape(-1, 2)
        return t[:, 1] * speed.factors(t[:, 0], t[:, 0] + t[:, 1]), t[:, 1]

    lat, raw = latencies(q_untraced)

    failed = abs(n_encoded - rows) + violations
    failed += checks.range_count_mismatches(sorted_keys, [b for b, _ in counts], [c for _, c in counts])
    out: Dict[str, Any] = {"attempted": rows + 1 + len(counts), "failed": failed}

    if trace:
        gc.collect()
        sub = keys[:: max(1, len(keys) // LOCAL_ENCODE_KEYS)]
        enc = hope.encoder.encode
        _, t_local = speed.time(lambda: [enc(k) for k in sub])
        local_s = speed.scaled_s([t_local]) * len(keys) / len(sub)
        s = tracer.summary()
        factor = speed.factor()
        q = s[("op.range", "")]
        pair = s[("core.encoder.encode_pair", "op.range")]
        out["layers"] = {
            "core.symbol_select.s": setup_med["symbol_select"],
            "core.code_assign.s": setup_med["code_assign"],
            "core.dictionary.build_s": setup_med["dict_build"],
            "core.dictionary.entries": hope.dict_entries,
            "core.dictionary.bytes": hope.dict_memory_bytes(),
            "core.encoder.bits_per_key": enc_bits / n_encoded,
            "core.spark_select.sample_s": setup_med["sample"],
            "core.spark_select.freqs_s": setup_med["freqs"],
            "core.spark_select.patterns": len(freqs),
            "core.spark_encode.encode_df_s": warm,
            "core.spark_encode.cold_pass_s": cold,
            "core.spark_encode.parallel_efficiency": local_s / (warm * cores),
            "core.spark_encode.check_order_s": order_s,
            "core.spark_encode.range_pair_encode_us": pair["busy_ns"] * factor / pair["spans"] / 1e3,
            "core.spark_encode.range_job_ms": (q["busy_ns"] - pair["busy_ns"]) * factor / q["spans"] / 1e6,
            "workloads.repeat_share": 0.0,
            "trace.overhead": 1 - lat.mean() / latencies(q_traced)[0].mean(),
        }
        out["tracer"] = tracer
        return out

    out["e2e"] = {
        "setup_s": setup_med["total"],
        "ops_per_s": len(lat) / (lat.sum() / 1e9),
        "range_p50_us": float(np.percentile(lat, 50)) / 1e3,
        "cpr": src_bytes / enc_bytes,
        "bytes_per_key": (enc_bytes + hope.dict_memory_bytes()) / rows,
    }
    out["extra"] = {
        "encode_keys_per_s": (rows / warm, "keys/s"),
        "range_samples": (len(lat), "count"),
        "order_check_s": (order_s, "s"),
        "cold_pass_s": (cold, "s"),
        "spark_cores": (cores, "count"),
        "raw.setup_s": (setup_med["raw_total"], "s"),
        "raw.range_p50_us": (float(np.percentile(raw, 50)) / 1e3, "us"),
        "raw.encode_keys_per_s": (rows / warm_raw, "keys/s"),
        "raw.order_check_s": (t_order[1] / 1e9, "s"),
        "speed.factor": (speed.factor(), "ratio"),
    }
    return out
