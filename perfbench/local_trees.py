"""Workloads email-surf-read and url-art-scan-insert.

Both are closed loops with one client in one process: the next request
is sent when the previous one has returned. Each run:

1. splits the cached corpus by ``--seed`` into loaded keys and 5 %
   held-out keys, and takes the first 1 % of the (shuffled) loaded keys
   as HOPE's build sample;
2. sets up ``SETUP_REPEATS`` times — ``build_hope`` on the sample,
   encoding the loaded keys, sorting, ``tree.build`` — and reports the
   median as ``setup_s`` (key generation is not part of it);
3. sends the request stream until ``--seconds`` have passed, timing
   each request (query-key encoding included, as in the paper) and
   handing its answer to an oracle (``checks.py``) outside the timing.

Times are scaled to the reference machine speed (``refspeed.py``); the
kernel is sampled every ``SPEED_EVERY_S`` during the loop and around
each setup phase (and every ``ENCODE_CHUNK`` keys of its encode phase).

With ``--trace 1`` the loop runs untraced for the first half of the time
and traced for the second; the per-layer metrics come from the traced
half and ``trace.overhead`` compares the two halves' throughput.
"""
from __future__ import annotations

import gc
import importlib.util
import random
import statistics
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Dict, List, Optional

import numpy as np

import checks
import corpus
from refspeed import Speed
from tracing import Tracer

HOLD_OUT = 0.05
SAMPLE = 0.01
SETUP_REPEATS = 3
SURF_SUFFIX_BITS = 8
INSERT_SHARE = 0.05  # YCSB E: 95 % scans, 5 % inserts
SURF_STREAM = 200_000  # point/range pairs, cycled if a run gets through them
SEGMENTS = 8
ENCODE_CHUNK = 4096  # loaded keys encoded between two kernel samples
SPEED_EVERY_S = 0.1


@dataclass(frozen=True)
class Spec:
    dataset: str
    n_keys: int
    tree: str
    config: str


SPECS = {
    "email-surf-read": Spec("email", 100_000, "surf", "4grams-64K"),
    "url-art-scan-insert": Spec("url", 80_000, "art", "double"),
}


def paper_constants(root: Path):
    """``T_TRIE_NS`` and ``T_ENCODE_NS`` (the paper's C++ figures) from jobs/_common.py."""
    spec = importlib.util.spec_from_file_location("jobs_common", root / "jobs" / "_common.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.T_TRIE_NS, mod.T_ENCODE_NS


@dataclass
class Index:
    hope: Any
    tree: Any
    tree_keys: List[bytes]
    bits: int
    timings: Dict[str, list]  # setup phase -> [(start ns, raw ns)]


def build_index(spec: Spec, sample: List[bytes], load: List[bytes], speed: Speed) -> Index:
    from repro.bench.harness import CONFIGS, make_tree
    from repro.core.hope import build_hope

    cfg = CONFIGS[spec.config]
    timings: Dict[str, list] = {}

    def phase(name, fn, *args, **kwargs):
        result, t = speed.time(fn, *args, **kwargs)
        timings.setdefault(name, []).append(t)
        return result

    gc.collect()
    hope = phase("build_hope", build_hope, cfg["scheme"], sample,
                 max_dict_entries=cfg.get("dict", 1 << 16))
    encode = hope.encoder.encode
    gc.collect()
    encoded = []
    for i in range(0, len(load), ENCODE_CHUNK):  # a long phase: sample the kernel often
        encoded += phase("encode", lambda c: [encode(k) for k in c], load[i:i + ENCODE_CHUNK])
    gc.collect()
    pairs = phase("sort", sorted, zip((e[0] for e in encoded), load))
    tree_keys = [p[0] for p in pairs]
    tree = make_tree(spec.tree, suffix_bits=SURF_SUFFIX_BITS)
    gc.collect()
    phase("tree_build", tree.build, tree_keys, [p[1] for p in pairs])
    return Index(hope, tree, tree_keys, sum(e[1] for e in encoded), timings)


def setup(spec: Spec, sample: List[bytes], load: List[bytes], speed: Speed):
    """Set up ``SETUP_REPEATS`` times. Returns the last index and, per
    phase, the median scaled seconds (``raw_total``: median raw total)."""
    runs = []
    for _ in range(SETUP_REPEATS):
        index = None  # let the previous index go before building the next
        index = build_index(spec, sample, load, speed)
        runs.append((index.timings, index.hope.build_times))
    per_run = []
    for timings, build_times in runs:
        s = {k: speed.scaled_s(v) for k, v in timings.items()}
        s["total"] = sum(s.values())
        # build_hope's own phase split, at the speed of its phase
        f = s["build_hope"] / (timings["build_hope"][0][1] / 1e9)
        s.update({k: v * f for k, v in build_times.items()})
        s["raw_total"] = sum(r for v in timings.values() for _, r in v) / 1e9
        per_run.append(s)
    return index, {k: statistics.median(s[k] for s in per_run) for k in per_run[0]}


def repeat_share(keys) -> float:
    seen = set()
    repeats = 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    return repeats / max(1, len(keys))


class Latencies:
    """Per request kind: start times and raw latencies (ns)."""

    def __init__(self) -> None:
        self.start = {k: array("q") for k in ("point", "range", "insert")}
        self.ns = {k: array("q") for k in ("point", "range", "insert")}

    def raw(self, kind: str) -> np.ndarray:
        return np.frombuffer(self.ns[kind], dtype=np.int64).astype(np.float64)

    def scaled(self, kind: str, speed: Speed) -> np.ndarray:
        start = np.frombuffer(self.start[kind], dtype=np.int64)
        raw = self.raw(kind)
        return raw * speed.factors(start, start + raw.astype(np.int64))

    def count(self) -> int:
        return sum(len(v) for v in self.ns.values())


def _loop(reqs, pos: int, cyclic: bool, handlers, check, seconds: float,
          lat: Latencies, speed: Speed) -> int:
    """Send requests from ``reqs[pos:]`` until ``seconds`` pass; returns the next position."""
    gc.collect()
    ns = perf_counter_ns
    every = int(SPEED_EVERY_S * 1e9)
    speed.sample()
    next_sample = ns() + every
    deadline = ns() + int(seconds * 1e9)
    size = len(reqs)
    while cyclic or pos < size:
        kind, args = reqs[pos % size]
        t0 = ns()
        r = handlers[kind](*args)
        t1 = ns()
        lat.start[kind].append(t0)
        lat.ns[kind].append(t1 - t0)
        check(kind, args, r)
        pos += 1
        if t1 >= next_sample:
            speed.sample()
            next_sample = ns() + every
            if t1 >= deadline:
                break
    return pos


class Probe:
    """The program calls a request makes, optionally wrapped in trace spans."""

    def __init__(self, index: Index, tracer: Optional[Tracer]):
        enc, tree = index.hope.encoder, index.tree
        tname = type(tree).__name__.lower()
        self.tree = tree
        if tracer is None:
            self.encode, self.encode_pair = enc.encode, enc.encode_pair
            self.call = lambda name, fn: fn
            self.op = lambda name, fn: fn
            return
        # Encoder reads ``self.dictionary.lookup`` at call time, so an
        # instance attribute counts every lookup without editing src/.
        d = index.hope.dictionary
        d.lookup = tracer.counted("core.dictionary.lookup", type(d).lookup.__get__(d))
        self.encode = tracer.wrap("core.encoder.encode", enc.encode)
        self.encode_pair = tracer.wrap("core.encoder.encode_pair", enc.encode_pair)
        self.call = lambda name, fn: tracer.wrap(f"trees.{tname}.{name}", fn)
        self.op = tracer.op

    @staticmethod
    def close(index: Index) -> None:
        index.hope.dictionary.__dict__.pop("lookup", None)


def _surf_handlers(p: Probe):
    encode, encode_pair = p.encode, p.encode_pair
    may_contain = p.call("may_contain", p.tree.may_contain)
    may_contain_range = p.call("may_contain_range", p.tree.may_contain_range)

    def point(k):
        return may_contain(encode(k)[0])

    def rng(lo, hi):
        (lo_b, _), (hi_b, _) = encode_pair(lo, hi)
        return may_contain_range(lo_b, hi_b)

    return {"point": p.op("op.point", point), "range": p.op("op.range", rng)}


def _art_handlers(p: Probe):
    encode = p.encode
    scan = p.call("scan", p.tree.scan)
    insert = p.call("insert", p.tree.insert)
    lookup = p.call("lookup", p.tree.lookup)

    def do_scan(k, n):
        return scan(encode(k)[0], n)

    def do_insert(k):
        insert(encode(k)[0], k)  # the value is the source key: unique per insert

    def do_lookup(k):
        return lookup(encode(k)[0])

    return {"range": p.op("op.scan", do_scan), "insert": p.op("op.insert", do_insert),
            "point": p.op("op.lookup", do_lookup)}


def _stream(spec: Spec, load, held, seed):
    """The request stream as (kind, args) pairs, and whether it may cycle.

    It is ``SEGMENTS`` YCSB streams, each scrambled with its own seed, so
    a run's medians average over that many hot sets instead of one.
    """
    from repro.workloads.ycsb import surf_range_queries, workload_c, workload_e

    reqs = []
    for j in range(SEGMENTS):
        s = 2 * (seed * SEGMENTS + j)
        if spec.tree == "surf":
            n = SURF_STREAM // SEGMENTS
            for k, r in zip(workload_c(load, n, s), surf_range_queries(load, n, s + 1)):
                reqs.append(("point", (k,)))
                reqs.append(("range", r))
        else:
            # each segment inserts its own share of the pool; past its
            # share workload_e would emit scans only
            pool = held[j::SEGMENTS]
            for op, k, n in workload_e(load, pool, int(len(pool) / INSERT_SHARE), s):
                reqs.append(("range", (k, n)) if op == "scan" else ("insert", (k,)))
    # an insert cannot repeat, so the scan/insert stream does not cycle
    return reqs, spec.tree == "surf"


def _pct(a: np.ndarray, q: float) -> float:
    return float(np.percentile(a, q)) / 1e3


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    spec = SPECS[workload]
    keys = corpus.load_keys(root, spec.dataset, spec.n_keys)
    order = list(keys)
    random.Random(seed).shuffle(order)
    n_held = int(len(order) * HOLD_OUT)
    held, load = order[:n_held], order[n_held:]
    sample = load[: max(10, int(len(load) * SAMPLE))]

    speed = Speed()
    index, setup_med = setup(spec, sample, load, speed)
    ties = checks.padding_ties(index.tree_keys)
    # the loaded tree, before the stream's inserts change it
    tree_bytes, height = index.tree.memory_bytes(), index.tree.avg_leaf_depth()

    reqs, cyclic = _stream(spec, load, held, seed)
    handlers = _surf_handlers if spec.tree == "surf" else _art_handlers
    check = checks.FilterOracle() if spec.tree == "surf" else checks.SortedKeysOracle(load)
    lat = Latencies()
    untraced = Probe(index, None)
    pos = _loop(reqs, 0, cyclic, handlers(untraced), check, seconds / 2 if trace else seconds,
                lat, speed)
    n_untraced = pos
    if trace:
        tracer = Tracer()
        tracer.calibrate()
        probe = Probe(index, tracer)
        lat_t = Latencies()
        pos = _loop(reqs, pos, cyclic, handlers(probe), check, seconds / 2, lat_t, speed)
        traced = [reqs[i % len(reqs)] for i in range(n_untraced, pos)]
    attempted = len(load) + pos

    fpr = 0.0
    if spec.tree == "surf":
        encode, may_contain = index.hope.encoder.encode, index.tree.may_contain
        fpr = sum(1 for k in held if may_contain(encode(k)[0])) / len(held)
    else:
        # every inserted key must be found afterwards (traced: the tree's point path)
        lookup = handlers(probe if trace else untraced)["point"]
        for kind, args in reqs[:pos]:
            if kind == "insert":
                check("point", args, lookup(*args))
                attempted += 1
    out: Dict[str, Any] = {"attempted": attempted, "failed": ties + check.failed}

    def ops_per_s(lt: Latencies) -> float:
        return lt.count() / (sum(lt.scaled(k, speed).sum() for k in lt.ns) / 1e9)

    if trace:
        Probe.close(index)
        start = np.concatenate([np.frombuffer(lat_t.start[k], dtype=np.int64) for k in lat_t.ns])
        end = start + np.concatenate([np.frombuffer(lat_t.ns[k], dtype=np.int64) for k in lat_t.ns])
        out["layers"] = _layer_metrics(
            root, spec, index, tree_bytes, height, setup_med, tracer, traced,
            factor=float(np.median(speed.factors(start, end))),
            overhead=1 - ops_per_s(lat_t) / ops_per_s(lat), fpr=fpr,
            repeats=repeat_share([reqs[i % len(reqs)][1][0] for i in range(pos)]))
        out["tracer"] = tracer
        return out

    n_load = len(load)
    rng_scaled, rng_raw = lat.scaled("range", speed), lat.raw("range")
    out["e2e"] = {
        "setup_s": setup_med["total"],
        "ops_per_s": ops_per_s(lat),
        "range_p50_us": _pct(rng_scaled, 50),
        "cpr": sum(map(len, load)) / sum(map(len, index.tree_keys)),
        "bytes_per_key": (tree_bytes + index.hope.dict_memory_bytes()) / n_load,
    }
    extra = {
        "encode_keys_per_s": (n_load / setup_med["encode"], "keys/s"),
        "range_p99_us": (_pct(rng_scaled, 99), "us"),
        "range_samples": (len(rng_raw), "count"),
    }
    other = "point" if spec.tree == "surf" else "insert"
    s = lat.scaled(other, speed)
    extra.update({f"{other}_p50_us": (_pct(s, 50), "us"),
                  f"{other}_p99_us": (_pct(s, 99), "us"),
                  f"{other}_samples": (len(s), "count")})
    if spec.tree == "surf":
        extra["false_positive_rate"] = (fpr, "ratio")
    extra.update({
        "raw.setup_s": (setup_med["raw_total"], "s"),
        "raw.range_p50_us": (_pct(rng_raw, 50), "us"),
        "raw.ops_per_s": (n_untraced / (sum(lat.raw(k).sum() for k in lat.ns) / 1e9), "1/s"),
        "speed.factor": (speed.factor(), "ratio"),
    })
    out["extra"] = extra
    return out


def _layer_metrics(root, spec, index, tree_bytes, height, setup_med, tracer, traced_ops, factor,
                   overhead, fpr, repeats):
    """Per-layer metrics; span times are scaled by the traced half's ``factor``."""
    s = tracer.summary()

    def total(name, field, parent=None):
        v = sum(e[field] for (n, p), e in s.items() if n == name and (parent is None or p == parent))
        return v * factor if field.endswith("_ns") else v

    single, pair, lk = "core.encoder.encode", "core.encoder.encode_pair", "core.dictionary.lookup"
    n_single, n_pair = total(single, "spans"), total(pair, "spans")
    lookups = total(lk, "calls")
    single_lookups, pair_lookups = total(lk, "calls", single), total(lk, "calls", pair)
    is_pair = [kind == "range" and spec.tree == "surf" for kind, _ in traced_ops]
    single_chars = sum(len(a[0]) for (_, a), p in zip(traced_ops, is_pair) if not p)
    pair_chars = sum(len(a[0]) + len(a[1]) for (_, a), p in zip(traced_ops, is_pair) if p)
    pre = f"trees.{spec.tree}"
    point_span = f"{pre}.may_contain" if spec.tree == "surf" else f"{pre}.lookup"
    range_span = f"{pre}.may_contain_range" if spec.tree == "surf" else f"{pre}.scan"
    point_self_us = total(point_span, "self_ns") / max(1, total(point_span, "spans")) / 1e3
    t_trie_ns, t_encode_ns = paper_constants(root)
    # the loop's single-key encodes (the verification lookups after it excluded)
    loop_ops = ("op.point", "op.scan", "op.insert")
    n_loop_single = sum(total(single, "spans", op) for op in loop_ops)
    loop_single_ns = sum(total(single, "busy_ns", op) for op in loop_ops)

    m = {
        "core.symbol_select.s": setup_med["symbol_select"],
        "core.code_assign.s": setup_med["code_assign"],
        "core.dictionary.build_s": setup_med["dict_build"],
        "core.dictionary.entries": index.hope.dict_entries,
        "core.dictionary.bytes": index.hope.dict_memory_bytes(),
        "core.dictionary.lookups_per_key": lookups / max(1, n_single + 2 * n_pair),
        "core.dictionary.ns_per_lookup": total(lk, "busy_ns") / max(1, lookups),
        "core.encoder.self_ns_per_op": (total(single, "self_ns") + total(pair, "self_ns"))
        / max(1, n_single + n_pair),
        "core.encoder.ns_per_char": (loop_single_ns + total(pair, "busy_ns"))
        / max(1, single_chars + pair_chars),
        "core.encoder.bits_per_key": index.bits / len(index.tree_keys),
        "core.encoder.load_s": setup_med["encode"],
        "core.encoder.pair_lookup_saving": (
            1 - (pair_lookups / n_pair) / (2 * single_lookups / n_single) if n_pair and n_single else 0.0),
        f"{pre}.load_s": setup_med["tree_build"],
        f"{pre}.self_us_point": point_self_us,
        f"{pre}.self_us_range": total(range_span, "self_ns") / max(1, total(range_span, "spans")) / 1e3,
        f"{pre}.height": height,
        f"{pre}.ns_per_level": point_self_us * 1e3 / height,
        f"{pre}.memory_bytes": tree_bytes,
        "workloads.repeat_share": repeats,
        "model.l_t_enc_us": loop_single_ns / max(1, n_loop_single) / 1e3,
        "model.h_t_trie_us": point_self_us,
        "model.paper_l_t_enc_us": single_chars / max(1, n_loop_single) * t_encode_ns[spec.config] / 1e3,
        "model.paper_h_t_trie_us": height * t_trie_ns / 1e3,
        "trace.overhead": overhead,
    }
    if spec.tree == "surf":
        m["trees.surf.false_positive_rate"] = fpr
    else:
        n_ins = total(f"{pre}.insert", "spans")
        m[f"{pre}.self_us_insert"] = total(f"{pre}.insert", "self_ns") / max(1, n_ins) / 1e3
    return m
