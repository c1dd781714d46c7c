"""HOPE benchmark: one workload per run, every metric by name with its unit.

Run from the repository root:

    python3 perfbench/run.py --workload email-surf-read --seed 1 --seconds 10 --trace 0

Workloads (see README.md for the full metric map):

* ``email-surf-read``     — SuRF over HOPE 4-Grams codes, YCSB-C point
  probes interleaved 1:1 with closed-range probes;
* ``url-art-scan-insert`` — ART over HOPE Double-Char codes, YCSB-E
  (95 % scans of 1-100 keys, 5 % inserts);
* ``wiki-spark-bulk``     — Spark ``local[N]``: sample, 3-gram statistics
  and build, bulk ``encode_df``, order check and encoded range filters.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs with spans around the calls into each layer and reports the
per-layer metrics instead, writing the spans to ``.bench_cache/traces/``.
Every answer is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("email-surf-read", "url-art-scan-insert", "wiki-spark-bulk")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout holding src/repro and BENCHMARK.json ({ROOT})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.workload == "wiki-spark-bulk":
        import spark_bulk as impl
    else:
        import local_trees as impl
    out = impl.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    units = {}
    if args.trace:
        wanted = spec["per_layer"]
        produced = out["layers"]
        trace_dir = ROOT / ".bench_cache" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.npz"
        out["tracer"].write(path)
        print(f"# spans: {path.relative_to(ROOT)}")
    else:
        wanted = spec["end_to_end"]
        produced = out["e2e"]
    metrics = {}
    for m in wanted:
        # a layer the workload does not exercise did no work: 0
        value = produced.get(m["name"], 0.0) if args.trace else produced[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        units[m["name"]] = m["unit"]
    unknown = set(produced) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for name, (value, unit) in out.get("extra", {}).items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    if args.trace and "model.l_t_enc_us" in produced:
        for term in ("l_t_enc_us", "h_t_trie_us"):
            here, paper = produced[f"model.{term}"], produced[f"model.paper_{term}"]
            print(f"# §5 {term}: {here:.3f} us here vs {paper:.3f} us with the paper's "
                  f"constants ({here / paper:.1f}x)")
    attempted, failed = out["attempted"], out["failed"]
    print(f"{'failed_ops_ratio':40s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} checked answers wrong)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
