"""Self-test of the benchmark's answer checks: wrong answers must be counted.

Run from the repository root:

    python3 perfbench/selftest.py

It drives small SuRF and ART instances over HOPE codes through the same
oracles the workloads use, first with the trees' own answers (no
failure may be counted), then with deliberately wrong answers (each one
must be counted). Exits 0 iff every expectation holds.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    from repro.core.hope import build_hope
    from repro.trees.art import ART
    from repro.trees.surf import SuRF
    from repro.workloads.datasets import email_keys

    problems = []

    def expect(what: str, got: int, want: int) -> None:
        print(f"{'ok  ' if got == want else 'FAIL'} {what}: counted {got}, expected {want}")
        if got != want:
            problems.append(what)

    keys = email_keys(3000, seed=7)
    load, pool = keys[:2800], keys[2800:]
    hope = build_hope("4grams", load[:300], 1 << 12)
    enc = hope.encoder.encode
    pairs = sorted((enc(k)[0], k) for k in load)

    expect("padding ties, none", checks.padding_ties([p[0] for p in pairs]), 0)
    expect("padding ties, one injected", checks.padding_ties([b"a", b"b", b"b", b"c"]), 1)

    surf = SuRF(suffix_bits=8)
    surf.build([p[0] for p in pairs])
    oracle = checks.FilterOracle()
    for k in load[:500]:
        oracle("point", (k,), surf.may_contain(enc(k)[0]))
    expect("SuRF point probes, true answers", oracle.failed, 0)
    oracle("point", (load[0],), False)
    oracle("range", (load[1], load[1] + b"\x01"), False)
    expect("SuRF probes, two false negatives injected", oracle.failed, 2)

    art = ART()
    art.build([p[0] for p in pairs], [p[1] for p in pairs])
    oracle = checks.SortedKeysOracle(load)
    for i, k in enumerate(load[:300]):
        if i % 20 == 0:
            new = pool[i // 20]
            art.insert(enc(new)[0], new)
            oracle("insert", (new,), None)
        oracle("range", (k, 1 + i % 100), art.scan(enc(k)[0], 1 + i % 100))
    for k in pool[:15]:
        oracle("point", (k,), art.lookup(enc(k)[0]))
    expect("ART scans, inserts and lookups, true answers", oracle.failed, 0)

    k = load[5]
    right = art.scan(enc(k)[0], 10)
    oracle("range", (k, 10), right[:-1])  # a key dropped
    oracle("range", (k, 10), [right[1], right[0]] + right[2:])  # two keys swapped
    oracle("point", (pool[0],), None)  # an inserted key not found
    expect("ART answers, three wrong answers injected", oracle.failed, 3)

    missing = pool[50]
    oracle("insert", (missing,), None)  # the tree never received this insert
    at = enc(missing)[0]
    oracle("range", (missing, 5), art.scan(at, 5))
    expect("ART scan after a lost insert", oracle.failed, 4)

    sorted_keys = sorted(load)
    bounds = [(sorted_keys[10], sorted_keys[60]), (sorted_keys[100], sorted_keys[400])]
    expect("range counts, true", checks.range_count_mismatches(sorted_keys, bounds, [50, 300]), 0)
    expect("range counts, one off by one", checks.range_count_mismatches(sorted_keys, bounds, [50, 299]), 1)

    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
