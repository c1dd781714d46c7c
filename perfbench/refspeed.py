"""Machine-speed reference for the benchmark's timings.

On a shared host the same code runs up to 2x slower for seconds to
minutes at a time, so raw times of one build spread far wider than any
useful regression bound. The benchmark therefore times a fixed
pure-Python kernel — byte slicing, ``bisect``, dict updates and integer
shifts, like HOPE's encode loop — beside the work, and reports each time
scaled to a machine on which the kernel takes ``REF_NS``:

    scaled time = measured time x REF_NS / kernel time near it

"Near it" is the mean of the samples from just before the work to just
after it. The closed loops sample every 0.1 s; setup phases, Spark jobs
and queries are sampled before and after, and Spark jobs also from a
thread while they run. The kernel is part of the benchmark, not of the
program, so a change to the program cannot move it. Raw times are
printed next to the scaled ones.
"""
from __future__ import annotations

import threading
from array import array
from bisect import bisect_right
from time import perf_counter_ns
from typing import Callable, Sequence, Tuple

import numpy as np

DURING_EVERY_S = 0.1

#: the kernel's time (best of 3) on a 4-vCPU KVM Intel Xeon at 2.0 GHz
REF_NS = 175_000.0

_KEYS = [bytes((i * 37 + j) % 251 for j in range(24)) for i in range(64)]
_SORTED = sorted(_KEYS)


def kernel() -> int:
    acc = 0
    d: dict = {}
    for k in _KEYS:
        i = bisect_right(_SORTED, k[3:])
        for b in k:
            acc = ((acc << 5) | b) & 0xFFFFFFFFFFFF
        d[k[:4]] = d.get(k[:4], 0) + i
    return acc


class Speed:
    """Kernel samples of one run, and the scale factors they give."""

    def __init__(self) -> None:
        self.at = array("q")  # perf_counter_ns when sampled
        self.ns = array("q")  # kernel time, best of 3

    def sample(self) -> None:
        best = None
        for _ in range(3):
            t0 = perf_counter_ns()
            kernel()
            t = perf_counter_ns() - t0
            best = t if best is None or t < best else best
        self.at.append(perf_counter_ns())
        self.ns.append(best)

    def time(self, fn: Callable, *args, during: bool = False, **kwargs) -> Tuple[object, Tuple[int, int]]:
        """Call ``fn`` between two kernel samples; returns (result, (start ns, raw ns)).

        With ``during``, a thread also samples every ``DURING_EVERY_S``
        while ``fn`` runs. Use it only for a call that waits outside the
        interpreter (a Spark job), so that the thread needs no time from it.
        """
        self.sample()
        stop = threading.Event()
        sampler = threading.Thread(target=self._sample_until, args=(stop,), daemon=True)
        if during:
            sampler.start()
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            raw = perf_counter_ns() - t0
            stop.set()
            if during:
                sampler.join()
        self.sample()
        return result, (t0, raw)

    def _sample_until(self, stop: threading.Event) -> None:
        while not stop.wait(DURING_EVERY_S):
            self.sample()

    def factors(self, starts, ends) -> np.ndarray:
        """Scale factor for work that ran from each ``starts`` to ``ends``
        (``perf_counter_ns``): from the mean kernel time of the samples from
        the last one before the start to the first one after the end."""
        at = np.frombuffer(self.at, dtype=np.int64)
        ns = np.frombuffer(self.ns, dtype=np.int64).astype(np.float64)
        first = np.maximum(np.searchsorted(at, np.asarray(starts, dtype=np.int64), side="right") - 1, 0)
        last = np.minimum(np.searchsorted(at, np.asarray(ends, dtype=np.int64)), len(at) - 1)
        cum = np.concatenate([[0.0], np.cumsum(ns)])
        return REF_NS * (last - first + 1) / (cum[last + 1] - cum[first])

    def scaled_s(self, timings: Sequence[Tuple[int, int]]) -> float:
        """Summed scaled seconds of ``(start ns, raw ns)`` timings."""
        t = np.array(timings, dtype=np.int64).reshape(-1, 2)
        return float((t[:, 1] * self.factors(t[:, 0], t[:, 0] + t[:, 1])).sum()) / 1e9

    def factor(self) -> float:
        """Scale factor of the whole run: ``REF_NS`` over the median kernel time."""
        return REF_NS / float(np.median(np.frombuffer(self.ns, dtype=np.int64)))
