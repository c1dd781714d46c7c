"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around the benchmark's own calls into the program's
public functions, so the program under test is not edited. Each span has
a name, a start and an end (``perf_counter_ns``), the span that caused it
and the id of the operation it belongs to; spans of one operation share
that id.

Dictionary lookups run several times per key, too often for one record
each. ``counted`` wraps such a function: its calls are counted and timed
into one aggregate child span of the enclosing span, whose ``busy`` is
the summed call time and ``calls`` the call count.

A span's self time is its busy time minus the busy time of its children.
The tracer's own cost lands in the spans it measures; ``calibrate``
measures that cost per recorded span and per counted call, and
``arrays`` subtracts it (``busy``/``self`` hold corrected times,
``raw_busy`` the clock readings). Spans stay in memory and are written
once, with self times, by ``write`` when the run ends.
"""
from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

import numpy as np


def _noop(*args):
    return None


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        # closed spans: (id, parent, op, name, start, end, counted ns, counted calls)
        self.spans: List[tuple] = []
        # open spans: [id, parent, start, counted ns, counted calls]
        self._stack: List[list] = []
        self._next = 0
        self._counted_name = -1
        self.op_id = 0
        # tracer cost per span (inside it, and in its parent) and per counted call
        self.cost = {"span_inner": 0.0, "span_outer": 0.0, "call_inner": 0.0, "call_outer": 0.0}

    def _name(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            i = self._index[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        i = self._name(name)
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][0] if stack else -1
            entry = [sid, parent, 0, 0, 0]
            stack.append(entry)
            entry[2] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, self.op_id, i, entry[2], end, entry[3], entry[4]))

        return traced

    def op(self, name: str, fn: Callable) -> Callable:
        """Like ``wrap``, but each call starts a new operation id."""
        traced = self.wrap(name, fn)

        def new_op(*args, **kwargs):
            self.op_id += 1
            return traced(*args, **kwargs)

        return new_op

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted and timed into the enclosing span."""
        i = self._name(name)
        if self._counted_name not in (-1, i):
            raise ValueError("a tracer aggregates one counted function")
        self._counted_name = i
        stack = self._stack

        def counter(*args):
            t0 = perf_counter_ns()
            r = fn(*args)
            t1 = perf_counter_ns()
            if stack:  # outside any span a call is not part of the trace
                top = stack[-1]
                top[3] += t1 - t0
                top[4] += 1
            return r

        return counter

    def calibrate(self, n: int = 20_000) -> None:
        """Measure the tracer's own cost with no-op spans and counted calls.

        ``span_inner`` is what an empty span reads, ``span_outer`` what
        it adds to its parent beyond that; ``call_inner`` and
        ``call_outer`` are the same for one counted call. The median of
        five rounds is kept.
        """
        probe = Tracer()
        # a request's calls pass a key (and a position): call the no-ops alike
        outer = probe.wrap("outer", lambda f, k: [f(b"key", 0) for _ in range(k)])
        rounds = {k: [] for k in self.cost}
        for _ in range(5):
            for kind, inner in (("span", probe.wrap("inner", _noop)),
                                ("call", probe.counted("call", _noop))):
                probe.spans.clear()
                t0 = perf_counter_ns()
                outer(_noop, n)
                base = perf_counter_ns() - t0  # the loop itself, untraced
                probe.spans.clear()
                outer(inner, n)
                root = probe.spans[-1]
                if kind == "span":
                    in_ = sum(s[5] - s[4] for s in probe.spans[:-1]) / n
                else:
                    in_ = root[6] / n
                total = (root[5] - root[4] - base) / n
                rounds[f"{kind}_inner"].append(in_)
                rounds[f"{kind}_outer"].append(max(0.0, total - in_))
        self.cost = {k: float(np.median(v)) for k, v in rounds.items()}

    def arrays(self) -> Dict[str, np.ndarray]:
        """One row per span, counted calls as one child row of their span.

        ``raw_busy`` is the clock reading. ``busy`` subtracts the tracer
        cost measured by ``calibrate``: the span's own, plus what each
        descendant added around its reading. ``self`` is ``busy`` minus
        the children's ``busy``.
        """
        rows = sorted(self.spans)
        agg = [r for r in rows if r[7]]
        n, k = len(rows), len(agg)
        reg = np.array([r[:6] for r in rows], dtype=np.int64).reshape(n, 6)
        aggs = np.array([(r[0], r[2], r[4], r[5], r[6], r[7]) for r in agg], dtype=np.int64).reshape(k, 6)
        a = {
            "parent": np.concatenate([reg[:, 1], aggs[:, 0]]),
            "op": np.concatenate([reg[:, 2], aggs[:, 1]]),
            "name": np.concatenate([reg[:, 3], np.full(k, self._counted_name, np.int64)]),
            "start": np.concatenate([reg[:, 4], aggs[:, 2]]),
            "end": np.concatenate([reg[:, 5], aggs[:, 3]]),
            "calls": np.concatenate([np.ones(n, np.int64), aggs[:, 5]]),
            "raw_busy": np.concatenate([reg[:, 5] - reg[:, 4], aggs[:, 4]]),
        }
        # span ids are 0..n-1 in opening order, so a parent's row is its id
        # and every child has a larger id than its parent
        parent = a["parent"]
        is_agg = np.arange(n + k) >= n
        c = self.cost
        inner = np.where(is_agg, a["calls"] * c["call_inner"], c["span_inner"])
        outer = np.where(is_agg, a["calls"] * c["call_outer"], c["span_outer"])
        depth = np.zeros(n + k, np.int64)
        p = parent.copy()
        while (p >= 0).any():
            depth += p >= 0
            p = np.where(p >= 0, parent[np.maximum(p, 0)], -1)
        cost_in = inner.astype(np.float64)
        for d in range(int(depth.max(initial=0)), 0, -1):
            at = depth == d
            np.add.at(cost_in, parent[at], cost_in[at] + outer[at])
        busy = np.maximum(a["raw_busy"] - cost_in, 0.0)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=busy[has_parent], minlength=n + k)
        a["busy"] = busy
        a["self"] = np.maximum(busy - covered, 0.0)
        return a

    def summary(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Totals per (span name, parent span name; "" for roots).

        Each entry holds ``spans``, ``calls``, ``busy_ns`` and ``self_ns``.
        """
        a = self.arrays()
        width = len(self.names) + 1
        parent_name = np.where(a["parent"] >= 0, a["name"][np.maximum(a["parent"], 0)], -1)
        groups, inverse = np.unique(a["name"] * width + parent_name + 1, return_inverse=True)
        sums = {f: np.bincount(inverse, weights=a[col], minlength=len(groups))
                for f, col in (("calls", "calls"), ("busy_ns", "busy"), ("self_ns", "self"))}
        spans = np.bincount(inverse, minlength=len(groups))
        out: Dict[Tuple[str, str], Dict[str, float]] = {}
        for g, key in enumerate(groups):
            name, parent = divmod(int(key), width)
            out[(self.names[name], self.names[parent - 1] if parent else "")] = {
                "spans": int(spans[g]), **{f: float(v[g]) for f, v in sums.items()}}
        return out

    def write(self, path) -> None:
        """Write every span, with its self time and the calibration, as ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names),
                            cost=np.array([self.cost[k] for k in sorted(self.cost)]),
                            cost_names=np.array(sorted(self.cost)), **self.arrays())
