"""Span tracing of hitminor from outside the library.

`Tracer.installed(hm)` replaces each public function at the name its caller
looks up with a wrapper that records a span: name, start, end and the id of
the enclosing span.  A span's self time is its duration minus the time of its
child spans, so the self times of all spans of a query add up to the query's
traced time.

Partition operators and freeness checks run tens of thousands of times per
query.  Their calls are folded: each adds its count and self time to its
name's totals instead of recording a span.  Spans stay in memory until
`write_spans`.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Span per call: (module path, attribute, span name).  make_nice_v0 reports
#: under make_nice; the solver front end looks every helper up in
#: hitminor.solvers, the treedecomp helpers call each other through
#: hitminor.treedecomp, and solve_c4/solve_paw import augment_universal from
#: there at call time.
SPANS = [
    ("hitminor", "parse_gr", "graph.parse_gr"),
    ("hitminor", "solve", "solvers.solve"),
    ("hitminor", "min_deletion_bruteforce", "oracle.min_deletion"),
    ("hitminor.solvers", "heuristic_td", "treedecomp.heuristic_td"),
    ("hitminor.solvers", "validate_td", "treedecomp.validate_td"),
    ("hitminor.treedecomp", "validate_td", "treedecomp.validate_td"),
    ("hitminor.solvers", "make_nice", "treedecomp.make_nice"),
    ("hitminor.solvers", "make_nice_v0", "treedecomp.make_nice"),
    ("hitminor.treedecomp", "make_nice", "treedecomp.make_nice"),
    ("hitminor.solvers", "augment_universal", "treedecomp.augment_universal"),
    ("hitminor.treedecomp", "augment_universal", "treedecomp.augment_universal"),
    ("hitminor.solvers", "solve_p3", "labeling.dp"),
    ("hitminor.solvers", "solve_p4", "labeling.dp"),
    ("hitminor.solvers", "solve_k1s", "labeling.dp"),
    ("hitminor.solvers", "solve_bdd", "labeling.dp"),
    ("hitminor.solvers", "solve_c4", "connectivity.dp"),
    ("hitminor.solvers", "solve_paw", "connectivity.dp"),
]

#: One budgeted pass of the C4/paw deepening loop.  Private names: when a
#: later version drops them, the tracer warns and counts no passes.
PASS_SPANS = [
    ("hitminor.solvers.connectivity", "_c4_pass", "connectivity.pass"),
    ("hitminor.solvers.connectivity", "_paw_pass", "connectivity.pass"),
]

#: Folded calls: (module path, attribute, name); a class attribute when the
#: module path names a class.
FOLDED = [
    ("hitminor.partitions.WeightedPartitionSet", "union", "partitions.ops"),
    ("hitminor.partitions.WeightedPartitionSet", "ins", "partitions.ops"),
    ("hitminor.partitions.WeightedPartitionSet", "glue", "partitions.ops"),
    ("hitminor.partitions.WeightedPartitionSet", "proj", "partitions.ops"),
    ("hitminor.partitions.WeightedPartitionSet", "join", "partitions.ops"),
    ("hitminor.partitions.WeightedPartitionSet", "reduce", "partitions.reduce"),
    ("hitminor.oracle", "is_free", "patterns.is_free"),
]

ROOT = "bench.query"


def _resolve(hm, path: str):
    obj = hm
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Spans and per-name totals of the queries run while installed."""

    def __init__(self):
        #: Finished spans: (id, parent id, query, name, start, end).
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Extra counts taken at the boundaries, e.g. reduce entries.
        self.counts: Counter[str] = Counter()
        self.missing: set[str] = set()
        #: Folded calls per name: [calls, self seconds].
        self._folded: dict[str, list] = {}
        # Open frames, innermost last: [span id, child seconds].
        self._stack: list[list] = []
        self._next_id = 0
        self._query = -1

    # -- recording ------------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append(
            (frame[0], parent[0] if parent else None, self._query, name, start, end)
        )

    def span(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, name, start, perf_counter())

        return traced

    def folded(self, name: str, fn, entries: bool = False):
        """Wrapper that adds to the totals of `name` without a span; with
        `entries`, also counts the entries of the set going in and out (for
        `reduce`)."""
        stack = self._stack
        totals = self._folded.setdefault(name, [0, 0.0])
        counts = self.counts

        def traced(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration - frame[1]
            if entries:
                counts[name + ".entries_in"] += len(args[0].entries)
                counts[name + ".entries_out"] += len(out.entries)
            return out

        return traced

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per name, spans and folded calls alike."""
        out = {name: (self.calls[name], self.self_s[name]) for name in self.calls}
        out.update((name, (t[0], t[1])) for name, t in self._folded.items())
        return out

    def query(self, fn, *args):
        """Run one query under a root span."""
        self._query += 1
        return self.span(ROOT, fn)(*args)

    # -- installation ---------------------------------------------------

    @contextmanager
    def installed(self, hm):
        """Patch the library for the duration of the block."""
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        try:
            for path, attr, name in SPANS:
                owner = _resolve(hm, path)
                patch(owner, attr, self.span(name, getattr(owner, attr)))
            for path, attr, name in PASS_SPANS:
                owner = _resolve(hm, path)
                if attr not in owner.__dict__:
                    self.missing.add(f"{path}.{attr}")
                    continue
                patch(owner, attr, self.span(name, getattr(owner, attr)))
            for path, attr, name in FOLDED:
                owner = _resolve(hm, path)
                fn = owner.__dict__[attr]
                patch(owner, attr, self.folded(name, fn, name == "partitions.reduce"))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, query, name, start, end in self.spans:
                record = {
                    "id": sid,
                    "parent": parent,
                    "query": query,
                    "name": name,
                    "start": start,
                    "end": end,
                }
                fh.write(json.dumps(record) + "\n")
