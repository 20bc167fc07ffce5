"""In-memory spans for the benchmark's traced run.

A span records a name, a start, an end, its parent span and free-form
tags.  Spans stay in memory until the run ends; :func:`self_times`
then derives each span's self time (its duration minus the part of it
that its child spans cover), which is what the per-layer metrics sum.
Only the benchmark's own code opens spans, around calls into the
program's public functions -- the program itself is not instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """A flat list of spans plus the stack of currently open ones."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[dict]:
        """Time the body as one span nested under the innermost open
        span (if any)."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "tags": tags,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **tags) -> dict:
        """Record an already-timed interval (e.g. one HTTP request)."""
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "start": start, "end": end, "tags": tags}
        self.spans.append(record)
        return record


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_time_by_name(spans: List[dict]) -> Dict[str, float]:
    """Total self time per span name."""
    st = self_times(spans)
    totals: Dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + st[s["id"]]
    return totals
