"""In-memory spans recorded around calls into the program's layers.

Spans are kept in a list and written out once, when the run ends.  A
span has a name, the layer it belongs to, start and end times, the span
that caused it (its parent on the same thread) and the request id it
serves.  Untraced runs use :data:`OFF`, whose ``span()`` does nothing.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    @contextlib.contextmanager
    def span(self, name: str, layer: Optional[str], request: Optional[str] = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next += 1
            span_id = self._next
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["request"]
        record = {
            "id": span_id,
            "parent": parent["id"] if parent else None,
            "name": name,
            "layer": layer,
            "request": request,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                handle.write(json.dumps(record) + "\n")

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["layer"]:
                out[s["layer"]] += (s["end"] - s["start"]) - child_time[s["id"]]
        return dict(out)

    def uncovered_share(self, windows) -> float:
        """Share of the ``(start, end)`` windows that no layer span covers."""
        total = covered = 0.0
        for start, end in windows:
            total += end - start
            intervals = sorted(
                (max(s["start"], start), min(s["end"], end))
                for s in self.spans
                if s["layer"] and s["end"] > start and s["start"] < end
            )
            cursor = start
            for lo, hi in intervals:
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
        return max(0.0, 1.0 - covered / total)


class _Off:
    def span(self, name, layer, request=None):
        return contextlib.nullcontext()


OFF = _Off()
