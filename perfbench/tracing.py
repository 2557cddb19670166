"""In-memory spans around the benchmark's calls into the library.

A span records a name, start, end, its parent span and the op it belongs to.
Spans stay in memory for the whole run and are written out once, at the end.
With tracing off, ``span`` still hands the caller an attribute dict (so the
workload code is the same in both modes) but records nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.op_id = None
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield attrs
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path: str) -> None:
        """One JSON object per line, with self time (duration minus the
        part covered by direct children; children never overlap here)."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                duration = s["end"] - s["start"]
                row = dict(s)
                row["duration_ms"] = 1e3 * duration
                row["self_ms"] = 1e3 * (duration - child_time.get(s["id"], 0.0))
                fh.write(json.dumps(row, default=str) + "\n")


def busy_ms(spans) -> float:
    return 1e3 * sum(s["end"] - s["start"] for s in spans)


def failed(spans) -> int:
    return sum(1 for s in spans if "error" in s["attrs"])


def p50_ms(spans) -> float:
    """Median span duration, 0 when there are none."""
    return 1e3 * statistics.median(s["end"] - s["start"] for s in spans) if spans else 0.0
