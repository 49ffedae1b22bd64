"""In-memory spans for the traced benchmark run, written out when it ends."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records one span per call into a layer.

    A span has a name, the operation it belongs to, the index of the span
    that was open when it started, its start and end on the perf_counter
    clock, and attributes such as iteration counts.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> tuple[int, float]:
        """Number of spans called `name` and their summed duration in seconds."""
        spans = self.named(name)
        return len(spans), sum(s["end"] - s["start"] for s in spans)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in self.named(name))

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
