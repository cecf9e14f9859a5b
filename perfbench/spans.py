"""In-memory spans for the traced replay.

A span records (name, start, end, parent). Spans stay in memory and are
written once, when the replay ends. A span name is ``<layer>.<call>``;
the layer is the xpmcap module whose public function the span wraps, so
self time per layer is a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import time


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "start": time.perf_counter(), "end": None,
                  "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt}
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["minflt"] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                                - record["minflt"])
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call.

        ``note(args, result)``, when given, returns attributes to add to
        the span, e.g. the size of what the call made.
        """
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = inner(*args, **kwargs)
                if note is not None:
                    record.update(note(args, result))
                return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id, "spans": self.spans}, fh)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer not covered by a child span."""
    out: dict[str, float] = {}
    child_total = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        own = (s["end"] - s["start"]) - child_total[s["id"]]
        out[layer] = out.get(layer, 0.0) + own
    return out


def total(spans: list[dict], name: str, key: str | None = None) -> float:
    """Summed duration (or summed attribute ``key``) of spans named name."""
    return sum((s[key] if key else s["end"] - s["start"])
               for s in spans if s["name"] == name)
