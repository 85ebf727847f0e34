"""Spans recorded from outside the package.

The tracer replaces a module attribute with a wrapper that records a span
around each call, so it sees exactly the calls that look the function up
at that attribute. Spans stay in memory; `self_seconds` subtracts child
spans from their parent to give each span's self time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # Each span: id, name, parent id (None for a root), start, end,
        # and attributes filled in from the call's arguments and result.
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except Exception as exc:
            rec["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, attrs, describe):
        def traced(*args, **kwargs):
            with self.span(name, **attrs) as rec:
                result = fn(*args, **kwargs)
                if describe is not None:
                    rec["attrs"].update(describe(args, result))
                return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each (module, attribute, span name, attributes, describe)
        target for the duration of the block, then put the originals back.
        `describe(args, result)` returns more attributes for a span."""
        saved = []
        try:
            for module, attr, name, attrs, describe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, attrs, describe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children.
        Children of one span run one after another, so their durations
        never overlap."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0)
                for s in self.spans}
