"""In-memory spans recorded from the benchmark process.

A span is (name, start, end, parent span, operation id).  Root spans are
the benchmark's own operations (``op.*``); child spans wrap calls into
the engine's public module functions.  Spans stay in memory and are
written out once, when the run ends.  Calls made inside Ray workers are
invisible from here, which is why build kernels are timed by a separate
in-process pass (see phases.kernel_pass).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder.  ``on`` gates recording: wrapped functions call
    straight through while it is False, so one process can alternate
    traced and untraced operations and report the tracing overhead."""

    def __init__(self):
        self.spans: list[dict] = []
        self.on = False
        self._stack: list[int] = []
        self._op = 0
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        root = not self._stack
        if root:
            self._op += 1
        idx = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self._op}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper (undone
        by :meth:`unwrap_all`)."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*a, **kw):
            if not self.on:
                return orig(*a, **kw)
            with self.span(name):
                return orig(*a, **kw)

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # ---- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the time its children
        cover (children of one parent never overlap: one thread)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c
                for s, c in zip(self.spans, child)]

    def by_op(self, roots: set[str]) -> list[dict[str, float]]:
        """{span name: summed self time} per operation whose root span is
        named in ``roots``."""
        selfs = self.self_times()
        root_of = {s["op"]: s["name"] for s in self.spans
                   if s["parent"] is None}
        out: dict[int, dict[str, float]] = {}
        for s, st in zip(self.spans, selfs):
            if root_of.get(s["op"]) in roots:
                d = out.setdefault(s["op"], {})
                d[s["name"]] = d.get(s["name"], 0.0) + st
        return list(out.values())

    def layer_sum(self, roots: set[str]) -> tuple[float, float]:
        """(Σ self time of non-root spans, Σ root span wall time) over
        the operations whose root span is named in ``roots``."""
        selfs = self.self_times()
        ops = {s["op"] for s in self.spans
               if s["parent"] is None and s["name"] in roots}
        wall = layers = 0.0
        for s, st in zip(self.spans, selfs):
            if s["op"] not in ops:
                continue
            if s["parent"] is None:
                wall += s["end"] - s["start"]
            else:
                layers += st
        return layers, wall

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
