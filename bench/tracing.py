"""Spans recorded from outside the library, around the calls the benchmark makes.

A span is (name, start_ns, end_ns, parent, op_id). Each operation gets a
``bench.op`` span; the library calls it makes are its children. Span
names are ``<layer>.<function>``, the layer being the likekit module.
"""

from __future__ import annotations

import time

_now = time.perf_counter_ns


class _Untraced:
    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


UNTRACED = _Untraced()


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._parent = -1
        self._op = -1

    def call(self, name, fn, *args, **kwargs):
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[idx] = (name, start, _now(), self._parent, self._op)

    def run_op(self, op_id, op):
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        self._parent, self._op = idx, op_id
        start = _now()
        try:
            return op.run(self)
        finally:
            spans[idx] = ("bench.op", start, _now(), -1, op_id)
            self._parent = -1

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name, and self seconds per layer: a span's
        duration minus the part its children cover."""
        busy: dict[str, float] = {}
        child: list[int] = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            busy[name] = busy.get(name, 0) + (end - start)
            if parent >= 0:
                child[parent] += end - start
        layer_self: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0) + (end - start - covered)
        return (
            {k: v / 1e9 for k, v in busy.items()},
            {k: v / 1e9 for k, v in layer_self.items()},
        )
