"""Spans kept in memory around every call the benchmark makes into a layer.

Workloads call openmap through ``tracer.call(name, fn, *args)``. The
untraced runs use ``NULL_TRACER``, whose ``call`` is a plain call, so both
runs execute the same benchmark code and the traced run differs only by the
recording. Span names are ``<layer>.<call>``, with the layers named after
the modules of ``src/openmap``.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LINALG_CALLS = ("svd", "eigh", "eigvalsh", "inv")


@dataclass
class Span:
    name: str
    phase: str  # "setup", "task" or "probe"
    task: int | None
    parent: int | None  # index into Tracer.spans
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Calls straight through; used for every untimed and untraced call."""

    def call(self, name, fn, *args, rename=None, **kwargs):
        return fn(*args, **kwargs)


NULL_TRACER = NullTracer()


class Tracer:
    """Records a span per call, nested by the calls open around it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.task: int | None = None
        self.linalg: Counter[str] = Counter()  # numpy.linalg calls per layer
        self._open: list[int] = []

    def call(self, name, fn, *args, rename=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span.

        rename, when given, maps the result to the span's final name, for
        calls whose layer path is known only from what they return.
        """
        index = len(self.spans)
        span = Span(name, self.phase, self.task, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if rename is not None:
            span.name = rename(result)
        return result

    def current_layer(self) -> str:
        if not self._open:
            return "bench"
        return self.spans[self._open[-1]].name.split(".", 1)[0]

    @contextmanager
    def counting_linalg(self):
        """Count numpy.linalg svd/eigh/eigvalsh/inv calls by the layer open around them."""
        saved = {name: getattr(np.linalg, name) for name in LINALG_CALLS}

        def counted(fn):
            def wrapper(*args, **kwargs):
                self.linalg[self.current_layer()] += 1
                return fn(*args, **kwargs)

            return wrapper

        try:
            for name, fn in saved.items():
                setattr(np.linalg, name, counted(fn))
            yield
        finally:
            for name, fn in saved.items():
                setattr(np.linalg, name, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another in this single-threaded
    benchmark, so the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def summarize(spans: list[Span], phases: tuple[str, ...]) -> dict[str, tuple[float, int]]:
    """Summed self time in seconds and call count per span name, over the given phases."""
    out: dict[str, tuple[float, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        if span.phase in phases:
            busy, calls = out.get(span.name, (0.0, 0))
            out[span.name] = (busy + own, calls + 1)
    return out
