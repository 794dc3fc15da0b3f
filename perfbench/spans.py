"""In-memory span recorder for the traced run.

A span records one call into a layer: its name, start and end, the span
that was open when it started (its parent) and the instance being
solved.  Spans are recorded by replacing module attributes with timing
wrappers, so the solver itself carries no tracing code; the originals
are put back when the recorder is uninstalled.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator, TextIO


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: int
    attrs: dict | None = None


# (module, attribute, span name, optional describe(args, result) -> attrs)
Target = tuple[object, str, str, Callable[[tuple, object], dict] | None]


class SpanRecorder:
    """Collects spans from the wrapped attributes while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance = -1
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, describe=None) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0, stack[-1] if stack else None, self.instance)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if describe is not None:
                span.attrs = describe(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["SpanRecorder"]:
        saved = []
        try:
            for module, attr, name, describe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, describe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, handle: TextIO, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds since ``origin``."""
        for span in self.spans:
            record = {
                "name": span.name,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": span.parent,
                "instance": span.instance,
            }
            if span.attrs:
                record["attrs"] = span.attrs
            handle.write(json.dumps(record) + "\n")


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.end - span.start - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]
