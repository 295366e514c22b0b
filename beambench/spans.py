"""Outside-in tracing of beamkit: spans around its public callables.

A :class:`Tracer` replaces named callables with wrappers that record a
span (name, start, end, parent) per call, and puts the originals back
when :meth:`Tracer.patched` exits.  Nothing inside the package changes:
module-level functions are rebound in every ``beamkit`` module that
imported them, methods are replaced on their class, and single layers
are wrapped on the instance.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: float):
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def take(self) -> tuple[list[Span], dict[str, float]]:
        """Return the spans and counts recorded so far and start afresh."""
        if self._open:
            raise RuntimeError("cannot take spans while a span is open")
        taken = (self.spans, self.counts)
        self.spans, self.counts = [], {}
        return taken

    def wrapper(self, original, name: str, measure=None):
        """``original`` inside a span; ``measure(args, kwargs) -> (counter,
        amount)`` runs first, outside the span, when given."""

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if measure is not None:
                self.count(*measure(args, kwargs))
            with self.span(name):
                return original(*args, **kwargs)

        return traced

    def replace(self, owner, attr: str, value):
        """Set ``owner.attr`` until :meth:`patched` exits."""
        self._restore.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, attr: str, name: str, measure=None):
        """Wrap a module-level callable wherever a beamkit module bound it."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrapper(original, name, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "beamkit" or mod_name.startswith("beamkit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, traced)

    def wrap(self, owner, attr: str, name: str, measure=None):
        """Wrap a method on its class, or on one instance only."""
        self.replace(owner, attr, self.wrapper(getattr(owner, attr), name, measure))

    @contextmanager
    def patched(self):
        """Wrappers installed inside this block are removed when it exits."""
        try:
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


def span_times(spans: list[Span]) -> dict[str, tuple[float, float, int]]:
    """Per span name: (self time, total time, number of spans).

    Self time is a span's duration minus the time its direct children
    cover.  Spans come from one thread's stack, so siblings never
    overlap and the covered time is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: dict[str, tuple[float, float, int]] = {}
    for span, child_time in zip(spans, covered):
        own, total, calls = totals.get(span.name, (0.0, 0.0, 0))
        duration = span.end - span.start
        totals[span.name] = (own + duration - child_time, total + duration, calls + 1)
    return totals
