"""In-memory span recording and the arithmetic the benchmark reports from it.

Spans are recorded only by wrappers that the benchmark installs on module
attributes of ``adpredict`` for the length of a traced phase; an untraced
phase runs the unmodified functions. Every span keeps its name, its start
and end (``time.perf_counter`` seconds) and the index of the span that was
open when it started, so nesting is explicit and self time can be derived
afterwards.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records one span per call of every function it wraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index].end = time.perf_counter()
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap ``(owner, attribute, span_name)`` targets; restore them on exit."""
        with ExitStack() as stack:
            for owner, attr, name in targets:
                stack.enter_context(patched(owner, attr,
                                            self.wrap(name, getattr(owner, attr))))
            yield self

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n",
                        encoding="utf-8")


@contextmanager
def patched(owner, attr: str, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cursor = span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo = max(kid.start, cursor)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def tail_percentile(samples, want: int) -> tuple[int, float] | None:
    """Nearest-rank percentile ``want``, lowered until ten samples lie beyond it.

    Returns ``(percent_used, value)``, or None when there are ten samples
    or fewer, so that no percentile has ten beyond it.
    """
    n = len(samples)
    if n <= 10:
        return None
    percent = min(want, 100 * (n - 10) // n)
    rank = max(1, -(-percent * n // 100))
    return percent, sorted(samples)[rank - 1]
