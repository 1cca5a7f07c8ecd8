"""In-memory span tracer used from the benchmark's own files.

A span records its name, start, end, parent, trace id and the thread
CPU time spent inside it, so wall time splits into busy time and time
spent waiting (for the interpreter lock, a lock, I/O or a sleep).
Spans stay in memory until the run ends.

Functions of the program are traced by replacing the attribute that
callers look up (a module global, a class attribute or an instance
attribute) with a wrapper. A function that no longer exists is skipped,
so a metric built on it reads 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    trace_id: str | None
    thread: int
    start: float
    end: float
    cpu: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: parent given to spans opened on a thread with no open span,
        #: e.g. worker-thread calls made on behalf of a stage span.
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trace_id: str | None = None) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        token = (span_id, stack[-1] if stack else self.root, name, trace_id, time.thread_time(), time.monotonic())
        stack.append(span_id)
        return token

    def close(self, token: tuple) -> None:
        end = time.monotonic()
        cpu = time.thread_time() - token[4]
        self._stack().pop()
        span_id, parent, name, trace_id, _, start = token
        self.spans.append(Span(span_id, parent, name, trace_id, threading.get_ident(), start, end, cpu))

    def traced(self, fn: Callable, name: str, trace_id: Callable | None = None) -> Callable:
        """fn wrapped in a span; trace_id maps the call's arguments to an id."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.open(name, trace_id(*args, **kwargs) if trace_id else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token)

        return wrapper

    def wrap(self, owner: object, attr: str, name: str, trace_id: Callable | None = None) -> bool:
        """Trace owner.attr in place; False when there is no such callable."""
        if isinstance(owner, type):
            raw = next((k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__), None)
        else:
            raw = getattr(owner, attr, None)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(self.traced(raw.__func__, name, _skip_first(trace_id, raw))))
        elif callable(raw):
            setattr(owner, attr, self.traced(raw, name, trace_id))
        else:
            return False
        return True


def _skip_first(trace_id: Callable | None, raw: object) -> Callable | None:
    """A classmethod's wrapped function also receives the class first."""
    if trace_id is None or not isinstance(raw, classmethod):
        return trace_id
    return lambda cls, *args, **kwargs: trace_id(*args, **kwargs)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its same-thread children.

    Children on other threads run concurrently with the parent, so they
    do not reduce the parent's own time.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        inside = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.thread == span.thread
        ]
        result[span.id] = span.duration - covered(inside)
    return result
