"""In-memory span tracing for the traced benchmark run.

A span records one call into a layer: its name, start, end, parent span and
op id (the id of the root span it descends from, so every span of one op
shares it). Spans are kept in a list while the workload runs and written as
JSON lines when it ends. Each thread keeps its own span stack, so calls made
by the runner's worker threads become roots of their own.

The benchmark opens a root span per op with :meth:`Tracer.span`. Calls into
the layers, whether the benchmark makes them or the library makes them
internally (the runner solving references, the generator serialising), are
caught by :func:`instrument`, which swaps chosen module attributes for
recording wrappers and puts the originals back afterwards. Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Iterator


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs", "thread")

    def __init__(self, sid, parent, op, name, attrs):
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.attrs = attrs
        self.thread = threading.get_ident()
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            **self.attrs,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        record = Span(sid, parent.id if parent else None, parent.op if parent else sid, name, attrs)
        stack.append(record)
        try:
            yield record
        except BaseException as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps(header) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record.as_json()) + "\n")


@contextlib.contextmanager
def no_span(name: str, **attrs) -> Iterator[None]:
    """Stands in for :meth:`Tracer.span` when nothing is traced."""
    yield None


# (owner, attribute, span name, attrs taken from the call's arguments)
Hook = tuple[object, str, str, Callable[..., dict] | None]


@contextlib.contextmanager
def instrument(tracer: Tracer, hooks: list[Hook]) -> Iterator[None]:
    """Wrap each hooked attribute in a span for the duration of the block."""
    originals = []
    for owner, attr, name, attrs_of in hooks:
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, _wrapped(tracer, original, name, attrs_of))
    try:
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _wrapped(tracer: Tracer, original: Callable, name: str, attrs_of) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        attrs = attrs_of(*args, **kwargs) if attrs_of else {}
        with tracer.span(name, **attrs):
            return original(*args, **kwargs)

    return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.seconds
    return own
