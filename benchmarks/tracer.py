"""In-memory span tracer that wraps functions from outside the traced program.

Each wrapped call records one span: name, start, end, parent span and thread
id, in integer nanoseconds so that self times are exact differences. The
span stack is kept per thread, so calls made on a worker thread never become
children of whatever the main thread is running; a single global stack would
mis-parent them and produce negative self times.

Spans stay in memory and are written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "Span":
        return cls(**obj)


# A counter receives (args, kwargs, result) of a finished call and returns the
# attributes to attach to its span.
Counter = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = Span(span_id, name, start, end, parent, threading.get_ident())
                with self._lock:
                    self.spans.append(span)
            if counter is not None:
                span.attrs.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self, modules: Iterable[object], targets: Iterable[tuple]) -> None:
        """Wrap each target (module, function name, counter) in every module
        namespace that holds the original function object, so that calls
        through `from x import f` bindings are traced as well."""
        modules = list(modules)
        for owner, fname, counter in targets:
            original = getattr(owner, fname)
            wrapped = self.wrap(f"{owner.__name__.rsplit('.', 1)[-1]}.{fname}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)


def self_times_ns(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover.

    Children always run on their parent's thread (per-thread stacks), where
    calls nest, so their intervals are disjoint and lie inside the parent's.
    """
    spans = list(spans)
    covered: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0) + s.duration_ns
    return {s.id: s.duration_ns - covered.get(s.id, 0) for s in spans}


def outermost(spans: Iterable[Span], names: set[str]) -> list[Span]:
    """Spans named in `names` that have no ancestor named in `names`, so
    summing their durations counts nested calls of the set once."""
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out
