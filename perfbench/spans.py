"""In-memory span recorder for traced benchmark runs.

A span is one timed call: its name, start and end (``perf_counter_ns``),
the span that was open when it started (its parent, tracked per task
and thread through a context variable, so ``asyncio.to_thread`` workers
inherit the right parent) and an optional tag such as a batch or query
id.  Spans stay in memory until the run ends; then they become
per-layer metrics (``layers.py``) and a Chrome trace-event file.

The recorder wraps the public calls of each layer from outside the
program (:meth:`Recorder.instrument`), so the program itself carries no
tracing code, and :meth:`Recorder.restore` puts the originals back.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time
import types
from dataclasses import dataclass
from typing import Any, Callable

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    thread: int
    tag: Any = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Collects spans, plus call counters for very hot call sites."""

    def __init__(self):
        self.spans: list[Span] = []
        #: name -> [calls, total ns] for sites recorded as counts only.
        self.counts: dict[str, list[int]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    def span(self, name: str, tag=None) -> "_SpanContext":
        """Context manager recording one span named ``name``."""
        return _SpanContext(self, name, tag)

    def wrap(self, fn: Callable, name: str, tag_of=None,
             count_only: bool = False) -> Callable:
        """``fn`` wrapped to record a span (or a count) per call.

        ``tag_of(args, kwargs)`` computes the span's tag.  ``count_only``
        sites add to :attr:`counts` instead of keeping one span per
        call; use it for calls made hundreds of thousands of times.
        """
        if count_only:
            totals = self.counts.setdefault(name, [0, 0])
            lock = self._lock

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                start = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter_ns() - start
                    with lock:
                        totals[0] += 1
                        totals[1] += elapsed
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of is not None else None
            with _SpanContext(self, name, tag):
                return fn(*args, **kwargs)
        return traced

    # -- patching ----------------------------------------------------------

    def instrument(self, owner, attr: str, name: str, tag_of=None,
                   count_only: bool = False) -> None:
        """Wrap ``owner.attr`` for the rest of the run.

        For a class, the method is replaced on the class that defines
        it.  For a module-level function, every ``repro`` module that
        bound the same function object by import is patched too, so
        ``from x import f`` call sites are traced as well.
        """
        if isinstance(owner, type):
            for klass in owner.__mro__:
                if attr in vars(klass):
                    owner = klass
                    break
            else:
                raise AttributeError(f"{owner.__name__} has no {attr}")
            original = vars(owner)[attr]
            if not isinstance(original, types.FunctionType):
                raise TypeError(f"{owner.__name__}.{attr} is not a plain "
                                "method")
            if getattr(original, "__perfbench__", False):
                return                      # already wrapped via a subclass
            self._replace(owner, attr, original, name, tag_of, count_only)
            return
        original = getattr(owner, attr)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, original, name, tag_of,
                                  count_only)

    def _replace(self, owner, attr, original, name, tag_of, count_only):
        wrapped = self.wrap(original, name, tag_of, count_only)
        wrapped.__perfbench__ = True
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`instrument` patch."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str, tag):
        self.recorder, self.name, self.tag = recorder, name, tag

    def __enter__(self):
        self.span_id = next(self.recorder._ids)
        self.parent = _CURRENT.get()
        self.token = _CURRENT.set(self.span_id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        _CURRENT.reset(self.token)
        self.recorder.spans.append(Span(
            self.span_id, self.parent, self.name, self.start, end,
            threading.get_ident(), self.tag))
        return False


# -- analysis ----------------------------------------------------------------

def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(span.parent, []).append(span)
    return out


def self_time_ns(span: Span, children: list[Span]) -> int:
    """``span``'s duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    intervals = sorted((max(c.start_ns, span.start_ns),
                        min(c.end_ns, span.end_ns)) for c in children)
    covered = 0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration_ns - covered


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` that have no ancestor of the same name."""
    by_id = {s.span_id: s for s in spans}
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(span)
    return out


def chrome_trace(spans: list[Span], origin_ns: int) -> dict:
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
    threads: dict[int, int] = {}
    events = []
    for span in sorted(spans, key=lambda s: s.start_ns):
        tid = threads.setdefault(span.thread, len(threads) + 1)
        args = {"id": span.span_id, "parent": span.parent}
        if span.tag is not None:
            args["tag"] = span.tag
        events.append({
            "name": span.name, "cat": span.name.split(".")[0],
            "ph": "X", "pid": 1, "tid": tid,
            "ts": (span.start_ns - origin_ns) / 1e3,
            "dur": span.duration_ns / 1e3, "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: list[Span],
                       origin_ns: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans, origin_ns), handle, default=str)
