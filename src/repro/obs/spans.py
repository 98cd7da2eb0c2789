"""Causally-linked **spans** over the JSON-lines trace stream.

A span is one timed unit of routing work — a batch route, a planner
pass, an executor dispatch, one shard on an executor thread — emitted
as a single ``span`` trace event when it finishes::

    {"ev": "span", "name": "executor.shard", "trace_id": "…",
     "span_id": "…", "parent_id": "…", "start_ts": …, "seconds": …, …}

Spans nest through a :mod:`contextvars` variable: a span opened while
another is active becomes its child (same ``trace_id``, ``parent_id`` =
the enclosing ``span_id``), so ``route -> plan -> shard[i] ->
setup/transit`` reassembles into one tree from the flat stream
(``tools/trace_tree.py`` pretty-prints it).  A thread does not inherit
the context variable, so the shard executor hands each shard thread the
dispatch span's ``(trace_id, span_id)`` and re-roots the shard's spans
under it with :func:`adopt`; events written from many threads still
stitch back into the one tree.

Everything here is inert while no trace sink is configured:
:func:`start_span` returns ``None`` and the :func:`span` context
manager yields ``None`` after a single activity check, preserving the
observability layer's off-by-default cost contract.  Emitted span
counts are tallied under the ``obs.spans.emitted`` counter when
metrics are enabled.
"""

from __future__ import annotations

import contextvars
import functools
import os
import time
from contextlib import contextmanager
from time import perf_counter as _perf_counter
from typing import Optional

__all__ = [
    "SpanContext",
    "Span",
    "adopt",
    "current_context",
    "new_id",
    "span",
    "spanned",
    "start_span",
]


class SpanContext:
    """The identifiers that place one span in its trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str]):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def __repr__(self) -> str:
        return (f"SpanContext(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r}, "
                f"parent_id={self.parent_id!r})")


_CURRENT: "contextvars.ContextVar[Optional[SpanContext]]" = \
    contextvars.ContextVar("benes_current_span", default=None)


def new_id() -> str:
    """A fresh 64-bit hex identifier (collision-safe across processes
    that share one trace file, unlike a per-process counter)."""
    return os.urandom(8).hex()


def current_context() -> Optional[SpanContext]:
    """The active span's context in this thread/task, or ``None``."""
    return _CURRENT.get()


class Span:
    """A started span; call :meth:`finish` exactly once.

    Prefer the :func:`span` context manager; this manual form exists
    for hot paths that cannot wrap their body in a ``with`` block
    without restructuring (e.g. ``BenesNetwork.route``).
    """

    __slots__ = ("name", "context", "fields", "_start_ts", "_t0",
                 "_token", "_done")

    def __init__(self, name: str, context: SpanContext, fields: dict,
                 token: "contextvars.Token"):
        self.name = name
        self.context = context
        self.fields = fields
        self._start_ts = time.time()
        self._t0 = _perf_counter()
        self._token = token
        self._done = False

    def finish(self, **extra) -> None:
        """Emit the ``span`` event and restore the enclosing span.  A
        span finished outside the context that opened it (an asyncio
        callback, say) is still emitted; the finishing context's
        current span is left as it is."""
        if self._done:
            return
        self._done = True
        from . import inc, trace_event

        fields = dict(self.fields)
        fields.update(extra)
        trace_event(
            "span",
            name=self.name,
            trace_id=self.context.trace_id,
            span_id=self.context.span_id,
            parent_id=self.context.parent_id,
            start_ts=self._start_ts,
            seconds=_perf_counter() - self._t0,
            **fields,
        )
        inc("obs.spans.emitted")
        try:
            _CURRENT.reset(self._token)
        except ValueError:
            pass  # the token belongs to another context


def start_span(name: str, **fields) -> Optional[Span]:
    """Open a span as a child of the current one (or a new trace root)
    and make it current; returns ``None`` — and does no work beyond one
    activity check — when no trace sink is configured."""
    from . import trace_active

    if not trace_active():
        return None
    parent = _CURRENT.get()
    context = SpanContext(
        trace_id=parent.trace_id if parent is not None else new_id(),
        span_id=new_id(),
        parent_id=parent.span_id if parent is not None else None,
    )
    token = _CURRENT.set(context)
    return Span(name, context, fields, token)


@contextmanager
def span(name: str, **fields):
    """Context-manager form of :func:`start_span`: yields the
    :class:`Span` (or ``None`` while tracing is off) and finishes it on
    exit, success or not."""
    opened = start_span(name, **fields)
    if opened is None:
        yield None
        return
    try:
        yield opened
    finally:
        opened.finish()


def spanned(name: str):
    """Decorator form of :func:`span` for whole entry points: wraps
    each call of the decorated function in a span named ``name`` while
    a trace sink is active, and costs one activity check per call while
    it is not — cheap enough for the batch engine's public surface."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from . import trace_active

            if not trace_active():
                return fn(*args, **kwargs)
            opened = start_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                opened.finish()
        return wrapper
    return decorate


@contextmanager
def adopt(trace_id: str, span_id: str):
    """Install a parent context by its identifiers — used by executor
    shard threads to re-root their spans under the dispatching thread's
    span.  Children opened inside the block carry ``trace_id`` and
    parent ``span_id`` exactly as if the dispatch span were local."""
    token = _CURRENT.set(SpanContext(trace_id, span_id, None))
    try:
        yield
    finally:
        _CURRENT.reset(token)
