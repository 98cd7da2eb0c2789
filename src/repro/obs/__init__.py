"""``repro.obs`` — near-zero-overhead metrics and tracing.

The observability layer every routing surface reports through: a
process-wide :class:`~repro.obs.registry.MetricsRegistry` (counters,
gauges, histograms, pull-style providers) plus a JSON-lines
:class:`~repro.obs.trace.TraceEmitter` for per-stage route events.

**Off by default.**  Instrumented hot paths guard every measurement
with :func:`enabled` — a single module-global read — so the disabled
cost is one boolean check per routing call (benchmarked < 5 % on the
scalar and batch engines; see ``DESIGN.md`` § Observability for the
metric-name catalogue and overhead numbers).  Enable with::

    import repro.obs as obs
    obs.enable()                       # metrics only
    obs.enable(trace="route.jsonl")    # metrics + trace events
    ... route things ...
    print(obs.snapshot())

or from the environment (read once at import): ``BENES_METRICS=1``
turns metrics on, ``BENES_TRACE=<path>`` additionally streams trace
events to ``<path>``.  The CLI surfaces are ``benes metrics`` and the
``--profile`` flag of ``benes route`` / ``benes bench``.

This package deliberately imports nothing from ``repro`` beyond
:mod:`repro.errors`, so any layer (``core``, ``accel``, ``planner``,
``cli``) may instrument itself without import cycles.
"""

from __future__ import annotations

import os
from typing import IO, Optional, Sequence, Union

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_TIME_BOUNDS,
    POW2_BOUNDS,
)
from .spans import (
    Span,
    SpanContext,
    current_context as current_span,
    span,
    start_span,
)
from .trace import TRACE_SCHEMA_VERSION, TraceEmitter

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "TraceEmitter",
    "DEFAULT_TIME_BOUNDS",
    "POW2_BOUNDS",
    "TRACE_SCHEMA_VERSION",
    "current_span",
    "enable",
    "disable",
    "enabled",
    "inc",
    "set_gauge",
    "observe",
    "registry",
    "reset",
    "snapshot",
    "span",
    "start_span",
    "trace_active",
    "trace_event",
    "trace_off",
    "trace_to",
]

_REGISTRY = MetricsRegistry()
_TRACER = TraceEmitter()
_enabled = False


def registry() -> MetricsRegistry:
    """The process-wide metrics registry (always live; instruments
    only accumulate while :func:`enabled` is true)."""
    return _REGISTRY


def enabled() -> bool:
    """True when metrics collection is on.  Hot paths call this once
    per routing pass and skip all instrumentation when false."""
    return _enabled


def enable(trace: Union[str, IO[str], None] = None) -> None:
    """Turn metrics collection on; optionally also direct JSON-lines
    trace events to ``trace`` (a path or an open text file)."""
    global _enabled
    _enabled = True
    if trace is not None:
        _TRACER.configure(trace)


def disable() -> None:
    """Turn metrics collection off and detach any trace sink.
    Accumulated values survive until :func:`reset`."""
    global _enabled
    _enabled = False
    _TRACER.configure(None)


def reset() -> None:
    """Zero every instrument and the trace sequence number."""
    _REGISTRY.reset()
    _TRACER.reset_seq()


def snapshot() -> dict:
    """JSON-ready view of every instrument, including provider pulls
    (e.g. the accel LRU hit/miss stats)."""
    snap = _REGISTRY.snapshot()
    snap["enabled"] = _enabled
    return snap


# ----------------------------------------------------------------------
# Push helpers — each is a no-op unless metrics are enabled, so call
# sites stay single-line.
# ----------------------------------------------------------------------

def inc(name: str, amount: int = 1) -> None:
    """Bump counter ``name`` (no-op while disabled)."""
    if _enabled:
        _REGISTRY.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    if _enabled:
        _REGISTRY.gauge(name).set(value)


def observe(name: str, value: float,
            bounds: Optional[Sequence[float]] = None) -> None:
    """Record ``value`` into histogram ``name`` (no-op while
    disabled).  ``bounds`` only applies on first creation."""
    if _enabled:
        _REGISTRY.histogram(name, bounds).observe(value)


# ----------------------------------------------------------------------
# Trace facade — orthogonal to the metrics flag: a sink may be attached
# without counters (and vice versa).
# ----------------------------------------------------------------------

def trace_to(sink: Union[str, IO[str]]) -> None:
    """Stream trace events to ``sink`` (a path or open text file)."""
    _TRACER.configure(sink)


def trace_off() -> None:
    """Detach the trace sink (closing it if the emitter opened it)."""
    _TRACER.configure(None)


def trace_active() -> bool:
    """True when routing should emit trace events."""
    return _TRACER.active


def trace_event(event: str, **fields) -> None:
    """Emit one JSON-lines trace record (no-op without a sink)."""
    _TRACER.emit(event, **fields)


# Environment opt-in, read once at import: BENES_METRICS truthy turns
# metrics on; BENES_TRACE names a trace sink path.
if os.environ.get("BENES_METRICS", "").strip().lower() in (
        "1", "true", "yes", "on"):
    enable()
if os.environ.get("BENES_TRACE"):
    trace_to(os.environ["BENES_TRACE"])
