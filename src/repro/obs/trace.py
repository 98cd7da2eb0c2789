"""Structured JSON-lines trace events.

A trace is a flat stream of one-line JSON records written to a
configured sink (a path or an open text file, e.g. ``sys.stderr`` for
``benes route D --profile``).  Routing emits four event kinds:

- ``route_start`` — a vector entered the network (size, mode, tags);
- ``stage`` — one switch column fired (its control bit, the states it
  took, how many switches crossed);
- ``deliver`` — the vector left the network (success, realized
  mapping, wall time);
- ``span`` — a finished unit of timed work carrying
  ``trace_id``/``span_id``/``parent_id`` so the flat stream reassembles
  into a causal tree (see :mod:`repro.obs.spans` and
  ``tools/trace_tree.py``).

Every record carries the schema version, a wall-clock timestamp and a
per-process monotonically increasing ``seq`` so interleaved writers
remain sortable; non-span records emitted while a span is active are
additionally stamped with its ``trace_id``/``span_id``.

**Multi-process safety.**  A path sink is opened with ``O_APPEND`` and
every record is serialized to one buffer written by a single
``os.write`` call — on POSIX, appends of a whole buffer to a regular
file do not interleave mid-line, so several processes given the same
``BENES_TRACE`` path may share one trace file and every line still
parses as JSON.  Threads of one process (the shard executor's shards)
serialize through the emitter's lock.  File-object sinks get the same
one-``write``-per-record discipline plus an immediate flush, so a
crashed process loses at most the record being written.

The emitter is inert until :func:`repro.obs.trace_to` (or
``repro.obs.enable(trace=...)`` / ``BENES_TRACE=<path>``) configures a
sink; with no sink, :meth:`TraceEmitter.emit` is a single attribute
check.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import IO, Optional, Union

__all__ = ["TRACE_SCHEMA_VERSION", "TraceEmitter"]

#: Bumped whenever an event's required fields change.  v2: ``span``
#: events and span-context stamping of enclosed records.
TRACE_SCHEMA_VERSION = 2


class TraceEmitter:
    """Serializes trace events to one JSON line each."""

    def __init__(self):
        self._lock = threading.Lock()
        self._sink: Optional[IO[str]] = None
        self._fd: Optional[int] = None
        self._seq = 0

    @property
    def active(self) -> bool:
        """True when a sink is configured and events will be written."""
        return self._sink is not None or self._fd is not None

    def configure(self, sink: Union[str, IO[str], None]) -> None:
        """Direct events to ``sink`` — a path (opened ``O_APPEND`` for
        atomic multi-process line writes) or an open text file;
        ``None`` disables tracing and closes any emitter-owned file."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
            self._sink = None
            self._fd = None
            if isinstance(sink, str):
                self._fd = os.open(
                    sink, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            else:
                self._sink = sink

    def emit(self, event: str, **fields) -> None:
        """Write one event record; a no-op without a configured sink.

        ``fields`` must be JSON-serializable; tuples become lists.
        Records other than ``span`` events inherit the active span's
        ``trace_id``/``span_id`` (explicit fields win), linking
        per-stage events to their enclosing span.
        """
        if self._sink is None and self._fd is None:
            return
        if event != "span":
            from .spans import current_context

            context = current_context()
            if context is not None:
                fields.setdefault("trace_id", context.trace_id)
                fields.setdefault("span_id", context.span_id)
        with self._lock:
            if self._sink is None and self._fd is None:
                return  # configure(None) raced us
            self._seq += 1
            record = {
                "v": TRACE_SCHEMA_VERSION,
                "seq": self._seq,
                "ts": time.time(),
                "ev": event,
            }
            record.update(fields)
            line = json.dumps(record, separators=(",", ":"),
                              default=_jsonable) + "\n"
            if self._fd is not None:
                # One write() of the whole line to an O_APPEND fd:
                # atomic on POSIX regular files, so processes sharing
                # the file never interleave mid-line.
                os.write(self._fd, line.encode("utf-8"))
            else:
                self._sink.write(line)
                self._sink.flush()

    def reset_seq(self) -> None:
        with self._lock:
            self._seq = 0


def _jsonable(value):
    """Last-resort encoder: IntEnums and NumPy scalars to int, other
    unknown objects to their repr."""
    try:
        return int(value)
    except (TypeError, ValueError):
        return repr(value)
