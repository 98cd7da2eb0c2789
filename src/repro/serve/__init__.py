"""``repro.serve`` — routing as a service.

The ``benes serve`` daemon turns the repository's batch engines into a
long-lived network service: many concurrent clients send
newline-delimited JSON requests, a coalescing queue micro-batches them
across connections into ``(B, N)`` accel batches, and every response
is byte-identical to what a direct in-process engine call would have
produced (pinned by the verify fuzzer's ``serve`` adapter).

Modules:

- :mod:`~repro.serve.protocol` — the frozen, versioned
  request/response pair and its canonical JSON encoding;
- :mod:`~repro.serve.coalescer` — the synchronous size/latency-cutoff
  batching state machine (fake-clock testable);
- :mod:`~repro.serve.daemon` — the asyncio server, engine dispatch
  through :func:`repro.accel.resolve_engine`, span instrumentation;
- :mod:`~repro.serve.client` — the pipelining sync client;
- :mod:`~repro.serve.lifecycle` — the server-lifecycle contract
  (``SO_REUSEADDR``, clean-interrupt shutdown, observability flush)
  shared with ``benes metrics serve``.
"""

from .client import ServeClient
from .coalescer import CoalescingQueue
from .daemon import (
    DaemonHandle,
    RoutingDaemon,
    ServeConfig,
    serve,
    start_in_thread,
)
from .protocol import (
    PROTOCOL_VERSION,
    RouteRequest,
    RouteResponse,
)

__all__ = [
    "CoalescingQueue",
    "DaemonHandle",
    "PROTOCOL_VERSION",
    "RouteRequest",
    "RouteResponse",
    "RoutingDaemon",
    "ServeClient",
    "ServeConfig",
    "serve",
    "start_in_thread",
]
