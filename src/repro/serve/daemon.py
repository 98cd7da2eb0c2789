"""The ``benes serve`` routing daemon: asyncio front, accel-batch back.

One stdlib-asyncio TCP server accepts newline-delimited JSON requests
(:mod:`repro.serve.protocol`) from many concurrent clients and feeds
them through the :class:`~repro.serve.coalescer.CoalescingQueue`:
compatible requests read in the same event-loop tick — across
connections — are dispatched as **one** ``(B, N)`` accel batch, so
per-call Python overhead is paid once per batch instead of once per
request (the same amortization :mod:`repro.accel` performs across
batch lanes, lifted to the network edge).

Dispatch is work-conserving, as in the paper's pipelined network
(Section IV), which admits a vector every clock and never holds one
back to wait for others.  The first queued request of a loop tick
schedules one end-of-tick flush (``loop.call_soon``), which pops every
bucket through :meth:`~repro.serve.coalescer.CoalescingQueue.due` (the
queue runs in its zero-wait mode) and routes each batch inline on the
event loop.  While a batch routes the loop reads nothing, so whatever
arrives meanwhile forms the next batch: batches widen under load, and
a lone request waits for no one.

Dataflow per request::

    accept ── split line ── decode ── offer ─┬─ FLUSH ──────┐ (size cutoff)
                                             ├─ QUEUED ─────┤ (end of tick)
                                             │              ├─ engine batch,
                                             │              │  on the loop
                                             │              └─ answer
                                             └─ REJECT ── "rejected"

Each connection is one :class:`asyncio.Protocol`.  It splits request
lines out of what it reads, decodes each inline and answers it from
its batch future's callback, with or without tracing.  Above asyncio's
write-buffer high-water mark a connection stops reading until its
client drains the answers, so a client that reads nothing stops being
read instead of growing the daemon's memory.  A client that
half-closes still gets every answer, and :meth:`RoutingDaemon.stop`
aborts the connections that have not closed a second after it closed
them.

Engine dispatch goes through the engine seam
(:func:`repro.accel.resolve_engine` — explicit config engine >
``BENES_ENGINE`` > auto) once per batch, and the resolved name is
stamped on every response.  A batch whose engine call raises is routed
again lane by lane, so only the lanes that fail on their own answer
``status="error"``: one client's malformed request cannot fail the
requests coalesced with it.

Observability: when a trace sink is active the daemon opens one root
``serve.daemon`` span; every connection (``serve.connection``), request
(``serve.request``) and dispatched batch (``serve.batch``) span adopts
it, so an entire serving session — socket accept through executor
shard — reassembles into **one** trace tree
(``tools/trace_tree.py --max-trees 1``).  Counters: ``serve.requests.
<op>``, ``serve.batches``, ``serve.flush.{size,tick,drain}`` (why each
batch left the coalescer), ``serve.rejected``, ``serve.errors``,
``serve.connections.opened/closed``, ``serve.pauses`` (a connection
stopped reading until its answers drain), ``serve.responses.dropped``
(answers to a client that hung up); histograms ``serve.batch_size``
and ``serve.batch.seconds`` (loop time per batch: engine plus response
building).
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from time import perf_counter as _perf_counter
from typing import Optional, Tuple

from .. import obs as _obs
from ..accel.batch import (
    batch_in_class_f,
    batch_self_route,
)
from ..accel.partial import batch_route_partial
from ..accel.plans import cached_topology, stage_plan
from ..accel.setup import batch_setup_states, setup_plan
from ..accel._np import resolve_engine
from ..core.bits import log2_exact
from ..errors import InvalidParameterError, ProtocolError
from ..obs import spans as _spans
from . import protocol
from .coalescer import FLUSH, REJECT, CoalescingQueue
from .lifecycle import flush_observability

__all__ = [
    "DaemonHandle",
    "RoutingDaemon",
    "ServeConfig",
    "serve",
    "start_in_thread",
]

#: The longest request line the daemon reads, newline not counted.
#: An order-13 route request (about 40 KB) fits; an order-14 one
#: (about 87 KB) does not.
_LINE_LIMIT = 64 * 1024

_OVERSIZED = protocol.error_response(
    "route", -1, f"request line exceeds the {_LINE_LIMIT}-byte limit")

#: Seconds :meth:`RoutingDaemon.stop` lets closed connections flush
#: their answers before it aborts them.
_CLOSE_GRACE = 1.0


@dataclass(frozen=True)
class ServeConfig:
    """Everything a routing daemon needs to run.

    Attributes:
        host / port: bind address; port 0 lets the OS pick (tests and
            the in-thread verification daemon use this).
        max_batch: coalescer size cutoff — also the widest batch an
            engine sees.
        max_wait_us: upper bound, in microseconds, on how long a
            request waits in the coalescer for companions; must be
            ``>= 0``.  The daemon flushes at the end of every
            event-loop tick, which meets any bound, so the value only
            documents the promise.
        queue_limit: total queued requests before backpressure
            rejects.
        engine: fixed execution engine for every batch, or ``None``
            for per-batch auto resolution (precedence: explicit >
            ``BENES_ENGINE`` > auto).
        parallel: passed through to the accel entry points — batches
            above the executor threshold shard across threads.  The
            batch still runs on the event loop, which reads nothing
            until the shards are back.
        warm_orders: stage/setup plan caches to populate before
            accepting traffic, so first requests do not pay the
            plan-build latency.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 64
    max_wait_us: float = 500.0
    queue_limit: int = 4096
    engine: Optional[str] = None
    parallel: object = False
    warm_orders: Tuple[int, ...] = (2, 3, 4, 5, 6)


class RoutingDaemon:
    """The asyncio routing daemon; one instance per listening socket.

    Use :func:`start_in_thread` (tests, benches, the verify adapter)
    or :func:`serve` (the CLI) rather than driving this directly.
    """

    def __init__(self, config: ServeConfig):
        if config.max_wait_us < 0:
            raise InvalidParameterError(
                f"max_wait_us must be >= 0, got {config.max_wait_us}")
        self.config = config
        # Zero-wait mode: every bucket is due at the end of the tick
        # that queued it, which meets any max_wait_us bound.
        self._coalescer = CoalescingQueue(
            max_batch=config.max_batch,
            max_wait=0.0,
            queue_limit=config.queue_limit,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._root: Optional[_spans.Span] = None
        self._root_ids: Optional[Tuple[str, str]] = None
        self._tick_armed = False
        self._transports: set = set()
        self._stopping = False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Warm caches, validate the configured engine, open the root
        span, bind and start accepting."""
        for order in self.config.warm_orders:
            cached_topology(order)
            stage_plan(order)
            setup_plan(order)
        if self.config.engine is not None:
            # Fail at startup, not on the first request: an unknown or
            # unavailable engine is a configuration error.
            resolve_engine(self.config.engine,
                           order=max(self.config.warm_orders or (3,)),
                           batch_size=self.config.max_batch)
        self._root = _spans.start_span(
            "serve.daemon", host=self.config.host,
            max_batch=self.config.max_batch,
            max_wait_us=self.config.max_wait_us,
        )
        if self._root is not None:
            self._root_ids = (self._root.context.trace_id,
                              self._root.context.span_id)
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.config.host,
            self.config.port, reuse_address=True,
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves port 0 binds."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("daemon is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, flush every queued
        request through the engines, write the answers, close the
        connections, finish the root span.  A connection whose client
        leaves its answers unread cannot finish closing; it is aborted
        after :data:`_CLOSE_GRACE` seconds."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
        for _key, items in self._coalescer.drain():
            self._route(items, "drain")
        # The batch futures resolved above scheduled their answers;
        # give the loop one pass to write them before closing.
        await asyncio.sleep(0)
        for transport in list(self._transports):
            try:
                transport.close()
            except Exception:  # noqa: BLE001 - shutdown must proceed
                # A transport that refuses to close is an operational
                # fault worth counting, not worth failing shutdown for.
                _obs.inc("serve.errors")
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _CLOSE_GRACE
        while self._transports and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for transport in list(self._transports):
            transport.abort()
        await asyncio.sleep(0)  # connection_lost of the aborted ones
        if self._server is not None:
            # From Python 3.12.1 on this waits until every connection
            # has dropped, which the closes above see to.
            await self._server.wait_closed()
        if self._root is not None:
            self._root.finish()
            self._root = None
            self._root_ids = None

    async def run_until(self, stop_event: "asyncio.Event") -> None:
        """Serve until ``stop_event`` is set (or cancellation), then
        shut down cleanly — the shared driver under both the CLI
        foreground path and :func:`start_in_thread`."""
        try:
            await stop_event.wait()
        finally:
            await self.stop()

    def _adopt_root(self):
        if self._root_ids is None:
            return nullcontext()
        return _spans.adopt(*self._root_ids)

    # -- coalescing ----------------------------------------------------

    def _submit_nowait(self, request: protocol.RouteRequest):
        """Offer a request to the coalescer; an immediate
        :class:`~repro.serve.protocol.RouteResponse` (rejection) or the
        future its batch will resolve."""
        if self._stopping:
            _obs.inc("serve.rejected")
            return protocol.rejected_response(request)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        verdict, batch = self._coalescer.offer(
            request.coalesce_key(), (request, future), loop.time())
        if verdict == REJECT:
            _obs.inc("serve.rejected")
            return protocol.rejected_response(request)
        if verdict == FLUSH:
            self._route(batch, "size")
        elif not self._tick_armed:
            # call_soon runs after every callback already queued, so
            # each connection woken in this tick offers first.
            self._tick_armed = True
            loop.call_soon(self._flush_tick, loop)
        return future

    def _flush_tick(self, loop: asyncio.AbstractEventLoop) -> None:
        self._tick_armed = False
        for _key, items in self._coalescer.due(loop.time()):
            self._route(items, "tick")

    def _route(self, items, why: str) -> None:
        """Answer one batch that left the coalescer (``why``: ``size``,
        ``tick`` or ``drain``), inline on the event loop."""
        _obs.inc(f"serve.flush.{why}")
        started = _perf_counter() if _obs.enabled() else None
        self._answer(items)
        if started is not None:
            _obs.observe("serve.batch.seconds", _perf_counter() - started)

    def _answer(self, items) -> None:
        requests = [request for request, _future in items]
        try:
            responses = self._run_batch(requests)
        except Exception as exc:  # noqa: BLE001 - every lane must answer
            if len(items) > 1:
                # One malformed lane fails the whole engine call: route
                # each lane alone, so that only the lanes that fail on
                # their own answer an error.
                for item in items:
                    self._answer([item])
                return
            _obs.inc("serve.errors")
            (request,) = requests
            responses = [protocol.error_response(
                request.op, request.id, f"{type(exc).__name__}: {exc}")]
        for (_request, future), response in zip(items, responses):
            if not future.done():
                future.set_result(response)

    # -- engine dispatch (on the event loop) ---------------------------

    def _run_batch(self, requests) -> list:
        head = requests[0]
        rows = [request.tags for request in requests]
        order = log2_exact(len(head.tags))
        kind = "setup" if head.op == "setup" else "route"
        engine = resolve_engine(self.config.engine, order=order,
                                batch_size=len(rows), kind=kind)
        with self._adopt_root(), \
                _spans.span("serve.batch", op=head.op,
                            batch_size=len(rows), engine=engine):
            if head.op == "route":
                result = batch_self_route(
                    rows, omega_mode=head.omega_mode,
                    stuck_switches=head.stuck_switches,
                    stage_states=head.stage_states,
                    parallel=self.config.parallel, engine=engine)
                responses = [
                    protocol.from_batch_result(request, result, index,
                                               engine)
                    for index, request in enumerate(requests)
                ]
            elif head.op == "membership":
                mask = batch_in_class_f(
                    rows, parallel=self.config.parallel, engine=engine)
                responses = [
                    protocol.from_membership_mask(request, mask, index,
                                                  engine)
                    for index, request in enumerate(requests)
                ]
            elif head.op == "packet":
                result = batch_route_partial(
                    rows, omega_mode=head.omega_mode,
                    stuck_switches=head.stuck_switches,
                    parallel=self.config.parallel, engine=engine)
                responses = [
                    protocol.from_partial_result(request, result,
                                                 index, engine)
                    for index, request in enumerate(requests)
                ]
            else:
                states = batch_setup_states(
                    order, rows, parallel=self.config.parallel,
                    engine=engine)
                responses = [
                    protocol.from_setup_states(request, states, index,
                                               engine)
                    for index, request in enumerate(requests)
                ]
        _obs.inc("serve.batches")
        _obs.observe("serve.batch_size", len(rows))
        return responses


class _Connection(asyncio.Protocol):
    """One client connection: splits request lines out of the byte
    stream, answers each from its batch future, and stops reading while
    the client leaves its answers unread."""

    def __init__(self, daemon: RoutingDaemon):
        self._daemon = daemon
        self._transport: Optional[asyncio.Transport] = None
        self._partial = b""       # the unterminated tail of the stream
        self._skipping = False    # inside an over-long line
        self._outstanding = 0     # requests waiting for their batch
        self._eof = False
        self._span: Optional[_spans.Span] = None
        self._context: Optional[contextvars.Context] = None

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._daemon._transports.add(transport)
        _obs.inc("serve.connections.opened")
        with self._daemon._adopt_root():
            self._span = _spans.start_span("serve.connection")
            if self._span is not None:
                # Each request span opens in its own copy of this
                # context: a child of the connection, current nowhere
                # else, so later requests do not nest under it.
                self._context = contextvars.copy_context()

    def connection_lost(self, exc) -> None:
        self._daemon._transports.discard(self._transport)
        if self._span is not None:
            self._span.finish()
        _obs.inc("serve.connections.closed")

    def pause_writing(self) -> None:
        _obs.inc("serve.pauses")
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()

    def data_received(self, data: bytes) -> None:
        *lines, self._partial = (self._partial + data).split(b"\n")
        for line in lines:
            if self._skipping:
                self._skipping = False  # the end of an over-long line
            elif len(line) > _LINE_LIMIT:
                self._reject_oversized()
            elif line.strip():
                self._request(line)
        if len(self._partial) > _LINE_LIMIT:
            # Answer before the newline arrives, and drop the rest of
            # the line as it comes.
            if not self._skipping:
                self._reject_oversized()
            self._skipping, self._partial = True, b""

    def eof_received(self) -> bool:
        if not self._skipping and self._partial.strip():
            self._request(self._partial)  # a last unterminated line
        self._partial = b""
        self._eof = True
        # Keep the write side open until the last answer is written.
        return self._outstanding > 0

    def _reject_oversized(self) -> None:
        _obs.inc("serve.errors")
        self._answer(_OVERSIZED)

    def _request(self, line: bytes) -> None:
        """Decode one request line and answer it: at once when it is
        malformed or rejected, else when its batch resolves."""
        try:
            request = protocol.decode_request(line)
        except ProtocolError as exc:
            _obs.inc("serve.errors")
            self._answer(protocol.error_response("route", -1, str(exc)))
            return
        _obs.inc(f"serve.requests.{request.op}")
        opened = context = None
        if self._context is not None:
            context = self._context.copy()
            opened = context.run(_spans.start_span, "serve.request",
                                 op=request.op, n=len(request.tags))
        outcome = self._daemon._submit_nowait(request)
        if isinstance(outcome, protocol.RouteResponse):
            self._answer(outcome, opened)
            return
        self._outstanding += 1
        outcome.add_done_callback(partial(self._deliver, opened),
                                  context=context)

    def _deliver(self, opened: Optional[_spans.Span],
                 future: "asyncio.Future") -> None:
        self._outstanding -= 1
        self._answer(future.result(), opened)
        if self._eof and not self._outstanding:
            self._transport.close()

    def _answer(self, response: protocol.RouteResponse,
                opened: Optional[_spans.Span] = None) -> None:
        if self._transport.is_closing():
            _obs.inc("serve.responses.dropped")  # nobody left to read it
        else:
            self._transport.write(
                (protocol.encode_response(response) + "\n")
                .encode("utf-8"))
        if opened is not None:
            opened.finish(status=response.status)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------

class DaemonHandle:
    """A daemon running in a background thread: ``address`` to connect,
    ``stop()`` to shut it down (idempotent)."""

    def __init__(self, holder: dict, thread: threading.Thread):
        self._holder = holder
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self._holder["address"]

    def stop(self, timeout: float = 15.0) -> None:
        loop = self._holder.get("loop")
        stop_event = self._holder.get("stop_event")
        if loop is not None and stop_event is not None \
                and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closing
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(config: ServeConfig) -> DaemonHandle:
    """Run a daemon on a dedicated event-loop thread and block until it
    accepts connections — the harness tests, benches and the verify
    fuzzer's ``serve`` adapter use.  Raises whatever :meth:`start`
    raised (bad engine, unbindable port) instead of returning a dead
    handle."""
    holder: dict = {}
    started = threading.Event()

    def runner() -> None:
        async def main() -> None:
            daemon = RoutingDaemon(config)
            try:
                await daemon.start()
            except BaseException as exc:
                holder["error"] = exc
                started.set()
                return
            holder["loop"] = asyncio.get_running_loop()
            holder["stop_event"] = asyncio.Event()
            holder["address"] = daemon.address
            started.set()
            await daemon.run_until(holder["stop_event"])

        try:
            asyncio.run(main())
        except BaseException as exc:  # pragma: no cover - defensive
            holder.setdefault("error", exc)
            started.set()

    thread = threading.Thread(target=runner, name="benes-serve",
                              daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("benes serve daemon failed to start "
                           "within 30s")
    if "error" in holder:
        raise holder["error"]
    return DaemonHandle(holder, thread)


def serve(config: ServeConfig) -> Tuple[str, int]:
    """The blocking CLI entry: run the daemon in the foreground until
    KeyboardInterrupt, then shut down cleanly and flush observability
    (the one lifecycle contract shared with ``benes metrics serve``)."""
    address: dict = {}

    async def main() -> None:
        daemon = RoutingDaemon(config)
        await daemon.start()
        address["address"] = daemon.address
        host, port = daemon.address
        print(f"benes serve: listening on {host}:{port} "
              f"(max_batch={config.max_batch}, "
              f"max_wait_us={config.max_wait_us:g})", flush=True)
        await daemon.run_until(asyncio.Event())

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        flush_observability()
    return address.get("address", (config.host, config.port))
