"""A synchronous, pipelining client for the ``benes serve`` daemon.

The client speaks exactly the frozen protocol of
:mod:`repro.serve.protocol` — it has no second message shape, no
private dict format; everything it sends and returns is a
:class:`~repro.serve.protocol.RouteRequest` /
:class:`~repro.serve.protocol.RouteResponse`.

:meth:`ServeClient.request_many` **pipelines**: it sends a whole
burst without waiting for answers, which is what lets the daemon
coalesce one client's burst (and many clients' concurrent bursts) into
wide engine batches.  It reads answers while it sends, so a burst
larger than the socket buffers cannot stall a daemon that stops
reading until its answers are read.  Responses arrive in whatever
order their batches complete; the client reorders by correlation id,
so callers always get answers positionally matched to their requests.
"""

from __future__ import annotations

import selectors
import socket
from typing import Dict, List, Optional, Sequence

from ..errors import InvalidParameterError, ProtocolError, ServerBusyError
from . import protocol

__all__ = ["ServeClient"]


class ServeClient:
    """One TCP connection to a routing daemon.

    Usable as a context manager; the socket is opened eagerly so
    connection failures surface at construction, not first use.

    Args:
        host / port: the daemon's bound address
            (:attr:`repro.serve.daemon.DaemonHandle.address`).
        timeout: the longest wait, in seconds, for the daemon to take
            more of a burst or send more answers.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float = 30.0):
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._partial = b""  # the unterminated tail of the answers
        self._next_id = 0

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- core ----------------------------------------------------------

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def request_many(self, requests: Sequence[protocol.RouteRequest]
                     ) -> List[protocol.RouteResponse]:
        """Send every request as one pipelined burst (the shape the
        daemon coalesces), reading answers as they come, then return
        the responses **in request order** regardless of the order
        batches completed in.  Responses are matched by id, so a burst
        that repeats an id raises
        :class:`~repro.errors.InvalidParameterError` before anything
        is sent."""
        if not requests:
            return []
        seen = set()
        for request in requests:
            if request.id in seen:
                raise InvalidParameterError(
                    f"request id {request.id} appears more than once in "
                    "one burst; responses are matched to requests by id")
            seen.add(request.id)
        unsent = memoryview("".join(
            protocol.encode_request(request) + "\n"
            for request in requests).encode("utf-8"))
        by_id: Dict[int, protocol.RouteResponse] = {}
        received = 0
        with selectors.DefaultSelector() as selector:
            selector.register(self._sock, selectors.EVENT_READ
                              | selectors.EVENT_WRITE)
            while received < len(requests):
                ready = selector.select(self._sock.gettimeout())
                if not ready:
                    raise socket.timeout(
                        f"no progress from the daemon ({received} of "
                        f"{len(requests)} responses received)")
                mask = ready[0][1]
                if mask & selectors.EVENT_WRITE:
                    unsent = unsent[self._sock.send(unsent):]
                    if not unsent:
                        selector.modify(self._sock, selectors.EVENT_READ)
                if mask & selectors.EVENT_READ:
                    chunk = self._sock.recv(1 << 16)
                    if not chunk:
                        raise ProtocolError(
                            "connection closed by daemon before all "
                            f"responses arrived ({received} of "
                            f"{len(requests)} received)")
                    *lines, self._partial = \
                        (self._partial + chunk).split(b"\n")
                    for line in lines:
                        response = protocol.decode_response(line)
                        by_id[response.id] = response
                    received += len(lines)
        try:
            return [by_id[request.id] for request in requests]
        except KeyError as exc:
            raise ProtocolError(
                f"daemon response for request id {exc} missing")

    def request(self, request: protocol.RouteRequest
                ) -> protocol.RouteResponse:
        """Send one request, wait for its response."""
        return self.request_many([request])[0]

    # -- convenience wrappers ------------------------------------------

    def route_many(self, rows: Sequence[Sequence[int]], *,
                   omega_mode: bool = False,
                   stuck_switches: Optional[dict] = None,
                   stage_states: bool = False
                   ) -> List[protocol.RouteResponse]:
        """Self-route a burst of tag vectors (one request per row,
        pipelined)."""
        stuck = protocol.stuck_to_wire(stuck_switches)
        return self.request_many([
            protocol.RouteRequest(
                op="route", tags=tuple(int(v) for v in row),
                id=self._take_id(), omega_mode=omega_mode,
                stuck=stuck, stage_states=stage_states)
            for row in rows
        ])

    def route(self, tags: Sequence[int], *, omega_mode: bool = False,
              stuck_switches: Optional[dict] = None,
              stage_states: bool = False) -> protocol.RouteResponse:
        """Self-route one tag vector; raises
        :class:`~repro.errors.ServerBusyError` on backpressure
        rejection."""
        response = self.route_many(
            [tags], omega_mode=omega_mode,
            stuck_switches=stuck_switches,
            stage_states=stage_states)[0]
        if response.status == "rejected":
            raise ServerBusyError(response.error or "server busy")
        return response

    def membership_many(self, rows: Sequence[Sequence[int]]
                        ) -> List[protocol.RouteResponse]:
        """F(n) membership verdicts for a burst of permutations."""
        return self.request_many([
            protocol.RouteRequest(
                op="membership", tags=tuple(int(v) for v in row),
                id=self._take_id())
            for row in rows
        ])

    def packet_many(self, rows: Sequence[Sequence[int]], *,
                    omega_mode: bool = False,
                    stuck_switches: Optional[dict] = None
                    ) -> List[protocol.RouteResponse]:
        """Partial-permutation routing for a burst of dense k-of-N
        call patterns (idle lanes ``-1``); each response carries the
        all-active-lanes verdict and the completed delivered
        mapping."""
        stuck = protocol.stuck_to_wire(stuck_switches)
        return self.request_many([
            protocol.RouteRequest(
                op="packet", tags=tuple(int(v) for v in row),
                id=self._take_id(), omega_mode=omega_mode,
                stuck=stuck)
            for row in rows
        ])

    def setup_many(self, perms: Sequence[Sequence[int]]
                   ) -> List[protocol.RouteResponse]:
        """Universal Waksman setups for a burst of arbitrary
        permutations (states in each response's ``stage_states``)."""
        return self.request_many([
            protocol.RouteRequest(
                op="setup", tags=tuple(int(v) for v in perm),
                id=self._take_id(), stage_states=True)
            for perm in perms
        ])
