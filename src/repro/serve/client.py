"""A synchronous, pipelining client for the ``benes serve`` daemon.

The client speaks exactly the frozen protocol of
:mod:`repro.serve.protocol` — it has no second message shape, no
private dict format; everything it sends and returns is a
:class:`~repro.serve.protocol.RouteRequest` /
:class:`~repro.serve.protocol.RouteResponse`.

:meth:`ServeClient.request_many` **pipelines**: all request lines go
out before any response line is read, which is what lets the daemon
coalesce one client's burst (and many clients' concurrent bursts) into
wide engine batches.  Responses arrive in whatever order their batches
complete; the client reorders by correlation id, so callers always get
answers positionally matched to their requests.
"""

from __future__ import annotations

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
        timeout: per-socket-operation timeout in seconds.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float = 30.0):
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._next_id = 0

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._sock is not None:
            try:
                self._reader.close()
            except OSError:
                pass
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
        """Send every request before reading any response (one write,
        one pipelined burst — the shape the daemon coalesces), then
        return responses **in request order** regardless of the order
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
        lines = "".join(protocol.encode_request(request) + "\n"
                        for request in requests)
        self._sock.sendall(lines.encode("utf-8"))
        by_id: Dict[int, protocol.RouteResponse] = {}
        for _ in range(len(requests)):
            line = self._reader.readline()
            if not line:
                raise ProtocolError(
                    "connection closed by daemon before all "
                    f"responses arrived ({len(by_id)} of "
                    f"{len(requests)} received)")
            response = protocol.decode_response(line)
            by_id[response.id] = response
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
