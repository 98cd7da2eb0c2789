"""Routing-as-a-service: protocol, coalescer, daemon, client.

Four layers, and how each is tested:

- **protocol** — pure-function roundtrips and validation (the frozen
  schema is the contract every other layer builds on);
- **coalescer** — the synchronous state machine driven with a fake
  clock (``now`` is just a float argument);
- **daemon** — end-to-end over real sockets: concurrent clients,
  byte-identical parity against direct in-process engine calls on
  every engine and op, work-conserving dispatch (no wait for company,
  arrivals during a batch form the next one), a malformed lane failing
  alone, backpressure rejection, over-long lines, disconnects and
  shutdown with requests in flight, clients that read nothing or
  half-close, counters, and the single-trace-tree invariant checked
  by ``tools/trace_tree.py``;
- **client** — against stub servers: shed requests, repeated ids, and
  a burst that outgrows the socket buffers.
"""

from __future__ import annotations

import asyncio
import contextlib
import enum
import json
import pathlib
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.obs as obs
from repro.accel import (
    batch_in_class_f,
    batch_route_partial,
    batch_self_route,
    have_numpy,
)
from repro.accel._np import resolve_engine
from repro.accel.setup import batch_setup_states
from repro.core import BenesNetwork, Permutation, random_permutation
from repro.core.fastpath import fast_self_route
from repro.core.membership import in_class_f
from repro.errors import (
    InvalidParameterError,
    ProtocolError,
    ServerBusyError,
)
from repro.serve import (
    CoalescingQueue,
    ServeClient,
    ServeConfig,
    start_in_thread,
)
from repro.serve import protocol
from repro.serve.coalescer import FLUSH, QUEUED, REJECT
from repro.serve.daemon import RoutingDaemon

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(autouse=True)
def _obs_clean():
    yield
    obs.disable()
    obs.reset()


def _daemon(**overrides):
    defaults = dict(port=0, max_batch=8, max_wait_us=2000.0,
                    warm_orders=(2, 3))
    defaults.update(overrides)
    return start_in_thread(ServeConfig(**defaults))


def _line(op, row, request_id) -> bytes:
    request = protocol.RouteRequest(op=op, tags=row, id=request_id)
    return (protocol.encode_request(request) + "\n").encode("utf-8")


def _unread_burst(address, count):
    """Connect and send ``count`` order-8 route requests with states,
    reading nothing.  Returns the socket once the daemon has taken the
    whole burst or a send has waited 0.5 s in vain."""
    row = tuple(reversed(range(256)))
    payload = "".join(
        protocol.encode_request(protocol.RouteRequest(
            op="route", tags=row, id=index, stage_states=True)) + "\n"
        for index in range(count)).encode("utf-8")
    sock = socket.create_connection(address, timeout=0.5)
    unsent = memoryview(payload)
    try:
        while unsent:
            unsent = unsent[sock.send(unsent):]
    except socket.timeout:
        pass  # the daemon stopped reading
    return sock


def _counter_when_settled(name, quiet=0.25, limit=30.0):
    """The counter ``name`` once it is non-zero and has held still for
    ``quiet`` seconds, or after ``limit`` seconds."""
    deadline = time.monotonic() + limit
    value = None
    while time.monotonic() < deadline:
        time.sleep(quiet)
        value, previous = obs.snapshot()["counters"].get(name, 0), value
        if value and value == previous:
            break
    return value


@contextlib.contextmanager
def _stub_server(answer, rcvbuf=None):
    """A one-connection stand-in for the daemon: every request line it
    reads is answered with ``answer(request)``, or not at all when
    ``answer`` is ``None``.  Yields ``(address, received)``; the bytes
    read accumulate in ``received`` until the client hangs up.
    ``rcvbuf`` sets the listening socket's ``SO_RCVBUF``, which the
    accepted connection inherits."""
    listener = socket.socket()
    if rcvbuf is not None:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    received = bytearray()

    def run():
        conn, _peer = listener.accept()
        with conn, conn.makefile("rb") as lines:
            for line in lines:
                received.extend(line)
                if answer is not None:
                    response = answer(protocol.decode_request(line))
                    conn.sendall((protocol.encode_response(response)
                                  + "\n").encode("utf-8"))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2], received
    finally:
        thread.join(timeout=30.0)
        listener.close()
    assert not thread.is_alive()


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_request_roundtrip(self):
        request = protocol.RouteRequest(
            op="route", tags=(3, 1, 2, 0), id=7, omega_mode=True,
            stuck=((2, 1, 1), (0, 0, 0)), stage_states=True)
        line = protocol.encode_request(request)
        assert protocol.decode_request(line) == request

    def test_stuck_normalized_sorted(self):
        request = protocol.RouteRequest(
            op="route", tags=(0, 1), stuck=[(3, 0, 1), (1, 2, 0)])
        assert request.stuck == ((1, 2, 0), (3, 0, 1))
        as_map = request.stuck_switches
        assert as_map == {(3, 0): True, (1, 2): False}
        assert protocol.stuck_to_wire(as_map) == request.stuck

    def test_encoding_is_canonical(self):
        # Same message, one byte form: key order cannot vary.
        a = protocol.encode_request(
            protocol.RouteRequest(op="route", tags=(1, 0), id=3))
        b = protocol.encode_request(
            protocol.RouteRequest(id=3, tags=(1, 0), op="route"))
        assert a == b
        assert " " not in a

    def test_unknown_request_field_rejected(self):
        line = json.dumps({"op": "route", "tags": [0, 1], "zap": 1})
        with pytest.raises(ProtocolError):
            protocol.decode_request(line)

    @pytest.mark.parametrize("line", [
        "not json",
        "[1,2,3]",
        json.dumps({"op": "route"}),                    # no tags
        json.dumps({"op": "warp", "tags": [0, 1]}),     # bad op
        json.dumps({"op": "route", "tags": []}),        # empty tags
        json.dumps({"op": "route", "tags": [0, "x"]}),  # non-int tag
        json.dumps({"op": "route", "tags": [0, 1], "v": 99}),
        json.dumps({"op": "route", "tags": [0, 1],
                    "stuck": [[1, 2]]}),                # not a triple
        json.dumps({"op": "route", "tags": [True, False]}),  # bool tags
        json.dumps({"op": "route", "tags": [0.0, 1.0]}),     # float tags
        json.dumps({"op": "route", "tags": [0, 1],
                    "stuck": [[1, 0, True]]}),          # bool in triple
    ])
    def test_malformed_requests_raise(self, line):
        with pytest.raises(ProtocolError):
            protocol.decode_request(line)

    def test_int_vector_validation(self):
        # The fast exact-type scan must neither pass bool (an int
        # subclass) nor refuse other int subclasses, and a failing
        # check keeps its message.
        class Tag(enum.IntEnum):
            ONE = 1

        request = protocol.RouteRequest(op="route", tags=[Tag.ONE, 0])
        assert request.tags == (1, 0)
        for bad in ([True, 0], [1.0, 0], [0, None], ["0", 1]):
            with pytest.raises(ProtocolError,
                               match="^tags must contain only integers$"):
                protocol.RouteRequest(op="route", tags=bad)
        for bad in ([], (), "01", None):
            with pytest.raises(ProtocolError, match="non-empty list"):
                protocol.RouteRequest(op="route", tags=bad)
        with pytest.raises(ProtocolError,
                           match="^mapping must contain only integers$"):
            protocol.RouteResponse(op="route", id=0, mapping=[0, False])

    def test_response_roundtrip_omits_none_fields(self):
        response = protocol.RouteResponse(
            op="route", id=2, success=True, mapping=(1, 0),
            engine="numpy")
        line = protocol.encode_response(response)
        assert "per_stage" not in line and "error" not in line
        assert protocol.decode_response(line) == response

    def test_rejected_response_shape(self):
        request = protocol.RouteRequest(op="route", tags=(0, 1), id=9)
        rejected = protocol.rejected_response(request)
        assert rejected.status == "rejected"
        assert rejected.id == 9
        assert "busy" in rejected.error

    def test_coalesce_key_separates_incompatible_requests(self):
        base = protocol.RouteRequest(op="route", tags=(0, 1, 2, 3))
        assert base.coalesce_key() == protocol.RouteRequest(
            op="route", tags=(3, 2, 1, 0)).coalesce_key()
        for other in (
            protocol.RouteRequest(op="membership", tags=(0, 1, 2, 3)),
            protocol.RouteRequest(op="route", tags=(0, 1)),
            protocol.RouteRequest(op="route", tags=(0, 1, 2, 3),
                                  omega_mode=True),
            protocol.RouteRequest(op="route", tags=(0, 1, 2, 3),
                                  stuck=((0, 0, 1),)),
            protocol.RouteRequest(op="route", tags=(0, 1, 2, 3),
                                  stage_states=True),
        ):
            assert base.coalesce_key() != other.coalesce_key()

    def test_from_batch_result_slices_one_lane(self):
        rows = [(3, 1, 2, 0), (0, 1, 2, 3), (1, 0, 3, 2)]
        result = batch_self_route(rows, stage_states=True)
        for index, row in enumerate(rows):
            request = protocol.RouteRequest(op="route", tags=row,
                                            id=index,
                                            stage_states=True)
            response = protocol.from_batch_result(request, result,
                                                  index, "numpy")
            ok, dst = fast_self_route(row)
            assert response.success == ok
            assert response.mapping == dst
            assert response.stage_states is not None
            assert response.engine == "numpy"


# ----------------------------------------------------------------------
# Coalescer (fake clock)
# ----------------------------------------------------------------------

class TestCoalescer:
    def test_size_cutoff_flushes_immediately(self):
        queue = CoalescingQueue(max_batch=3, max_wait=1.0)
        assert queue.offer("k", "a", now=0.0) == (QUEUED, None)
        assert queue.offer("k", "b", now=0.0) == (QUEUED, None)
        verdict, batch = queue.offer("k", "c", now=0.0)
        assert verdict == FLUSH
        assert batch == ["a", "b", "c"]
        assert queue.pending == 0

    def test_latency_cutoff_uses_first_arrival(self):
        queue = CoalescingQueue(max_batch=100, max_wait=0.5)
        queue.offer("k", "a", now=10.0)
        queue.offer("k", "b", now=10.4)  # straggler does not extend
        assert queue.next_deadline() == pytest.approx(10.5)
        assert queue.due(now=10.49) == []
        due = queue.due(now=10.5)
        assert due == [("k", ["a", "b"])]
        assert queue.pending == 0
        assert queue.next_deadline() is None

    def test_keys_batch_independently(self):
        queue = CoalescingQueue(max_batch=2, max_wait=1.0)
        queue.offer("route", "r1", now=0.0)
        queue.offer("setup", "s1", now=0.2)
        verdict, batch = queue.offer("route", "r2", now=0.3)
        assert verdict == FLUSH and batch == ["r1", "r2"]
        # the setup bucket still waits on its own deadline
        assert queue.pending == 1
        assert queue.next_deadline() == pytest.approx(1.2)

    def test_backpressure_rejects_and_preserves_queue(self):
        queue = CoalescingQueue(max_batch=10, max_wait=1.0,
                                queue_limit=2)
        assert queue.offer("k", "a", now=0.0)[0] == QUEUED
        assert queue.offer("k", "b", now=0.0)[0] == QUEUED
        assert queue.offer("k", "c", now=0.0) == (REJECT, None)
        assert queue.pending == 2  # rejected item was not queued
        assert queue.due(now=2.0) == [("k", ["a", "b"])]

    def test_full_bucket_accepted_and_flushed_at_limit(self):
        # regression: an offer landing at queue_limit used to be shed
        # even when it completed a full bucket that flushes in the same
        # call — the capacity it occupies frees immediately
        queue = CoalescingQueue(max_batch=3, max_wait=1.0,
                                queue_limit=3)
        assert queue.offer("k", "a", now=0.0)[0] == QUEUED
        assert queue.offer("k", "b", now=0.0)[0] == QUEUED
        assert queue.offer("other", "x", now=0.0)[0] == QUEUED
        assert queue.pending == 3  # at the limit
        verdict, batch = queue.offer("k", "c", now=0.0)
        assert verdict == FLUSH
        assert batch == ["a", "b", "c"]
        assert queue.pending == 1  # only the other bucket remains
        # back at the limit, an offer that would NOT complete a
        # bucket is still shed
        assert queue.offer("two", "y", now=0.0)[0] == QUEUED
        assert queue.offer("three", "z", now=0.0)[0] == QUEUED
        assert queue.pending == 3
        assert queue.offer("fresh", "f", now=0.0) == (REJECT, None)
        assert queue.offer("two", "w", now=0.0) == (REJECT, None)
        assert queue.pending == 3

    def test_zero_wait_flushes_on_next_tick(self):
        # max_wait=0 pins the immediate-flush semantics: offer still
        # answers QUEUED (size is the only flush reason inside offer),
        # but the bucket is due the moment the driver ticks
        queue = CoalescingQueue(max_batch=10, max_wait=0.0)
        assert queue.offer("k", "a", now=5.0) == (QUEUED, None)
        assert queue.next_deadline() == pytest.approx(5.0)
        assert queue.due(now=5.0) == [("k", ["a"])]
        assert queue.pending == 0

    def test_drain_pops_everything(self):
        queue = CoalescingQueue(max_batch=10, max_wait=60.0)
        queue.offer("a", 1, now=0.0)
        queue.offer("b", 2, now=0.0)
        drained = dict(queue.drain())
        assert drained == {"a": [1], "b": [2]}
        assert queue.pending == 0

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0}, {"max_wait": -1.0}, {"queue_limit": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            CoalescingQueue(**kwargs)


# ----------------------------------------------------------------------
# Daemon end-to-end
# ----------------------------------------------------------------------

class TestDaemon:
    def test_concurrent_clients_coalesce_correctly(self, rng):
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(8)]
        expected = [fast_self_route(row) for row in rows]
        outcomes: dict = {}
        with _daemon(max_batch=16) as handle:
            host, port = handle.address

            def worker(index):
                with ServeClient(host, port) as client:
                    outcomes[index] = client.route_many(rows)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert sorted(outcomes) == [0, 1, 2]
        for responses in outcomes.values():
            for response, (ok, dst) in zip(responses, expected):
                assert response.status == "ok"
                assert response.success == ok
                assert response.mapping == dst

    @pytest.mark.parametrize("op", ["route", "membership", "packet",
                                    "setup"])
    @pytest.mark.parametrize("engine", [
        None, "scalar", "bitslice",
        pytest.param("numpy", marks=pytest.mark.skipif(
            not have_numpy(), reason="needs NumPy")),
    ], ids=["auto", "scalar", "bitslice", "numpy"])
    def test_coalesced_responses_byte_identical_to_direct(self, rng,
                                                          engine, op):
        """The tentpole parity claim: what the daemon sends over the
        wire for a coalesced batch is byte-for-byte what the op's
        ``from_*`` builder yields on a direct call to the same engine
        (the NumPy engine takes the builders' array branch, the others
        their pure-Python branch)."""
        order, batch = 3, 6
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(batch)]
        if op == "packet":
            # idle lanes -1, k = 0..5 active calls per row
            rows = [tuple(dst if src < index else -1
                          for src, dst in enumerate(row))
                    for index, row in enumerate(rows)]
        requests = [
            protocol.RouteRequest(op=op, tags=row, id=index + 1,
                                  stage_states=op == "route")
            for index, row in enumerate(rows)
        ]
        with _daemon(max_batch=batch, engine=engine) as handle:
            host, port = handle.address
            with socket.create_connection((host, port),
                                          timeout=30.0) as sock:
                payload = "".join(
                    protocol.encode_request(request) + "\n"
                    for request in requests)
                sock.sendall(payload.encode("utf-8"))
                reader = sock.makefile("rb")
                wire_lines = [reader.readline() for _ in requests]
        engine = resolve_engine(engine, order=order, batch_size=batch,
                                kind="setup" if op == "setup" else "route")
        if op == "route":
            direct = batch_self_route(rows, stage_states=True,
                                      engine=engine)
            build = protocol.from_batch_result
        elif op == "membership":
            direct = batch_in_class_f(rows, engine=engine)
            build = protocol.from_membership_mask
        elif op == "packet":
            direct = batch_route_partial(rows, engine=engine)
            build = protocol.from_partial_result
        else:
            direct = batch_setup_states(order, rows, engine=engine)
            build = protocol.from_setup_states
        by_id = {}
        for line in wire_lines:
            by_id[protocol.decode_response(line).id] = line
        for index, request in enumerate(requests):
            expected = (protocol.encode_response(
                build(request, direct, index, engine)) + "\n") \
                .encode("utf-8")
            assert by_id[request.id] == expected

    def test_membership_and_setup_ops(self, rng):
        perms = [random_permutation(8, rng).as_tuple()
                 for _ in range(5)]
        with _daemon() as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                membership = client.membership_many(perms)
                setups = client.setup_many(perms)
        for response, perm in zip(membership, perms):
            assert response.status == "ok"
            assert response.success == in_class_f(perm)
        direct = batch_setup_states(3, perms)
        for index, response in enumerate(setups):
            assert response.status == "ok"
            assert response.success is True
            assert response.stage_states == tuple(
                tuple(int(s) for s in column)
                for column in direct[index]
            )

    def test_setup_states_realize_permutation(self, rng):
        perm = random_permutation(8, rng)
        with _daemon() as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                response = client.setup_many([perm.as_tuple()])[0]
        net = BenesNetwork(3)
        realized = net.route_with_states(
            [list(column) for column in response.stage_states]
        ).realized
        assert realized == perm

    def test_fault_injection_over_the_wire(self, rng):
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(4)]
        stuck = {(1, 0): True, (4, 3): False}
        with _daemon() as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                responses = client.route_many(rows,
                                              stuck_switches=stuck)
        direct = batch_self_route(rows, stuck_switches=stuck)
        for index, response in enumerate(responses):
            assert response.success == bool(
                direct.success_mask[index])
            assert response.mapping == tuple(
                int(v) for v in direct.mappings[index])

    def test_backpressure_rejection_over_the_wire(self):
        # queue_limit=1: in one pipelined burst the first request
        # queues, the rest are shed with status="rejected"; the long
        # latency window guarantees they arrive before the flush.
        with _daemon(max_batch=64, max_wait_us=200_000.0,
                     queue_limit=1) as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                responses = client.route_many(
                    [(3, 1, 2, 0), (0, 1, 2, 3), (1, 0, 3, 2)])
        statuses = [response.status for response in responses]
        assert statuses[0] == "ok"
        assert statuses[1] == statuses[2] == "rejected"

    def test_client_route_raises_server_busy(self):
        # A shed request makes route() raise.  The server is a stub
        # that sheds everything; the daemon's own shedding is
        # test_backpressure_rejection_over_the_wire.
        with _stub_server(protocol.rejected_response) as (address, _):
            with ServeClient(*address) as client:
                with pytest.raises(ServerBusyError):
                    client.route((0, 1, 2, 3))

    def test_request_many_refuses_repeated_ids(self):
        # Responses are matched to requests by id, so a repeated id
        # would hand both requests one answer: refuse the burst before
        # any byte is sent.
        requests = [protocol.RouteRequest(op="route", tags=row, id=7)
                    for row in ((3, 1, 2, 0), (0, 1, 3, 2))]
        with _stub_server(None) as (address, received):
            with ServeClient(*address, timeout=5.0) as client:
                with pytest.raises(InvalidParameterError,
                                   match="request id 7 "):
                    client.request_many(requests)
        assert received == b""

    def test_request_many_reads_while_it_sends(self):
        # A server that answers each line before it reads the next
        # stops reading while its answers go unread; a client that
        # sent its whole burst before reading would wait on it forever.
        padding = "x" * 65536
        rows = [tuple(range(1024))] * 1000
        with _stub_server(
                lambda request: protocol.error_response(
                    request.op, request.id, padding),
                rcvbuf=4096) as (address, _):
            with ServeClient(*address, timeout=5.0) as client:
                responses = client.route_many(rows)
        assert len(responses) == len(rows)
        assert all(response.error == padding for response in responses)

    @pytest.mark.parametrize("op, bad", [
        ("route", (0, 1, 2, 9)),          # tag outside [0, N)
        ("route", (0, 1, 2, 2 ** 70)),    # tag too wide for NumPy
        ("membership", (0, 1, 2, -1)),    # tag outside [0, N)
        ("packet", (1, 1, -1, -1)),       # duplicate destination
        ("setup", (0, 0, 1, 2)),          # not a permutation
    ])
    def test_malformed_lane_fails_alone(self, op, bad):
        """A batch that one malformed request fails is answered lane by
        lane: every request gets the answer it gets when sent alone, so
        the valid ones coalesced with it succeed, and ``serve.errors``
        counts only the lanes that fail."""
        obs.enable()
        rows = [(3, -1, 2, -1) if op == "packet" else (3, 1, 2, 0), bad,
                (0, 1, 2, 3)]
        requests = [protocol.RouteRequest(op=op, tags=row, id=index + 1,
                                          stage_states=op == "setup")
                    for index, row in enumerate(rows)]
        with _daemon() as handle:
            with ServeClient(*handle.address) as client:
                burst = client.request_many(requests)
                errors = obs.snapshot()["counters"].get("serve.errors", 0)
                alone = [client.request(request) for request in requests]
        assert burst == alone
        assert burst[0].status == burst[2].status == "ok"
        assert errors == sum(r.status == "error" for r in burst)

    def test_lone_request_does_not_wait_for_max_wait(self):
        # max_wait_us is an upper bound that the end-of-tick flush
        # always meets: a lone request is routed at once, not 10 s on.
        with _daemon(max_wait_us=10_000_000.0) as handle:
            with ServeClient(*handle.address, timeout=5.0) as client:
                started = time.monotonic()
                response = client.route((3, 1, 2, 0))
                elapsed = time.monotonic() - started
        assert response.status == "ok"
        assert response.mapping == fast_self_route((3, 1, 2, 0))[1]
        assert elapsed < 1.0

    def test_requests_arriving_while_a_batch_routes_join_the_next(
            self, monkeypatch):
        """While a batch routes on the event loop the daemon reads
        nothing, so requests that arrive meanwhile form the next batch,
        however far apart they arrive."""
        sizes, entered, release = [], threading.Event(), threading.Event()

        def stalled(rows, **kwargs):
            sizes.append(len(rows))
            if len(sizes) == 1:
                entered.set()
                release.wait(timeout=30.0)
            return batch_self_route(rows, **kwargs)

        monkeypatch.setattr("repro.serve.daemon.batch_self_route",
                            stalled)
        rows = [(3, 1, 2, 0), (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1),
                (0, 2, 1, 3)]
        with _daemon() as handle, contextlib.ExitStack() as stack:
            socks = [stack.enter_context(socket.create_connection(
                handle.address, timeout=30.0)) for _ in rows]
            readers = [stack.enter_context(sock.makefile("rb"))
                       for sock in socks]
            # One round trip per connection first, so the daemon has
            # accepted every one of them before the stall.
            for sock, reader in zip(socks, readers):
                sock.sendall(_line("membership", rows[0], 0))
                assert protocol.decode_response(
                    reader.readline()).status == "ok"
            try:
                socks[0].sendall(_line("route", rows[0], 1))
                assert entered.wait(timeout=30.0)
                # Spaced wider than max_wait: a coalescer that flushed
                # on its deadline would route each of these alone.
                for index in range(1, len(rows)):
                    socks[index].sendall(
                        _line("route", rows[index], index + 1))
                    time.sleep(0.05)
            finally:
                release.set()
            responses = [protocol.decode_response(reader.readline())
                         for reader in readers]
        assert sizes == [1, len(rows) - 1]
        for row, response in zip(rows, responses):
            ok, dst = fast_self_route(row)
            assert response.status == "ok"
            assert response.success == ok
            assert response.mapping == dst

    def test_error_response_for_bad_vector_width(self):
        with _daemon() as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                response = client.request(protocol.RouteRequest(
                    op="route", tags=(0, 1, 2)))  # not a power of two
        assert response.status == "error"
        assert response.error

    def test_protocol_error_answered_not_fatal(self):
        with _daemon() as handle:
            host, port = handle.address
            with socket.create_connection((host, port),
                                          timeout=30.0) as sock:
                sock.sendall(b"this is not json\n")
                reader = sock.makefile("rb")
                response = protocol.decode_response(reader.readline())
                assert response.status == "error"
                assert response.id == -1
                # the connection survives a bad line
                request = protocol.RouteRequest(op="route",
                                                tags=(1, 0), id=5)
                sock.sendall((protocol.encode_request(request)
                              + "\n").encode("utf-8"))
                ok_response = protocol.decode_response(
                    reader.readline())
        assert ok_response.status == "ok"
        assert ok_response.id == 5

    @pytest.mark.parametrize("split", [False, True],
                             ids=["whole", "split"])
    def test_oversized_line_answered_not_fatal(self, split):
        """A line over asyncio's 64 KiB stream limit is answered with
        one error and skipped through its newline; the connection keeps
        serving.  ``split`` sends the line in two 70 KB pieces, so the
        daemon hits the limit before the newline has arrived."""
        obs.enable()
        head = b'{"op":"route","tags":[' + b"0," * 35_000
        tail = b"0," * 35_000 + b"1]}\n"
        request = protocol.RouteRequest(op="route", tags=(1, 0), id=5)
        valid = (protocol.encode_request(request) + "\n").encode("utf-8")
        with _daemon() as handle:
            host, port = handle.address
            with socket.create_connection((host, port),
                                          timeout=30.0) as sock:
                reader = sock.makefile("rb")
                if split:
                    sock.sendall(head)
                    time.sleep(0.2)
                    sock.sendall(tail + valid)
                else:
                    sock.sendall(head + tail + valid)
                error = protocol.decode_response(reader.readline())
                ok_response = protocol.decode_response(reader.readline())
        assert error.status == "error"
        assert error.id == -1
        assert "65536-byte limit" in error.error
        assert ok_response.status == "ok"
        assert ok_response.id == 5
        assert obs.snapshot()["counters"]["serve.errors"] == 1

    def test_client_disconnect_with_requests_in_flight(self):
        # A client that sends and hangs up without reading must not
        # strand the batch its requests joined, nor the connection
        # count, nor shutdown.
        obs.enable()
        rows = [(3, 1, 2, 0), (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1),
                (0, 2, 1, 3)]
        payload = "".join(
            protocol.encode_request(protocol.RouteRequest(
                op="route", tags=row, id=index)) + "\n"
            for index, row in enumerate(rows))
        handle = _daemon(max_batch=64, max_wait_us=200_000.0)
        try:
            host, port = handle.address
            with socket.create_connection((host, port),
                                          timeout=30.0) as sock:
                sock.sendall(payload.encode("utf-8"))
            with ServeClient(host, port) as client:
                response = client.route((3, 2, 1, 0))
        finally:
            started = time.monotonic()
            handle.stop()
            stop_seconds = time.monotonic() - started
        assert response.status == "ok"
        assert response.mapping == fast_self_route((3, 2, 1, 0))[1]
        assert stop_seconds < 10.0
        counters = obs.snapshot()["counters"]
        assert counters["serve.connections.opened"] == 2
        assert counters["serve.connections.closed"] == 2

    def test_client_that_reads_nothing_stops_being_read(self):
        """A connection whose answers go unread past asyncio's
        high-water mark stops being read: the daemon decodes a bounded
        share of the burst, buffers no more answers, and serves other
        clients meanwhile."""
        obs.enable()
        count = 6000
        with _daemon() as handle:
            with contextlib.closing(_unread_burst(handle.address, count)):
                decoded = _counter_when_settled("serve.requests.route")
                with ServeClient(*handle.address, timeout=5.0) as client:
                    started = time.monotonic()
                    response = client.route((3, 1, 2, 0))
                    elapsed = time.monotonic() - started
        assert decoded < count // 2
        assert obs.snapshot()["counters"]["serve.pauses"] >= 1
        assert response.status == "ok"
        assert elapsed < 1.0

    def test_answers_to_a_client_that_hung_up_are_dropped(self, caplog):
        # The client closes (no reset) without reading: the daemon
        # reads its requests, the first answer's write fails, and the
        # rest are counted instead of written to the lost connection
        # (which asyncio logs as "socket.send() raised exception.").
        obs.enable()
        with _daemon() as handle:
            sock = _unread_burst(handle.address, 200)
            sock.close()
            _counter_when_settled("serve.responses.dropped")
            with ServeClient(*handle.address, timeout=5.0) as client:
                response = client.route((3, 1, 2, 0))
        assert not [record for record in caplog.records
                    if "socket.send() raised" in record.getMessage()]
        assert obs.snapshot()["counters"]["serve.responses.dropped"] > 0
        assert response.status == "ok"

    def test_half_closed_client_gets_every_answer(self):
        # Three requests and an unterminated fourth, then the client
        # shuts its sending side: all four are answered, then EOF.
        rows = [(3, 1, 2, 0), (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1)]
        payload = b"".join(_line("route", row, index)
                           for index, row in enumerate(rows))
        with _daemon() as handle:
            with socket.create_connection(handle.address,
                                          timeout=30.0) as sock:
                sock.sendall(payload[:-1])
                sock.shutdown(socket.SHUT_WR)
                with sock.makefile("rb") as reader:
                    answered = reader.read()
        responses = sorted((protocol.decode_response(line)
                            for line in answered.splitlines()),
                           key=lambda response: response.id)
        assert [response.id for response in responses] == [0, 1, 2, 3]
        for row, response in zip(rows, responses):
            assert response.mapping == fast_self_route(row)[1]

    def test_serve_counters(self, rng):
        obs.enable()
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(6)]
        with _daemon(max_batch=6) as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                client.route_many(rows)
                client.membership_many(rows[:2])
        snapshot = obs.snapshot()
        snap = snapshot["counters"]
        assert snap["serve.requests.route"] == 6
        assert snap["serve.requests.membership"] == 2
        assert snap["serve.batches"] >= 2
        assert snap["serve.connections.opened"] == 1
        assert snap["serve.connections.closed"] == 1
        # The six routes fill max_batch; the two memberships leave at
        # the end of their tick.  One loop-time sample per batch.
        assert snap["serve.flush.size"] == 1
        assert snap["serve.flush.tick"] == 1
        assert "serve.flush.drain" not in snap
        seconds = snapshot["histograms"]["serve.batch.seconds"]
        assert seconds["count"] == snap["serve.batches"]
        assert seconds["min"] > 0

    def test_single_trace_tree(self, tmp_path, rng):
        """One serving session - one valid trace tree: every
        connection, request and batch span adopts the daemon root."""
        trace_path = tmp_path / "serve_trace.jsonl"
        obs.enable(trace=str(trace_path))
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(4)]
        with _daemon(max_batch=4) as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                client.route_many(rows)
        obs.trace_off()
        result = subprocess.run(
            [sys.executable, str(TOOLS / "trace_tree.py"),
             str(trace_path), "--quiet", "--max-trees", "1",
             "--min-spans", "4"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestDaemonLifecycle:
    def test_stop_counts_unclosable_writers(self):
        # regression: a transport raising from close() during shutdown
        # was swallowed silently; it must bump serve.errors instead,
        # and it is aborted once the close grace runs out
        class _StubbornTransport:
            aborted = False

            def close(self):
                raise RuntimeError("transport refuses to close")

            def abort(self):
                self.aborted = True

        obs.enable()
        stubborn = _StubbornTransport()

        async def scenario():
            daemon = RoutingDaemon(ServeConfig(port=0,
                                               warm_orders=(2,)))
            await daemon.start()
            daemon._transports.add(stubborn)
            await daemon.stop()

        asyncio.run(scenario())
        assert obs.snapshot()["counters"]["serve.errors"] == 1
        assert stubborn.aborted

    def test_stop_answers_queued_requests(self):
        # Requests still queued in the coalescer when stop() begins are
        # flushed through the engine and answered.  They are offered on
        # the loop and stop() starts before the end-of-tick flush can
        # run, so they are still queued when it does.
        obs.enable()
        rows = [(3, 1, 2, 0), (0, 1, 2, 3), (1, 0, 3, 2)]
        requests = [protocol.RouteRequest(op="route", tags=row,
                                          id=index + 1)
                    for index, row in enumerate(rows)]

        async def scenario():
            daemon = RoutingDaemon(ServeConfig(
                port=0, max_batch=64, max_wait_us=10_000_000.0,
                warm_orders=(2,)))
            await daemon.start()
            # A connection the daemon is serving, to see it closed.
            reader, writer = await asyncio.open_connection(
                *daemon.address)
            writer.write(_line("route", rows[0], 0))
            await reader.readline()
            futures = [daemon._submit_nowait(request)
                       for request in requests]
            assert daemon._coalescer.pending == len(requests)
            started = time.monotonic()
            await daemon.stop()
            stop_seconds = time.monotonic() - started
            rest = await reader.read()
            writer.close()
            return (stop_seconds, [future.result() for future in futures],
                    rest)

        stop_seconds, responses, rest = asyncio.run(
            asyncio.wait_for(scenario(), timeout=30.0))
        assert stop_seconds < 5.0
        assert [response.id for response in responses] == [1, 2, 3]
        assert all(response.status == "ok" for response in responses)
        for response, row in zip(responses, rows):
            assert response.mapping == fast_self_route(row)[1]
        assert obs.snapshot()["counters"]["serve.flush.drain"] == 1
        assert rest == b""  # then the daemon closed the connection

    def test_stop_aborts_a_client_that_reads_nothing(self):
        # The connection cannot finish closing while its answers go
        # unread, so stop() aborts it after a short grace.
        obs.enable()
        handle = _daemon()
        with contextlib.closing(_unread_burst(handle.address, 3000)):
            _counter_when_settled("serve.requests.route")
            started = time.monotonic()
            handle.stop()
            elapsed = time.monotonic() - started
            alive = handle._thread.is_alive()
        assert elapsed < 5.0
        assert not alive

    def test_negative_max_wait_rejected(self):
        # The queue runs with no wait, so the daemon checks the bound
        # it still accepts itself.
        with pytest.raises(InvalidParameterError, match="max_wait_us"):
            RoutingDaemon(ServeConfig(port=0, max_wait_us=-1.0))

    def test_start_raises_on_bad_engine(self):
        with pytest.raises(Exception):
            start_in_thread(ServeConfig(port=0, engine="warp-drive"))

    def test_stop_is_idempotent(self):
        handle = _daemon()
        handle.stop()
        handle.stop()

    def test_ephemeral_ports_do_not_collide(self):
        with _daemon() as first, _daemon() as second:
            assert first.address[1] != second.address[1]
