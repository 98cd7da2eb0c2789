"""The ``benes serve`` wire protocol: one frozen request/response pair.

Transport framing is newline-delimited JSON — one compact object per
line, UTF-8, ``sort_keys`` canonical form so a given response has
exactly one byte encoding (the parity tests compare daemon output
byte-for-byte against :func:`from_batch_result` applied to a direct
in-process engine call).  The schema is versioned
(:data:`PROTOCOL_VERSION`); a request carrying a different ``v`` is
refused with :class:`~repro.errors.ProtocolError` rather than
half-understood.

Exactly **one** shape exists on both sides of the socket: the wire
protocol, the in-process :class:`repro.serve.client.ServeClient`, and
the tests all build and consume :class:`RouteRequest` /
:class:`RouteResponse` — there is no second ad-hoc dict format.  The
response mirrors :class:`~repro.core.routing.BatchRouteResult` field
for field (``success`` / ``mapping`` / ``per_stage`` /
``stage_states``), sliced down to the one batch lane that belongs to
the request; :func:`from_batch_result` is the **only** code that does
that slicing, shared by the daemon and the parity tests.

Operations:

``route``
    Self-route one tag vector (Theorem 1 semantics): ``success``,
    delivered ``mapping``, optional full ``stage_states``; honors
    ``omega_mode`` and ``stuck`` fault injection.
``membership``
    F(n) membership verdict for one permutation — ``success`` only.
``setup``
    Universal Waksman setup for one arbitrary permutation: the
    realizing switch states in ``stage_states``.
``packet``
    Partial-permutation routing: ``tags`` is a dense k-of-N call
    pattern with idle lanes ``-1`` (see
    :mod:`repro.packet.partial`).  ``success`` means every *active*
    lane delivered; ``mapping`` is the full delivered mapping of the
    canonical completion; honors ``omega_mode``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..errors import ProtocolError

__all__ = [
    "OPS",
    "PROTOCOL_VERSION",
    "RouteRequest",
    "RouteResponse",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "error_response",
    "from_batch_result",
    "from_membership_mask",
    "from_partial_result",
    "from_setup_states",
    "rejected_response",
    "stuck_to_wire",
    "wire_to_stuck",
]

#: Wire schema version; bumped on any incompatible field change.
PROTOCOL_VERSION = 1

#: The operations the daemon understands.
OPS = ("route", "membership", "setup", "packet")

#: Response statuses: computed / failed / shed under backpressure.
STATUSES = ("ok", "error", "rejected")

Row = Tuple[int, ...]
States = Tuple[Tuple[int, ...], ...]
Stuck = Tuple[Tuple[int, int, int], ...]


def stuck_to_wire(stuck_switches: Optional[dict]) -> Optional[Stuck]:
    """The canonical wire form of a ``{(stage, switch): state}`` fault
    map: sorted ``(stage, switch, state)`` triples (sorted so equal
    maps encode to equal bytes and coalesce into the same batch)."""
    if not stuck_switches:
        return None
    return tuple(sorted(
        (int(stage), int(switch), 1 if state else 0)
        for (stage, switch), state in stuck_switches.items()
    ))


def wire_to_stuck(stuck: Optional[Stuck]) -> Optional[dict]:
    """The engine-side ``{(stage, switch): state}`` map of a wire fault
    list (``None`` for an absent/empty list)."""
    if not stuck:
        return None
    return {(stage, switch): bool(state)
            for stage, switch, state in stuck}


#: The element types an int vector passes on its fast scan.  ``bool``
#: is an ``int`` subclass, so an ``isinstance`` scan would pass ``True``.
_INT_TYPES = frozenset((int,))


def _int_tuple(values, what: str) -> Row:
    if not isinstance(values, (list, tuple)) or len(values) == 0:
        raise ProtocolError(f"{what} must be a non-empty list of integers")
    if not _INT_TYPES.issuperset(map(type, values)):
        # Slow path: int subclasses other than bool still pass.
        for value in values:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(f"{what} must contain only integers")
    return tuple(values)


def _lane(values):
    """One engine lane as Python ints: a NumPy lane converts with one
    ``.tolist()``; the pure-Python engines already hold ints."""
    tolist = getattr(values, "tolist", None)
    return values if tolist is None else tolist()


@dataclass(frozen=True)
class RouteRequest:
    """One client request (one wire line).

    Attributes:
        op: one of :data:`OPS`.
        tags: the tag vector (``route``) or permutation
            (``membership`` / ``setup``) to process.
        id: client-chosen correlation id, echoed verbatim in the
            response (responses may arrive out of request order — the
            daemon answers per coalesced batch, not per connection
            sequence).
        omega_mode: force the first ``n - 1`` columns straight
            (``route`` only).
        stuck: fault injection as sorted ``(stage, switch, state)``
            triples (``route`` only); see :func:`stuck_to_wire`.
        stage_states: ask for the full per-stage switch states in the
            response (``route``; always on for ``setup``).
        v: wire schema version, :data:`PROTOCOL_VERSION`.
    """

    op: str
    tags: Row
    id: int = 0
    omega_mode: bool = False
    stuck: Optional[Stuck] = None
    stage_states: bool = False
    v: int = PROTOCOL_VERSION

    def __post_init__(self):
        if self.op not in OPS:
            raise ProtocolError(f"unknown op {self.op!r}; expected one of "
                                f"{', '.join(OPS)}")
        if self.v != PROTOCOL_VERSION:
            raise ProtocolError(f"unsupported protocol version {self.v!r} "
                                f"(this daemon speaks v{PROTOCOL_VERSION})")
        object.__setattr__(self, "tags",
                           _int_tuple(self.tags, "tags"))
        if not isinstance(self.id, int) or isinstance(self.id, bool):
            raise ProtocolError("id must be an integer")
        if not isinstance(self.omega_mode, bool):
            raise ProtocolError("omega_mode must be a boolean")
        if not isinstance(self.stage_states, bool):
            raise ProtocolError("stage_states must be a boolean")
        if self.stuck is not None:
            triples = []
            if not isinstance(self.stuck, (list, tuple)):
                raise ProtocolError(
                    "stuck must be a list of [stage, switch, state]")
            for entry in self.stuck:
                entry = _int_tuple(entry, "stuck entry")
                if len(entry) != 3:
                    raise ProtocolError("stuck entries must be "
                                        "[stage, switch, state] triples")
                if entry[2] not in (0, 1):
                    raise ProtocolError("stuck state must be 0 or 1")
                triples.append(entry)
            object.__setattr__(self, "stuck", tuple(sorted(triples))
                               or None)

    @property
    def stuck_switches(self) -> Optional[dict]:
        """The engine-side fault map for this request."""
        return wire_to_stuck(self.stuck)

    def coalesce_key(self) -> tuple:
        """Requests with equal keys may share one accel batch: the
        batched entry points take ``omega_mode`` / ``stuck_switches``
        / ``stage_states`` per *batch*, and all lanes must share the
        vector width."""
        return (self.op, len(self.tags), self.omega_mode, self.stuck,
                self.stage_states)


@dataclass(frozen=True)
class RouteResponse:
    """One daemon answer (one wire line), the single-lane mirror of
    :class:`~repro.core.routing.BatchRouteResult`.

    Attributes:
        op: the request's operation, echoed.
        id: the request's correlation id, echoed.
        status: ``ok`` (fields populated), ``error`` (``error``
            explains), or ``rejected`` (backpressure shed — retry).
        success: routing success / membership verdict.
        mapping: delivered mapping — ``mapping[o]`` is the input whose
            signal arrived at output ``o`` (``route`` only).
        per_stage: per-column crossed-switch counts for this instance,
            when the serving engine collected them.
        stage_states: full ``(2n-1, N/2)`` switch states, when asked
            for (``stage_states=True`` requests, every ``setup``).
        engine: the execution engine that served the batch (the
            recorded engine column of the serve bench).
        error: human-readable failure, for ``status="error"``.
        v: wire schema version.
    """

    op: str
    id: int
    status: str = "ok"
    success: Optional[bool] = None
    mapping: Optional[Row] = None
    per_stage: Optional[Row] = None
    stage_states: Optional[States] = None
    engine: Optional[str] = None
    error: Optional[str] = None
    v: int = PROTOCOL_VERSION

    def __post_init__(self):
        if self.op not in OPS:
            raise ProtocolError(f"unknown op {self.op!r} in response")
        if self.status not in STATUSES:
            raise ProtocolError(f"unknown status {self.status!r}; expected "
                                f"one of {', '.join(STATUSES)}")
        if self.v != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {self.v!r}")
        if self.mapping is not None:
            object.__setattr__(self, "mapping",
                               _int_tuple(self.mapping, "mapping"))
        if self.per_stage is not None:
            object.__setattr__(self, "per_stage",
                               _int_tuple(self.per_stage, "per_stage"))
        if self.stage_states is not None:
            object.__setattr__(self, "stage_states", tuple(
                _int_tuple(column, "stage_states column")
                for column in self.stage_states
            ))


# ----------------------------------------------------------------------
# Canonical JSON encoding — one byte form per message
# ----------------------------------------------------------------------

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(payload: dict) -> str:
    return _ENCODER.encode(payload)


def encode_request(request: RouteRequest) -> str:
    """The request's canonical wire line (no trailing newline — the
    transport frames)."""
    payload = {
        "v": request.v,
        "op": request.op,
        "id": request.id,
        "tags": request.tags,
        "omega": request.omega_mode,
        "states": request.stage_states,
    }
    if request.stuck is not None:
        payload["stuck"] = request.stuck
    return _canonical(payload)


def encode_response(response: RouteResponse) -> str:
    """The response's canonical wire line; ``None`` fields are
    omitted, everything else is emitted in one deterministic byte
    form."""
    payload = {
        "v": response.v,
        "op": response.op,
        "id": response.id,
        "status": response.status,
    }
    if response.success is not None:
        payload["success"] = response.success
    if response.mapping is not None:
        payload["mapping"] = response.mapping
    if response.per_stage is not None:
        payload["per_stage"] = response.per_stage
    if response.stage_states is not None:
        payload["states"] = response.stage_states
    if response.engine is not None:
        payload["engine"] = response.engine
    if response.error is not None:
        payload["error"] = response.error
    return _canonical(payload)


def _parse_line(line: Union[str, bytes], what: str) -> dict:
    if isinstance(line, (bytes, bytearray)):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"{what} line is not UTF-8: {exc}")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"{what} line is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError(f"{what} line must be a JSON object")
    return payload


_REQUEST_FIELDS = frozenset(("v", "op", "id", "tags", "omega", "states",
                             "stuck"))


def decode_request(line: Union[str, bytes]) -> RouteRequest:
    """Parse and validate one request line; any malformation raises
    :class:`~repro.errors.ProtocolError`."""
    payload = _parse_line(line, "request")
    if not _REQUEST_FIELDS.issuperset(payload):
        unknown = sorted(set(payload) - _REQUEST_FIELDS)
        raise ProtocolError(f"unknown request fields: {', '.join(unknown)}")
    if "op" not in payload or "tags" not in payload:
        raise ProtocolError("request must carry op and tags")
    return RouteRequest(
        op=payload["op"],
        tags=payload["tags"],
        id=payload.get("id", 0),
        omega_mode=payload.get("omega", False),
        stuck=payload.get("stuck"),
        stage_states=payload.get("states", False),
        v=payload.get("v", PROTOCOL_VERSION),
    )


def decode_response(line: Union[str, bytes]) -> RouteResponse:
    """Parse and validate one response line."""
    payload = _parse_line(line, "response")
    return RouteResponse(
        op=payload.get("op", "route"),
        id=payload.get("id", 0),
        status=payload.get("status", "ok"),
        success=payload.get("success"),
        mapping=payload.get("mapping"),
        per_stage=payload.get("per_stage"),
        stage_states=payload.get("states"),
        engine=payload.get("engine"),
        error=payload.get("error"),
        v=payload.get("v", PROTOCOL_VERSION),
    )


# ----------------------------------------------------------------------
# Builders — THE slicing code, shared by daemon and parity tests
# ----------------------------------------------------------------------

def from_batch_result(request: RouteRequest, result, index: int,
                      engine: Optional[str] = None) -> RouteResponse:
    """The response for lane ``index`` of a
    :class:`~repro.core.routing.BatchRouteResult` — the one place a
    batch is sliced into per-request answers, so a coalesced daemon
    response and a direct ``batch_self_route`` call produce identical
    bytes by construction."""
    per_stage = None
    if result.per_stage is not None:
        # per_stage is (2n-1, B): column `index` is this lane's counts.
        per_stage = tuple(int(row[index]) for row in result.per_stage)
    stage_states = None
    if request.stage_states and result.stage_states is not None:
        stage_states = _lane(result.stage_states[index])
    return RouteResponse(
        op=request.op,
        id=request.id,
        status="ok",
        success=bool(result.success_mask[index]),
        mapping=_lane(result.mappings[index]),
        per_stage=per_stage,
        stage_states=stage_states,
        engine=engine,
    )


def from_membership_mask(request: RouteRequest, mask, index: int,
                         engine: Optional[str] = None) -> RouteResponse:
    """The response for lane ``index`` of a ``batch_in_class_f``
    verdict mask."""
    return RouteResponse(
        op=request.op,
        id=request.id,
        status="ok",
        success=bool(mask[index]),
        engine=engine,
    )


def from_partial_result(request: RouteRequest, result, index: int,
                        engine: Optional[str] = None) -> RouteResponse:
    """The response for lane ``index`` of a
    :class:`~repro.accel.partial.PartialBatchResult`: per-instance
    all-active-lanes-delivered verdict plus the delivered mapping of
    the canonical completion (idle lanes carry the completion's
    filler routes — clients mask by their own active set)."""
    return RouteResponse(
        op=request.op,
        id=request.id,
        status="ok",
        success=bool(result.success_mask[index]),
        mapping=_lane(result.delivered[index]),
        engine=engine,
    )


def from_setup_states(request: RouteRequest, states_batch, index: int,
                      engine: Optional[str] = None) -> RouteResponse:
    """The response for lane ``index`` of a ``batch_setup_states``
    result: the realizing switch states for the request's
    permutation."""
    return RouteResponse(
        op=request.op,
        id=request.id,
        status="ok",
        success=True,
        stage_states=_lane(states_batch[index]),
        engine=engine,
    )


def error_response(op: str, request_id: int, message: str
                   ) -> RouteResponse:
    """A ``status="error"`` response carrying ``message``."""
    return RouteResponse(op=op, id=request_id, status="error",
                         error=message)


def rejected_response(request: RouteRequest) -> RouteResponse:
    """The backpressure answer: the coalescing queue was full and this
    request was shed instead of queued (HTTP's 429, in one word)."""
    return RouteResponse(op=request.op, id=request.id,
                         status="rejected",
                         error="server busy: coalescing queue full")
