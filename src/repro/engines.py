"""``repro.engines`` — the engines the differential verifier compares.

Every batch execution engine is one row of the kernel table
:data:`repro.accel.KERNELS` — ``scalar``, ``numpy``, ``bitslice``,
``composed`` — and all of them compute the paper's self-routing rule;
only the kernel differs.  This module turns the table into the
verifier's four comparison families (self-routing, F(n) membership,
external-state routing, partial permutations):

- one **generic adapter** per kernel and family drives the family's
  public batch entry point with ``engine=<kernel>`` and normalizes the
  answer to plain Python for byte-level comparison (:class:`EngineRun`,
  verdict tuples, realized mappings);
- three engines really are different code: the ``oracle`` (the
  structural :class:`~repro.core.benes.BenesNetwork`, and the Theorem-1
  recursion for membership), the ``sharded`` executor wrapper and the
  ``serve`` wire transport.

Each family table lists the oracle first — the fuzzer compares every
other entry against the first — then the kernels, then the wrappers.
The default tables (:data:`SELF_ROUTE_ENGINES`, ...) are evaluated on
each access, so they skip an engine whose dependency gate is closed
*right now* (NumPy, possibly forced absent by :func:`force_fallback`)
and the opt-in ``serve`` engine, which starts a live daemon.  The
``ALL_*`` tables keep every engine for explicit lookups (``benes verify
--engines scalar,serve``, generated regression tests).
"""

from __future__ import annotations

import atexit
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .accel import _np as _np_seam
from .accel import executor as _executor
from .accel.batch import (
    batch_in_class_f,
    batch_route_with_states,
    batch_self_route,
)
from .accel.kernels import ENGINES
from .accel.partial import (
    batch_complete_partial,
    batch_route_partial,
    complete_partial_row,
    mask_partial,
)
from .core.benes import BenesNetwork
from .core.membership import in_class_f
from .errors import InvalidParameterError

__all__ = [
    "ALL_MEMBERSHIP_ENGINES",
    "ALL_PARTIAL_ENGINES",
    "ALL_SELF_ROUTE_ENGINES",
    "ALL_STATES_ENGINES",
    "EngineRun",
    "EngineSpec",
    "MEMBERSHIP_ENGINES",
    "PARTIAL_ENGINES",
    "SELF_ROUTE_ENGINES",
    "STATES_ENGINES",
    "default_selfroute_names",
    "exec_engine_names",
    "force_engine",
    "force_fallback",
    "get",
    "low_shard_threshold",
    "names",
    "register",
    "require_exec",
    "run_engine",
    "run_membership_engine",
]

Row = Tuple[int, ...]
States = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class EngineRun:
    """One engine's normalized answer for a batch of tag vectors.

    Attributes:
        engine: adapter name.
        success: per-instance routing success.
        mappings: per-instance delivered mapping — ``mappings[b][o]``
            is the input whose signal arrived at output ``o``.
        states: per-instance ``(2n-1, N/2)`` switch states as nested
            tuples, or ``None`` when the engine cannot expose them.
    """

    engine: str
    success: Tuple[bool, ...]
    mappings: Tuple[Row, ...]
    states: Optional[Tuple[States, ...]] = None


def _always() -> bool:
    return True


@dataclass(frozen=True)
class EngineSpec:
    """One engine the verifier drives, with an adapter per family it
    takes part in (``None`` where it has none).

    Attributes:
        name: the engine name — a kernel name, ``oracle``, ``sharded``
            or ``serve``; the key in every family table.
        selfroute: ``(rows, order, *, omega_mode, stuck_switches) ->
            EngineRun``.
        membership: ``(rows, order) -> Tuple[bool, ...]`` F(n)
            verdicts.
        states: ``(states_batch, order) -> Tuple[Row, ...]`` realized
            input -> output mappings under external switch states.
        partial: ``(rows, order, *, omega_mode, stuck_switches) ->
            EngineRun`` over dense partial rows (idle lanes ``-1``):
            ``success`` is "every active lane delivered", ``mappings``
            the arrival outputs of the active sources in increasing
            source order.
        available: dependency gate — closed, the engine drops out of
            the default tables.
        default: False keeps the engine out of default sweeps (it stays
            reachable by explicit name).
    """

    name: str
    selfroute: Optional[Callable[..., EngineRun]] = None
    membership: Optional[Callable[..., Tuple[bool, ...]]] = None
    states: Optional[Callable[..., Tuple[Row, ...]]] = None
    partial: Optional[Callable[..., EngineRun]] = None
    available: Callable[[], bool] = field(default=_always)
    default: bool = True


_REGISTRY: Dict[str, EngineSpec] = {}


def register(spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
    """Add ``spec`` to the family tables.  Re-registering a name
    requires ``replace=True`` so typos fail loudly."""
    if spec.name in _REGISTRY and not replace:
        raise InvalidParameterError(
            f"engine {spec.name!r} is already registered; pass "
            "replace=True to override it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> EngineSpec:
    """The spec registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown engine {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def names() -> Tuple[str, ...]:
    """Every registered engine name, in registration order."""
    return tuple(_REGISTRY)


def exec_engine_names() -> Tuple[str, ...]:
    """The kernel names — what the batch entry points' ``engine=``
    keyword accepts besides ``"auto"``."""
    return ENGINES


def require_exec(name: str) -> EngineSpec:
    """The spec of kernel ``name``, validated by
    :func:`repro.accel.resolve_engine`: an unknown name raises
    :class:`~repro.errors.InvalidParameterError`, ``"numpy"`` without
    NumPy :class:`~repro.errors.MissingDependencyError`."""
    return get(_np_seam.resolve_engine(name))


class _Family(Mapping):
    """``{engine name: adapter}`` for one comparison family, rebuilt on
    every access so the NumPy gate follows :func:`force_fallback`.  The
    default view skips closed gates and opt-in engines."""

    def __init__(self, family: str, *, every: bool = False):
        self._family = family
        self._every = every

    def _table(self) -> Dict[str, Callable]:
        return {
            spec.name: getattr(spec, self._family)
            for spec in _REGISTRY.values()
            if getattr(spec, self._family) is not None
            and (self._every or (spec.default and spec.available()))
        }

    def __getitem__(self, name):
        return self._table()[name]

    def __iter__(self):
        return iter(self._table())

    def __len__(self):
        return len(self._table())


#: Default family tables — what :mod:`repro.verify` fuzzes over.  The
#: oracle is always first: the fuzzer compares every other entry
#: against the first one.
SELF_ROUTE_ENGINES: Mapping = _Family("selfroute")
MEMBERSHIP_ENGINES: Mapping = _Family("membership")
STATES_ENGINES: Mapping = _Family("states")
PARTIAL_ENGINES: Mapping = _Family("partial")

#: Full tables including opt-in and gated engines — what explicit name
#: lookups (CLI ``--engines``, generated regression tests) use.
ALL_SELF_ROUTE_ENGINES: Mapping = _Family("selfroute", every=True)
ALL_MEMBERSHIP_ENGINES: Mapping = _Family("membership", every=True)
ALL_STATES_ENGINES: Mapping = _Family("states", every=True)
ALL_PARTIAL_ENGINES: Mapping = _Family("partial", every=True)


def default_selfroute_names() -> Tuple[str, ...]:
    """The self-routing engines a default verification sweep drives."""
    return tuple(SELF_ROUTE_ENGINES)


# ----------------------------------------------------------------------
# Environment toggles
# ----------------------------------------------------------------------

@contextmanager
def _patched(owner, attr: str, value):
    previous = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, previous)


def force_fallback():
    """Run the body as if NumPy were not installed (flips the
    :data:`repro.accel._np.FORCE_FALLBACK` seam)."""
    return _patched(_np_seam, "FORCE_FALLBACK", True)


def force_engine(name: Optional[str]):
    """Steer every engine resolution inside the body to ``name``
    (flips the :data:`repro.accel._np.FORCE_ENGINE` seam — the
    monkeypatch equivalent of exporting ``BENES_ENGINE``)."""
    return _patched(_np_seam, "FORCE_ENGINE", name)


def low_shard_threshold(threshold: int = 2):
    """Temporarily lower the executor's sharding threshold so small
    verification batches exercise the dispatch/merge path."""
    return _patched(_executor, "SHARD_THRESHOLD", threshold)


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------

def _row(values) -> Row:
    return tuple(int(v) for v in values)


def _as_rows(rows: Sequence[Sequence[int]]) -> List[Row]:
    return [_row(row) for row in rows]


def _run(engine: str, result) -> EngineRun:
    """A :class:`~repro.core.routing.BatchRouteResult` (any engine's
    containers) as an :class:`EngineRun`."""
    states = result.stage_states
    return EngineRun(
        engine=engine,
        success=tuple(bool(ok) for ok in result.success_mask),
        mappings=tuple(_row(row) for row in result.mappings),
        states=None if states is None else tuple(
            tuple(_row(column) for column in per_instance)
            for per_instance in states
        ),
    )


def _partial_run(engine: str, result) -> EngineRun:
    """A :class:`~repro.accel.partial.PartialBatchResult` as an
    :class:`EngineRun` of per-instance arrival outputs."""
    return EngineRun(
        engine=engine,
        success=tuple(bool(ok) for ok in result.success_mask),
        mappings=tuple(_row(out for _src, out in arrival)
                       for arrival in result.arrivals),
    )


# ----------------------------------------------------------------------
# The generic kernel adapters
# ----------------------------------------------------------------------

def _kernel_spec(kernel: str) -> EngineSpec:
    """The adapters of one kernel row: each family's public batch entry
    point with ``engine=kernel``."""

    def selfroute(rows, order, *, omega_mode=False, stuck_switches=None):
        return _run(kernel, batch_self_route(
            rows, omega_mode=omega_mode, stuck_switches=stuck_switches,
            stage_states=True, engine=kernel))

    def membership(rows, order):
        return tuple(bool(ok)
                     for ok in batch_in_class_f(rows, engine=kernel))

    def states(states_batch, order):
        result = batch_route_with_states(list(states_batch), order,
                                         engine=kernel)
        return tuple(_row(row) for row in result.mappings)

    def partial(rows, order, *, omega_mode=False, stuck_switches=None):
        return _partial_run(kernel, batch_route_partial(
            rows, omega_mode=omega_mode, stuck_switches=stuck_switches,
            engine=kernel))

    return EngineSpec(
        name=kernel, selfroute=selfroute, membership=membership,
        states=states, partial=partial,
        available=_np_seam.have_numpy if kernel == "numpy" else _always,
    )


# ----------------------------------------------------------------------
# The oracle: structural network and Theorem-1 recursion
# ----------------------------------------------------------------------

def _oracle_selfroute(rows, order, *, omega_mode=False,
                      stuck_switches=None) -> EngineRun:
    net = BenesNetwork(order)
    results = [net.route(row, omega_mode=omega_mode, trace=True,
                         stuck_switches=stuck_switches) for row in rows]
    return EngineRun(
        "oracle", tuple(r.success for r in results),
        tuple(_row(r.delivered) for r in results),
        tuple(tuple(_row(trace.states) for trace in r.stages)
              for r in results),
    )


def _oracle_membership(rows, order) -> Tuple[bool, ...]:
    return tuple(bool(in_class_f(row)) for row in rows)


def _oracle_states(states_batch, order) -> Tuple[Row, ...]:
    net = BenesNetwork(order)
    return tuple(_row(net.route_with_states(states).realized)
                 for states in states_batch)


def _oracle_partial(rows, order, *, omega_mode=False,
                    stuck_switches=None) -> EngineRun:
    # The structural network on the per-row canonical completion.
    net = BenesNetwork(order)
    completed = [complete_partial_row(row) for row in rows]
    delivered = [net.route(row, omega_mode=omega_mode,
                           stuck_switches=stuck_switches).delivered
                 for row in completed]
    active = [tuple(v != -1 for v in row) for row in rows]
    return _partial_run("oracle",
                        mask_partial(completed, active, delivered))


# ----------------------------------------------------------------------
# The wrappers: shard executor and the serve daemon's wire transport
# ----------------------------------------------------------------------

def _sharded_selfroute(rows, order, *, omega_mode=False,
                       stuck_switches=None) -> EngineRun:
    with low_shard_threshold(2):
        result = batch_self_route(rows, omega_mode=omega_mode,
                                  stuck_switches=stuck_switches,
                                  stage_states=True, parallel=2)
    return _run("sharded", result)


_SERVE_HANDLE = None


def _serve_client():
    """A client of the per-process verification daemon, started lazily
    on first use, reused across calls, stopped at interpreter exit.  The
    client sends each burst in one write, which the daemon reads in one
    loop tick and routes as one batch — the adapter verifies the
    *coalesced* path, not a degenerate B=1 one."""
    global _SERVE_HANDLE
    from .serve.client import ServeClient

    if _SERVE_HANDLE is None:
        from .serve import ServeConfig
        from .serve.daemon import start_in_thread

        _SERVE_HANDLE = start_in_thread(ServeConfig(port=0, max_batch=64))
        atexit.register(_stop_serve_runtime)
    return ServeClient(*_SERVE_HANDLE.address)


def _stop_serve_runtime() -> None:
    global _SERVE_HANDLE
    handle, _SERVE_HANDLE = _SERVE_HANDLE, None
    if handle is not None:
        handle.stop()


def _serve_selfroute(rows, order, *, omega_mode=False,
                     stuck_switches=None) -> EngineRun:
    with _serve_client() as client:
        responses = client.route_many(
            rows, omega_mode=omega_mode, stuck_switches=stuck_switches,
            stage_states=True,
        )
    return EngineRun(
        "serve", tuple(bool(r.success) for r in responses),
        tuple(_row(r.mapping) for r in responses),
        tuple(tuple(_row(column) for column in r.stage_states)
              for r in responses),
    )


def _serve_membership(rows, order) -> Tuple[bool, ...]:
    with _serve_client() as client:
        responses = client.membership_many(rows)
    return tuple(bool(r.success) for r in responses)


def _serve_partial(rows, order, *, omega_mode=False,
                   stuck_switches=None) -> EngineRun:
    completed, active = batch_complete_partial(rows)
    with _serve_client() as client:
        responses = client.packet_many(rows, omega_mode=omega_mode,
                                       stuck_switches=stuck_switches)
    return _partial_run("serve", mask_partial(
        completed, active, [r.mapping for r in responses]))


# ----------------------------------------------------------------------
# Public runners — the entries generated regression tests call
# ----------------------------------------------------------------------

def _adapter(table: Mapping, name: str, family: str):
    try:
        return table[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown {family} engine {name!r}; known: {sorted(table)}"
        ) from None


def run_engine(name: str, rows: Sequence[Sequence[int]], order: int, *,
               omega_mode: bool = False,
               stuck_switches: Optional[dict] = None) -> EngineRun:
    """Run one named self-routing engine over ``rows`` — the public
    entry the shrinker's generated regression tests call."""
    return _adapter(ALL_SELF_ROUTE_ENGINES, name, "verify")(
        _as_rows(rows), order, omega_mode=omega_mode,
        stuck_switches=stuck_switches)


def run_membership_engine(name: str, rows: Sequence[Sequence[int]],
                          order: int) -> Tuple[bool, ...]:
    """Run one named F(n)-membership engine over permutation ``rows``."""
    return _adapter(ALL_MEMBERSHIP_ENGINES, name, "membership")(
        _as_rows(rows), order)


# ----------------------------------------------------------------------
# The built-in engines, oracle first
# ----------------------------------------------------------------------

register(EngineSpec(
    name="oracle", selfroute=_oracle_selfroute,
    membership=_oracle_membership, states=_oracle_states,
    partial=_oracle_partial,
))
for _kernel in ENGINES:
    register(_kernel_spec(_kernel))
register(EngineSpec(name="sharded", selfroute=_sharded_selfroute))
register(EngineSpec(
    name="serve", selfroute=_serve_selfroute,
    membership=_serve_membership, partial=_serve_partial,
    default=False,
))
