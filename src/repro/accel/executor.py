"""The **shard executor**: ``parallel=`` batches split across threads.

Every vector crosses the same ``2n - 1`` stages with no dependence on
any other vector (Section IV's pipeline admits a new one every clock),
so a sharded batch shares nothing but the read-only stage plans.  This
module splits a batch above a configurable threshold into contiguous
shards, runs each shard on a thread of a transient pool, and
reassembles the results in order — the answer is bit-identical to the
inline call for any shard count (pinned by
``tests/test_kernel_parity.py`` and ``tests/test_accel_setup.py``).

Design notes:

- **One address space.**  Every shard is the op *name*, a slice of the
  rows and the op's keyword options, re-dispatched on its thread by
  :func:`repro.accel.batch.dispatch`; the plan caches are shared and
  nothing is pickled.  The NumPy kernels spend their time in ufuncs and
  gathers that release the GIL, so their shards overlap; the
  pure-Python kernels hold it, so there sharding only preserves shapes
  and values.
- **Bounded.**  ``parallel=True`` resolves to the CPUs this process may
  run on (its affinity set where the platform reports one, else
  ``os.cpu_count()``); an explicit integer is honoured as given (useful
  to oversubscribe in tests or cap on shared boxes).  One worker — or a
  batch below :data:`SHARD_THRESHOLD` — runs inline.
- **All or nothing.**  A shard that raises fails the whole call with
  its own exception and traceback; no partial result is merged.

Shards share the process's metrics registry and trace sink.  A shard's
thread is marked by :func:`in_shard`, so the batch entry points record
work-level metrics (items, successes, failures, per-stage crosses) but
skip the call-level ones (calls, batch size, wall time) that the
dispatching call records once; sharded totals therefore equal inline
totals.  When :mod:`repro.obs` is enabled the dispatcher adds the
``executor.*`` metrics (calls, items, shard counts, per-shard and
per-dispatch wall time), and with a trace sink each shard's spans hang
under the dispatch span (``executor.dispatch`` -> ``executor.shard``).
"""

from __future__ import annotations

import os
import threading
from time import perf_counter as _perf_counter
from typing import Any, Dict, List, Optional

from .. import obs as _obs
from ..errors import InvalidParameterError
from ..obs import spans as _spans
from ._np import env_int, numpy_or_none

__all__ = [
    "SHARD_THRESHOLD",
    "dispatch",
    "in_shard",
    "resolve_workers",
    "wants_shards",
]

#: Minimum batch size before sharding engages; overridable via the
#: ``BENES_SHARD_THRESHOLD`` environment variable (read at import; a
#: value that is not an integer >= 1 fails the import loudly).
SHARD_THRESHOLD = env_int("BENES_SHARD_THRESHOLD", 2048)


def _run_shard(op: str, rows, options: Dict[str, Any]):
    """One shard's work: the batch dispatch itself, imported lazily so
    this module never creates an import cycle with
    :mod:`repro.accel.batch`.  It sees :func:`in_shard` and records
    work-scope metrics only."""
    from .batch import dispatch

    return dispatch(op, rows, **options)


_SHARD_FLAG = threading.local()


def in_shard() -> bool:
    """True while the current thread is executing one shard of a
    dispatched batch.  The batch entry points consult this to record
    work-level metrics only — call-level metrics are the dispatching
    call's to record, once."""
    return getattr(_SHARD_FLAG, "active", False)


def _run_task(op: str, rows, options: Dict[str, Any],
              trace_ref: Optional[tuple], shard: int):
    """Thread entry point: execute one shard, returning ``(seconds,
    result)`` — the shard's wall time (fed to the
    ``executor.worker.seconds`` histogram) and its result.

    ``trace_ref`` is the dispatch span's ``(trace_id, span_id)``, or
    ``None`` while tracing is off: a pool thread starts with an empty
    span context, so the shard adopts the dispatch span explicitly.
    """
    _SHARD_FLAG.active = True
    t0 = _perf_counter()
    try:
        if trace_ref is None:
            result = _run_shard(op, rows, options)
        else:
            with _spans.adopt(*trace_ref), \
                    _spans.span("executor.shard", task=op, shard=shard):
                result = _run_shard(op, rows, options)
    finally:
        _SHARD_FLAG.active = False
    return _perf_counter() - t0, result


# ----------------------------------------------------------------------
# Shard-count policy
# ----------------------------------------------------------------------

def resolve_workers(parallel) -> int:
    """Worker count for a ``parallel=`` value: ``False``/``None`` -> 1,
    ``True`` -> the CPUs this process may run on (its affinity set
    where the platform reports one, so a ``taskset``-pinned process
    gets the pinned count; else ``os.cpu_count()``), an explicit
    positive int -> itself."""
    if parallel is None or parallel is False:
        return 1
    if parallel is True:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    workers = int(parallel)
    if workers < 1:
        raise InvalidParameterError(
            f"parallel= must be a bool or a positive worker count, "
            f"got {parallel!r}"
        )
    return workers


def wants_shards(parallel, batch_size: int) -> bool:
    """True when a batch of ``batch_size`` should take the executor
    path: parallelism requested, more than one worker resolved, and the
    batch above the sharding threshold."""
    return (bool(parallel)
            and batch_size >= max(2, SHARD_THRESHOLD)
            and resolve_workers(parallel) > 1)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

def _shard_bounds(n_items: int, n_shards: int) -> List[tuple]:
    """Contiguous, order-preserving shard slices covering ``n_items``."""
    base, extra = divmod(n_items, n_shards)
    bounds, start = [], 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _concat(parts: List[Any], axis: int = 0):
    """Join shard pieces along the batch axis: arrays with NumPy,
    list pieces (the pure-Python engines) by chaining; for ``axis=1``
    the pieces are per-stage rows of per-lane values."""
    if isinstance(parts[0], list):
        if axis:
            return [[v for part in stage for v in part]
                    for stage in zip(*parts)]
        return [row for part in parts for row in part]
    return numpy_or_none().concatenate(parts, axis=axis)


def _merge(op: str, parts: List[Any]):
    """Reassemble shard results in submission order."""
    from ..core.routing import BatchRouteResult

    if op == "two_pass":
        return tuple(_concat(list(factor)) for factor in zip(*parts))
    if not isinstance(parts[0], BatchRouteResult):
        return _concat(parts)
    per_stage = [p.per_stage for p in parts]
    states = [p.stage_states for p in parts]
    return BatchRouteResult(
        success_mask=_concat([p.success_mask for p in parts]),
        mappings=_concat([p.mappings for p in parts]),
        per_stage=None if per_stage[0] is None
        else _concat(per_stage, axis=1),
        stage_states=None if states[0] is None else _concat(states),
    )


def dispatch(op: str, items, *, parallel=True, **options):
    """Run batch ``op`` over ``items`` (an array or list sliced along
    axis 0) in shards, merging the results in order.

    Every shard runs ``repro.accel.batch.dispatch(op, slice,
    **options)`` on a thread of its own.  Caller guarantees
    :func:`wants_shards` returned True; the result is identical to the
    corresponding inline call.
    """
    # Imported here: concurrent.futures pulls in logging, which would
    # add ~20 ms to the import of every batch entry point.
    from concurrent.futures import ThreadPoolExecutor

    n_items = len(items)
    n_shards = min(resolve_workers(parallel), n_items)
    bounds = _shard_bounds(n_items, n_shards)

    enabled = _obs.enabled()
    t0 = _perf_counter() if enabled else 0.0
    with _spans.span("executor.dispatch", task=op, items=n_items,
                     shards=n_shards) as dispatch_span:
        trace_ref = None
        if dispatch_span is not None:
            trace_ref = (dispatch_span.context.trace_id,
                         dispatch_span.context.span_id)
        with ThreadPoolExecutor(max_workers=n_shards) as pool:
            futures = [
                pool.submit(_run_task, op, items[start:stop], options,
                            trace_ref, shard)
                for shard, (start, stop) in enumerate(bounds)
            ]
            # A shard that raises fails the whole call with its
            # original traceback: the first failing result re-raises
            # here (before any merge), and the pool's __exit__ still
            # waits for the remaining shards, so nothing partial ever
            # escapes.
            timed = [future.result() for future in futures]
        if enabled:
            _obs.inc("executor.calls")
            _obs.inc("executor.items", n_items)
            _obs.observe("executor.shards", n_shards,
                         bounds=_obs.POW2_BOUNDS)
            for seconds, _ in timed:
                _obs.observe("executor.worker.seconds", seconds)
            _obs.observe("executor.dispatch.seconds",
                         _perf_counter() - t0)
    return _merge(op, [result for _, result in timed])
