"""Multicore **shard executor** for the batch engine.

One process can only push NumPy kernels through one core at a time; the
ROADMAP's bulk workloads (density sweeps over millions of candidates,
all-``N!`` setup batches) leave the other cores idle.  This module
splits a batch above a configurable threshold into contiguous shards
and runs each shard in a worker process, reassembling the results in
order — the answer is bit-identical to the single-process call for any
shard count (pinned by ``tests/test_accel_setup.py``).

Design notes:

- **Spawn-safe.**  Workers are created with the ``spawn`` start method
  (fork would duplicate the parent's locks and NumPy state); every shard
  is the op *name*, a slice of the rows and the op's keyword options,
  re-dispatched in the worker by :func:`repro.accel.batch.dispatch`, so
  nothing unpicklable crosses the process boundary — payloads are
  plain arrays/lists, results are the same frozen result types the
  inline path returns.
- **Plan-cache warmup.**  The pool initializer pre-builds the stage
  plan of the order that triggered pool creation in every worker, so
  the per-worker LRU (each process has its own) is warm before the
  first shard lands; other orders warm on first use and stay cached for
  the life of the pool, which persists across calls.
- **Bounded.**  ``parallel=True`` resolves to ``os.cpu_count()``
  workers; an explicit integer is honoured as given (useful to
  oversubscribe in tests or cap on shared boxes).  One worker — or a
  batch below :data:`SHARD_THRESHOLD` — runs inline: sharding a small
  batch costs more in pickling than it saves.
- **Pure-thread fallback.**  Without NumPy the scalar loops are
  GIL-bound, so processes would pay serialization for nothing; shards
  run on a thread pool instead — same shapes, same results, no worker
  processes to keep alive.  Process-pool creation failures (restricted
  environments) also degrade to threads.

When :mod:`repro.obs` is enabled the dispatcher records shard counts,
per-shard worker wall-time histograms, executor mode tallies
(``process`` / ``thread`` / ``inline``) and fallback events under the
``executor.*`` metric names.

**Distributed observability.**  Spawn workers have their own
``repro.obs`` registry; counters bumped there used to die with the
worker.  The dispatcher now ships an *observability context* with every
task — whether metrics are on, the parent's trace-file path, and the
dispatch span's ``(trace_id, span_id)`` — and each worker returns its
registry delta (:func:`repro.obs.snapshot_delta`) piggybacked on the
shard result; the parent merges it, so ``obs.snapshot()`` totals equal
the inline run exactly.  Deltas travel with *every* result, so worker
teardown has nothing left to flush — :func:`shutdown` still performs a
best-effort final sweep for completeness.  Shard executions are marked
via :func:`in_shard` so the batch entry points record work-level
metrics (items, successes, failures, per-stage crosses) but skip the
call-level ones (calls, batch-size, wall time) that the parent records
once per user-facing call.  Tracing workers re-root their spans under
the dispatch span (``executor.dispatch`` -> ``executor.shard``) and
append to the parent's trace file with atomic one-line writes.
"""

from __future__ import annotations

import atexit
import os
import threading
from time import perf_counter as _perf_counter
from typing import Any, Dict, List, Optional

from .. import obs as _obs
from ..errors import InvalidParameterError
from ..obs import spans as _spans
from ._np import env_int, have_numpy, numpy_or_none

__all__ = [
    "SHARD_THRESHOLD",
    "dispatch",
    "in_shard",
    "resolve_workers",
    "shutdown",
    "wants_shards",
]

#: Minimum batch size before sharding engages; overridable via the
#: ``BENES_SHARD_THRESHOLD`` environment variable (read at import; a
#: value that is not an integer >= 1 fails the import loudly).
SHARD_THRESHOLD = env_int("BENES_SHARD_THRESHOLD", 2048)

_POOL = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def _run_shard(op: str, rows, options: Dict[str, Any]):
    """One shard's work: the batch dispatch itself, imported lazily so
    a spawned worker pays the import once and this module never
    creates an import cycle with :mod:`repro.accel.batch`.  It sees
    :func:`in_shard` and records work-scope metrics only."""
    from .batch import dispatch

    return dispatch(op, rows, **options)


_SHARD_FLAG = threading.local()


def in_shard() -> bool:
    """True while the current thread is executing one shard of a
    dispatched batch (worker process or thread-fallback).  The batch
    entry points consult this to record work-level metrics only —
    call-level metrics are the dispatching call's to record, once."""
    return getattr(_SHARD_FLAG, "active", False)


def _sync_worker_obs(ctx: Dict) -> bool:
    """Process-worker side: mirror the parent's observability switches
    (carried in the task's obs context) onto this worker's module
    state.  Returns True when a registry delta should be shipped back."""
    if ctx["metrics"]:
        if not _obs.enabled():
            _obs.enable()
    elif _obs.enabled():
        _obs.disable()
    trace_path = ctx.get("trace_path")
    if _obs.trace_path() != trace_path:
        if trace_path:
            _obs.trace_to(trace_path)
        else:
            _obs.trace_off()
    return bool(ctx["metrics"])


def _run_task(op: str, rows, options: Dict[str, Any],
              ctx: Optional[Dict] = None):
    """Worker entry point: execute one shard, returning ``(seconds,
    result, delta)`` — the worker-side wall time (fed to the
    ``executor.worker.seconds`` histogram by the parent), the shard
    result, and the worker registry's metrics delta (``None`` unless
    this is a process worker with metrics on).

    ``ctx`` is the dispatcher's observability context: ``"metrics"`` /
    ``"trace_path"`` are present only for process workers (thread
    shards share the parent's live registry and sink), ``"trace"``
    carries the dispatch span's ``(trace_id, span_id)`` and ``"shard"``
    the shard index.
    """
    ctx = ctx or {}
    collect_delta = "metrics" in ctx and _sync_worker_obs(ctx)
    trace_ref = ctx.get("trace")
    _SHARD_FLAG.active = True
    t0 = _perf_counter()
    try:
        if trace_ref is not None:
            with _spans.adopt(*trace_ref):
                with _spans.span("executor.shard", task=op,
                                 shard=ctx.get("shard")):
                    result = _run_shard(op, rows, options)
        else:
            result = _run_shard(op, rows, options)
    finally:
        _SHARD_FLAG.active = False
    seconds = _perf_counter() - t0
    delta = _obs.snapshot_delta() if collect_delta else None
    return seconds, result, delta


def _flush_worker_obs():
    """Teardown sweep: any unshipped worker-registry delta (normally
    empty — every task ships its own)."""
    return _obs.snapshot_delta() if _obs.enabled() else None


def _warm_worker(orders: tuple) -> None:
    """Pool initializer: pre-build the stage plans the triggering call
    needs, so the first real shard finds a warm per-worker cache."""
    from .plans import stage_plan

    for order in orders:
        stage_plan(order)


# ----------------------------------------------------------------------
# Shard-count policy
# ----------------------------------------------------------------------

def resolve_workers(parallel) -> int:
    """Worker count for a ``parallel=`` value: ``False``/``None`` -> 1,
    ``True`` -> ``os.cpu_count()``, an explicit positive int -> itself."""
    if parallel is None or parallel is False:
        return 1
    if parallel is True:
        return max(1, os.cpu_count() or 1)
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
# Pool management
# ----------------------------------------------------------------------

def _get_process_pool(workers: int, orders: tuple):
    """The persistent spawn pool, (re)created when more workers are
    requested than the current pool holds."""
    global _POOL, _POOL_WORKERS
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with _POOL_LOCK:
        if _POOL is not None and _POOL_WORKERS >= workers:
            return _POOL
        old = _POOL
        _POOL = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context("spawn"),
            initializer=_warm_worker,
            initargs=(orders,),
        )
        _POOL_WORKERS = workers
    if old is not None:
        old.shutdown(wait=False)
    return _POOL


def shutdown(wait: bool = True) -> None:
    """Tear down the worker pool (tests, end of process).  The next
    sharded call lazily builds a fresh one.

    When metrics are on, a best-effort flush task is submitted per
    worker first so any unshipped registry delta is merged before the
    processes die (normally a no-op: every shard result already
    carries its delta)."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pool, workers = _POOL, _POOL_WORKERS
        _POOL, _POOL_WORKERS = None, 0
    if pool is None:
        return
    if wait and _obs.enabled():
        try:
            for future in [pool.submit(_flush_worker_obs)
                           for _ in range(workers)]:
                delta = future.result(timeout=5.0)
                if delta is not None:
                    _obs.merge(delta)
        except Exception:  # noqa: BLE001 - shutdown must not raise
            # A dying/broken pool must never fail the shutdown path,
            # but a lost delta is invisible data loss for whoever is
            # reading the merged registry — count it.
            _obs.inc("executor.delta_flush_failed")
    pool.shutdown(wait=wait)


#: Name under which :func:`shutdown` is re-exported from ``repro.accel``.
executor_shutdown = shutdown

atexit.register(shutdown, wait=False)


def _thread_map(payloads: List[tuple],
                contexts: Optional[List[Dict]] = None):
    """Shard runner of last resort: a transient thread pool (shared
    caches, no pickling).  GIL-bound for the pure-Python fallback, but
    shape- and value-identical to the process path.  Thread shards
    share the parent's live registry and trace sink, so their contexts
    carry only the span linkage — no metrics flag, no delta."""
    from concurrent.futures import ThreadPoolExecutor

    if contexts is None:
        contexts = [None] * len(payloads)
    with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
        futures = [pool.submit(_run_task, *p, c)
                   for p, c in zip(payloads, contexts)]
        # A shard that raises mid-batch fails the whole call with its
        # original traceback: the first failing result re-raises here
        # (before any merge), and the pool's __exit__ still waits for
        # the remaining shards, so nothing partial ever escapes.
        return [f.result() for f in futures]


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


def dispatch(op: str, items, *, parallel=True,
             order_hint: Optional[int] = None, **options):
    """Run batch ``op`` over ``items`` (an array or list sliced along
    axis 0) in shards, merging the results in order.

    Every shard runs ``repro.accel.batch.dispatch(op, slice,
    **options)`` in a worker.  Caller guarantees :func:`wants_shards`
    returned True; the result is identical to the corresponding inline
    call.
    """
    n_items = len(items)
    workers = resolve_workers(parallel)
    n_shards = min(workers, n_items)
    bounds = _shard_bounds(n_items, n_shards)
    payloads = [(op, items[start:stop], options) for start, stop in bounds]

    enabled = _obs.enabled()
    t0 = _perf_counter() if enabled else 0.0
    orders = (order_hint,) if order_hint is not None else ()
    with _spans.span("executor.dispatch", task=op, items=n_items,
                     shards=n_shards) as dispatch_span:
        trace_ref = None
        if dispatch_span is not None:
            trace_ref = (dispatch_span.context.trace_id,
                         dispatch_span.context.span_id)
        thread_ctxs = (
            [{"trace": trace_ref, "shard": i} for i in range(n_shards)]
            if trace_ref is not None else None
        )
        mode = "process"
        if have_numpy():
            # Spawn workers run with their own registry and sink:
            # ship the parent's observability switches with every task
            # and take a registry delta back with every result.
            process_ctxs = [
                {"metrics": enabled, "trace_path": _obs.trace_path(),
                 "trace": trace_ref, "shard": i}
                for i in range(n_shards)
            ]
            from concurrent.futures.process import BrokenProcessPool

            try:
                pool = _get_process_pool(workers, orders)
                futures = [pool.submit(_run_task, *p, c)
                           for p, c in zip(payloads, process_ctxs)]
            except (OSError, RuntimeError, ImportError):
                # Restricted environments (no /dev/shm, sandboxed
                # spawn): degrade to threads rather than fail the batch.
                mode = "thread"
                if enabled:
                    _obs.inc("executor.fallback.calls")
                timed = _thread_map(payloads, thread_ctxs)
            else:
                try:
                    timed = [f.result() for f in futures]
                except BrokenProcessPool:
                    # The pool itself died (worker OOM-killed, sandbox
                    # teardown) — an environment failure, not a task
                    # failure: retry the shards on threads.
                    mode = "thread"
                    if enabled:
                        _obs.inc("executor.fallback.calls")
                    timed = _thread_map(payloads, thread_ctxs)
                # Any other exception is a *shard* failure: a task that
                # raised mid-batch.  It propagates here with its
                # original traceback and the whole dispatch fails —
                # never a silent thread-pool re-execution (the pre-fix
                # behavior for RuntimeError/OSError subclasses), never
                # a partially merged result (_merge only ever sees the
                # full shard list).
        else:
            mode = "thread"
            timed = _thread_map(payloads, thread_ctxs)

        results = []
        n_deltas = 0
        for _, result, delta in timed:
            results.append(result)
            if delta is not None and enabled:
                _obs.merge(delta)
                n_deltas += 1
        if enabled:
            _obs.inc("executor.calls")
            _obs.inc(f"executor.mode.{mode}")
            _obs.inc("executor.items", n_items)
            _obs.inc("executor.worker.deltas", n_deltas)
            _obs.observe("executor.shards", n_shards,
                         bounds=_obs.POW2_BOUNDS)
            for seconds, _, _ in timed:
                _obs.observe("executor.worker.seconds", seconds)
            _obs.observe("executor.dispatch.seconds",
                         _perf_counter() - t0)
    return _merge(op, results)
