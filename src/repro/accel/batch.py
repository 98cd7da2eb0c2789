"""Vectorized batch routing, and the one dispatch behind every batch
entry point.

The analysis layer routes *millions* of tag vectors (cardinality
sweeps, Monte-Carlo F(n) density estimates, fault sweeps).  The NumPy
kernels here advance a whole batch through each of the ``2n - 1``
stages *simultaneously* as a ``(N, B)`` integer array (terminals ×
instances): a stage's switch decisions are one bitwise expression on
the even rows (the self-routing rule reads bit ``min(s, 2n-2-s)`` of
the upper input's tag), the conditional exchange is the arithmetic
pair-swap ``diff = (odd - even) * s; even += diff; odd -= diff``, and a
link crossing is one gather through the precompiled inverse-link index
of the :class:`~repro.accel.plans.StagePlan`.  Each value carries its
source in the high bits (``source << order | tag``), so one array routes
both and the pair is unpacked once at the end (~40x over the scalar
loop at order 8).

The three primitives — :func:`batch_self_route`,
:func:`batch_route_with_states`, :func:`batch_in_class_f` — and the
universal-setup primitives of :mod:`repro.accel.setup` all go through
:func:`dispatch`: resolve the engine, then either shard through
:mod:`repro.accel.executor` or call the engine's kernel from
:data:`repro.accel.kernels.KERNELS` — the same values, element for
element, on every engine (pinned by ``tests/test_kernel_parity.py``).
When :mod:`repro.obs` is enabled the dispatch records the ``accel.*``
metrics; disabled, the only cost is one flag check per call.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter

from .. import obs as _obs
from ..core.bits import log2_exact
from ..core.routing import BatchRouteResult
from ..core.switch import validate_stuck_switches
from ..errors import InvalidParameterError, SizeMismatchError
from ..obs import spans as _spans
from . import executor as _executor
from ._np import numpy_or_none, resolve_engine
from .plans import stage_plan

__all__ = [
    "batch_self_route",
    "batch_route_with_states",
    "batch_in_class_f",
    "dispatch",
]

#: op -> (metric family ``accel.<family>.*``, span name, resolution
#: kind).
_OPS = {
    "self_route": ("batch", "batch.self_route", "route"),
    "in_class_f": ("membership", "batch.membership", "route"),
    "route_with_states": ("states", "batch.route_with_states", "route"),
    "setup_states": ("setup", "batch.setup", "setup"),
    "two_pass": ("two_pass", "batch.two_pass", "setup"),
}


def _batch_dims(batch):
    """Cheap ``(B, N)`` hint for engine resolution — no validation, no
    materialization; ``None`` for what is unreadable (the kernel's own
    validation then reports properly)."""
    shape = getattr(batch, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]), int(shape[1])
    try:
        b = len(batch)
    except TypeError:
        return None, None
    try:
        n = len(batch[0]) if b else 0
    except (TypeError, IndexError, KeyError):
        n = None
    return b, n


def _order_hint(width):
    """``log2(width)`` when it is a positive power of two, else None."""
    if width and width > 0 and (width & (width - 1)) == 0:
        return width.bit_length() - 1
    return None


def _as_tag_array(np, tags_batch):
    """Validate a batch of tag vectors as a ``(B, N)`` int64 array."""
    arr = np.asarray(tags_batch, dtype=np.int64)
    if arr.ndim != 2:
        raise SizeMismatchError(
            f"expected a (B, N) batch of tag vectors, got shape "
            f"{arr.shape}"
        )
    n = arr.shape[1]
    if arr.size and ((arr < 0) | (arr >= n)).any():
        raise InvalidParameterError(
            f"destination tags must lie in [0, {n}) — out-of-range "
            "values cannot address any output"
        )
    return arr


def _reject_scalar_options(entry: str, options: dict) -> None:
    """Fail loudly on scalar-path options this entry point does not
    implement — ignoring them would let the engines silently diverge."""
    if options:
        names = ", ".join(repr(name) for name in sorted(options))
        raise InvalidParameterError(
            f"{entry}() does not support engine option(s) {names}; "
            "the scalar path (BenesNetwork.route / fast_self_route) "
            "honors them, and silently ignoring them here would let "
            "the engines diverge — route through the scalar API or "
            "drop the option"
        )


def _stuck_plan(np, order: int, stuck_switches):
    """Validate a ``{(stage, switch): state}`` fault map and compile it
    into per-stage ``(switch_indices, states)`` index arrays — the
    vectorized stuck-mask applied on top of each stage's control
    decision (one fancy assignment per faulted stage)."""
    if not stuck_switches:
        return None
    n_stages = 2 * order - 1
    half = (1 << order) // 2
    validate_stuck_switches(stuck_switches, n_stages, half)
    grouped = {}
    for (stage, index), state in stuck_switches.items():
        grouped.setdefault(stage, ([], []))
        grouped[stage][0].append(index)
        grouped[stage][1].append(1 if state else 0)
    return {
        stage: (np.asarray(idx, dtype=np.intp),
                np.asarray(vals, dtype=np.int64))
        for stage, (idx, vals) in grouped.items()
    }


def _working_block(np, arr, n_value_bits):
    """Transpose ``(B, N)`` into the ``(N, B)`` working layout with the
    narrowest safe dtype for ``n_value_bits`` bits per element (int32
    covers packed source+tag routing up to order 15).

    ``copy=True``: the routing kernel mutates the block in place, and
    the transpose of a caller-owned F-contiguous array would alias it.
    """
    dtype = np.int32 if n_value_bits <= 31 else np.int64
    return np.array(arr.T, dtype=dtype, order="C", copy=True)


def _swap_stage(rows, cond):
    """In place, exchange adjacent row pairs of the ``(N, B)`` array
    where ``cond`` (``(N/2, B)``, values 0/1) is set — branch-free:
    ``diff = (odd - even) * cond`` then ``even += diff; odd -= diff``."""
    even = rows[0::2, :]
    odd = rows[1::2, :]
    diff = (odd - even) * cond
    even += diff
    odd -= diff


def _route_array(np, rows, order, stage_cross=None, omega_mode=False,
                 stuck=None, stage_states=None, stages=None):
    """Push an ``(N, B)`` value block through the switch columns
    ``stages`` (default: all ``2n - 1``) in place, modulo link gathers:
    every column but stage 0 is entered through the link from the
    column before it.  The self-routing control reads tag bits of
    ``rows``, which must occupy the low ``order`` bits of each value.

    When ``stage_cross`` is a list, the per-instance crossed-switch
    count of every stage (a ``(B,)`` array) is appended to it.  With
    ``omega_mode`` the first ``order - 1`` columns are forced straight
    (the Section II omega-bit extension).  ``stuck`` is a compiled
    fault plan (:func:`_stuck_plan`): in each faulted stage the stuck
    switches' decisions are overwritten with their stuck states —
    overriding the omega forcing too, exactly like the structural
    network.  When ``stage_states`` is a list, the full ``(N/2, B)``
    0/1 decision array of every stage is appended to it.
    """
    plan = stage_plan(order)
    inv_links = plan.np_inv_links()
    omega_stages = order - 1 if omega_mode else 0
    half = rows.shape[0] // 2
    for stage in range(plan.n_stages) if stages is None else stages:
        if stage:
            rows = rows[inv_links[stage - 1]]
        stuck_here = stuck.get(stage) if stuck else None
        if stage < omega_stages and stuck_here is None:
            if stage_cross is not None:
                stage_cross.append(
                    np.zeros(rows.shape[1], dtype=rows.dtype)
                )
            if stage_states is not None:
                stage_states.append(
                    np.zeros((half, rows.shape[1]), dtype=np.int8)
                )
            continue
        if stage < omega_stages:
            cond = np.zeros((half, rows.shape[1]), dtype=rows.dtype)
        else:
            ctrl = plan.ctrl_bits[stage]
            cond = (rows[0::2, :] >> ctrl) & 1
        if stuck_here is not None:
            indices, states = stuck_here
            cond[indices, :] = states.astype(rows.dtype)[:, None]
        if stage_cross is not None:
            stage_cross.append(cond.sum(axis=0))
        if stage_states is not None:
            stage_states.append(cond.astype(np.int8))
        _swap_stage(rows, cond)
    return rows


def _state_transit(np, states, order: int, stages, rows=None):
    """Push an ``(N, B)`` block (identity rows when ``rows`` is None)
    through the switch columns ``stages`` of a ``(B, 2n-1, N/2)``
    external state batch, entering each column like
    :func:`_route_array` does."""
    plan = stage_plan(order)
    inv_links = plan.np_inv_links()
    if rows is None:
        dtype = np.int32 if order <= 31 else np.int64
        rows = np.repeat(np.arange(plan.n_terminals, dtype=dtype)[:, None],
                         states.shape[0], axis=1)
    for stage in stages:
        if stage:
            rows = rows[inv_links[stage - 1]]
        _swap_stage(rows, (states[:, stage, :].T != 0).astype(rows.dtype))
    return rows


def _inverse(np, perms):
    """Row-wise inverse of a ``(B, N)`` permutation array, as int64:
    ``out[b, perms[b, i]] = i``."""
    out = np.empty(perms.shape, dtype=np.int64)
    np.put_along_axis(
        out, perms,
        np.broadcast_to(np.arange(perms.shape[1], dtype=np.int64),
                        perms.shape),
        axis=1,
    )
    return out


def _realized(np, states, order: int, n_columns: int):
    """Push identity rows through the first ``n_columns`` switch
    columns of a ``(B, 2n-1, N/2)`` external state batch and return
    ``dest`` with ``dest[b, source]`` = the row holding ``source``'s
    signal — the realized mapping when ``n_columns == 2n - 1``, the
    two-pass half-way map when ``n_columns == n``."""
    # rows[row, b] = source occupying that row -> dest[b, source] = row
    return _inverse(np, _state_transit(np, states, order,
                                       range(n_columns)).T)


# ----------------------------------------------------------------------
# The NumPy kernels (the "numpy" row of repro.accel.kernels.KERNELS)
# ----------------------------------------------------------------------

def numpy_self_route(tags_batch, *, omega_mode=False, stage_data=False,
                     stage_states=False, stuck_switches=None,
                     _stage_totals=None) -> BatchRouteResult:
    """Self-route a ``(B, N)`` tag batch; per-stage cross counts feed
    both ``stage_data`` and the ``_stage_totals`` metrics tap."""
    np = numpy_or_none()
    arr = _as_tag_array(np, tags_batch)
    n = arr.shape[1]
    order = log2_exact(n)
    stuck = _stuck_plan(np, order, stuck_switches)
    # Pack each value's source row into its high bits; the control rule
    # only reads tag bits < order, so one array routes both.
    rows = _working_block(np, arr, n_value_bits=2 * order)
    rows |= np.arange(n, dtype=rows.dtype)[:, None] << order
    stage_cross = [] if (stage_data or _stage_totals is not None) \
        else None
    states_acc = [] if stage_states else None
    rows = _route_array(np, rows, order, stage_cross=stage_cross,
                        omega_mode=omega_mode, stuck=stuck,
                        stage_states=states_acc)
    if _stage_totals is not None:
        _stage_totals.extend(stage_cross)
    tags = rows & (n - 1)
    success = (tags == np.arange(n, dtype=rows.dtype)[:, None]
               ).all(axis=0)
    return BatchRouteResult(
        success_mask=success,
        mappings=(rows >> order).T.astype(np.int64),
        per_stage=(np.array(stage_cross) if stage_data else None),
        stage_states=(np.transpose(np.array(states_acc), (2, 0, 1))
                      if stage_states else None),
    )


def numpy_in_class_f(perms_batch):
    """The ``(B,)`` F(n) membership mask: routing without sources."""
    np = numpy_or_none()
    arr = _as_tag_array(np, perms_batch)
    n = arr.shape[1]
    order = log2_exact(n)
    rows = _route_array(np, _working_block(np, arr, n_value_bits=order),
                        order)
    return (rows == np.arange(n, dtype=rows.dtype)[:, None]).all(axis=0)


def _as_state_array(np, states_batch, order: int):
    """Validate a batch of switch states as a ``(B, 2n-1, N/2)`` int64
    array."""
    plan = stage_plan(order)
    states = np.asarray(states_batch, dtype=np.int64)
    expected = (plan.n_stages, plan.n_terminals // 2)
    if states.ndim != 3 or states.shape[1:] != expected:
        raise SizeMismatchError(
            f"expected a (B, {expected[0]}, {expected[1]}) batch of "
            f"switch states for order {order}, got shape {states.shape}"
        )
    return states


def numpy_route_with_states(states_batch, *, order: int,
                            stage_data=False) -> BatchRouteResult:
    """Realized permutations under a ``(B, 2n-1, N/2)`` state batch."""
    np = numpy_or_none()
    states = _as_state_array(np, states_batch, order)
    return BatchRouteResult(
        success_mask=np.ones(states.shape[0], dtype=bool),
        mappings=_realized(np, states, order, 2 * order - 1),
        per_stage=((states != 0).sum(axis=2).T if stage_data else None),
    )


# ----------------------------------------------------------------------
# The dispatch
# ----------------------------------------------------------------------

def _record_metrics(op, batch, seconds, scope, result, totals) -> None:
    """Feed one batch call into the registry (metrics are enabled).

    ``scope`` splits the catalogue so a sharded run's totals equal the
    inline run's exactly (no double counting between the dispatching
    call and its shards): ``"call"`` records the once-per-user-call
    instruments (calls, wall time, batch-size histogram, the no-NumPy
    fallback tally), ``"work"`` the per-item ones each shard records
    for its slice (items, success/failure, per-stage crosses), and
    ``"full"`` — the inline, unsharded path — both.
    """
    family = _OPS[op][0]
    if scope != "work":
        if numpy_or_none() is None:
            _obs.inc("accel.fallback.calls")
        _obs.inc(f"accel.{family}.calls")
        _obs.observe(f"accel.{family}.seconds", seconds)
        _obs.observe("accel.batch.size", batch, bounds=_obs.POW2_BOUNDS)
    if scope == "call":
        return
    _obs.inc(f"accel.{family}.items", batch)
    if op in ("self_route", "in_class_f"):
        mask = result.success_mask if op == "self_route" else result
        n_success = int(mask.sum()) if hasattr(mask, "sum") \
            else sum(map(bool, mask))
        _obs.inc(f"accel.{family}.success", n_success)
        _obs.inc(f"accel.{family}.failure", batch - n_success)
    # NumPy taps hand (B,) arrays per stage, bitslice whole-batch ints.
    for stage, crosses in enumerate(totals or ()):
        if not isinstance(crosses, int):
            crosses = crosses.sum()
        _obs.inc(f"accel.{family}.stage_cross.{stage}", int(crosses))


def dispatch(op: str, rows, *, engine=None, parallel=False, **options):
    """Run batch ``op`` on one engine — the single path behind
    :func:`batch_self_route`, :func:`batch_in_class_f`,
    :func:`batch_route_with_states`,
    :func:`~repro.accel.setup.batch_setup_states` and
    :func:`~repro.accel.setup.batch_two_pass`.

    Resolves ``engine`` (:func:`~repro.accel.resolve_engine`, counted
    once per user-facing call as ``accel.engine_selected.<engine>``),
    then either shards the batch through
    :func:`repro.accel.executor.dispatch` — every shard re-enters here
    with the concrete engine and records work-scope metrics only — or
    calls ``KERNELS[engine][op](rows, **options)``.  The composed
    kernels shard their inner blocks themselves, so they receive
    ``parallel`` instead.  An empty batch raises
    :class:`~repro.errors.InvalidParameterError` on every engine (no
    engine can infer ``N`` from zero rows).
    """
    opened = _spans.start_span(_OPS[op][1])
    try:
        enabled = _obs.enabled()
        t0 = _perf_counter() if enabled else 0.0
        batch, width = _batch_dims(rows)
        if batch is None:  # an iterator: materialize once
            rows = list(rows)
            batch, width = _batch_dims(rows)
        if batch == 0:
            raise InvalidParameterError(
                f"batch_{op}() needs at least one row; the row width "
                "N of an empty batch is unknown"
            )
        order = options.get("order", _order_hint(width))
        engine = resolve_engine(engine, order=order, batch_size=batch,
                                kind=_OPS[op][2])
        in_shard = _executor.in_shard()
        if enabled and not in_shard:
            _obs.inc(f"accel.engine_selected.{engine}")
        totals = None
        if engine != "composed" and _executor.wants_shards(parallel,
                                                           batch):
            result = _executor.dispatch(op, rows, parallel=parallel,
                                        order_hint=order, engine=engine,
                                        **options)
            scope = "call"
        else:
            if engine == "composed":
                options["parallel"] = parallel
            if enabled and op == "self_route":
                totals = options["_stage_totals"] = []
            from .kernels import KERNELS

            result = KERNELS[engine][op](rows, **options)
            scope = "work" if in_shard else "full"
        if enabled:
            _record_metrics(op, batch, _perf_counter() - t0, scope,
                            result, totals)
        return result
    finally:
        if opened is not None:
            opened.finish()


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def batch_self_route(tags_batch, *, omega_mode=False, stage_data=False,
                     stage_states=False, stuck_switches=None,
                     parallel=False, engine=None, **scalar_options):
    """Self-route a batch of tag vectors; the batched equivalent of
    ``[fast_self_route(t) for t in tags_batch]``.

    Args:
        tags_batch: ``(B, N)`` array-like of destination tags (each row
            an arbitrary tag vector — duplicates allowed, exactly as in
            the scalar fast path); ``B >= 1``.
        omega_mode: set the omega bit on every signal, forcing the
            first ``n - 1`` columns straight (realizes ``Omega(n)``,
            mirroring ``BenesNetwork.route(omega_mode=True)``).
        stage_data: also collect per-stage switch-flip counts into the
            result's ``per_stage`` field (numpy and bitslice engines;
            the scalar loop leaves it ``None``).
        stage_states: also record every stage's full 0/1 switch-state
            array into the result's ``stage_states`` field
            (``(B, 2n-1, N/2)`` int8, nested tuples on the pure-Python
            engines) — value-identical to the scalar network's
            per-stage trace states; the evidence differential
            verification compares byte-for-byte.
        stuck_switches: fault injection — the same ``{(stage, switch):
            state}`` map ``BenesNetwork.route`` takes, applied to
            *every* instance of the batch (one fault configuration,
            many workloads: the shape of a fault campaign).  Stuck
            states override both the tag rule and the omega forcing.
        parallel: shard the batch across worker processes above the
            executor threshold (see :mod:`repro.accel.executor`);
            ``True`` resolves to ``os.cpu_count()`` workers, an int is
            an explicit worker count.  Results are identical for any
            value.
        engine: ``"scalar"``, ``"numpy"``, ``"bitslice"``,
            ``"composed"`` or ``"auto"`` (default: auto, overridable
            via ``BENES_ENGINE`` — see
            :func:`repro.accel.resolve_engine`).  Values are identical
            for every engine; result *containers* follow the engine
            (arrays for numpy, lists/tuples otherwise).

    Any other keyword — in particular scalar-route options such as
    ``control``, ``trace``, ``payloads`` or ``require_success`` that
    this engine does not implement — raises
    :class:`~repro.errors.InvalidParameterError` rather than being
    silently ignored.

    Returns:
        a :class:`~repro.core.routing.BatchRouteResult` whose
        ``success_mask`` is a ``(B,)`` bool array and whose
        ``mappings[b][o]`` is the input whose signal reached output
        ``o`` of instance ``b`` (lists of identical values on the
        pure-Python engines).
    """
    _reject_scalar_options("batch_self_route", scalar_options)
    return dispatch("self_route", tags_batch, engine=engine,
                    parallel=parallel, omega_mode=omega_mode,
                    stage_data=stage_data, stage_states=stage_states,
                    stuck_switches=stuck_switches)


def batch_in_class_f(perms_batch, *, parallel=False, engine=None,
                     **scalar_options):
    """F(n) membership mask for a batch of permutations: instance ``b``
    is in ``F(n)`` iff the self-routing network delivers every one of
    its tags (Theorem 1 ≡ routing success; the equivalence is pinned in
    ``tests/test_membership.py``).

    Cheaper than :func:`batch_self_route`: no source tracking.  Returns
    a ``(B,)`` bool array, or a list of bools on the pure-Python
    engines.  ``parallel=`` shards large batches across worker
    processes with identical results; ``engine=`` selects the
    execution engine exactly as in :func:`batch_self_route`.
    Unsupported engine options (``stuck_switches``
    and friends — fault campaigns read :func:`batch_self_route`'s
    success mask instead) raise
    :class:`~repro.errors.InvalidParameterError`.
    """
    _reject_scalar_options("batch_in_class_f", scalar_options)
    return dispatch("in_class_f", perms_batch, engine=engine,
                    parallel=parallel)


def batch_route_with_states(states_batch, order: int, *,
                            stage_data=False, parallel=False,
                            engine=None, **scalar_options):
    """Realized permutations of ``B(order)`` under a batch of external
    state assignments; the batched equivalent of
    ``[fast_route_with_states(s, order) for s in states_batch]``.

    Args:
        states_batch: ``(B, 2*order - 1, N/2)`` array-like of 0/1
            switch states.
        order: the network order ``n``.
        stage_data: also expose the per-stage crossed-switch counts in
            the result's ``per_stage`` field (numpy and bitslice
            engines).
        parallel: shard the batch across worker processes above the
            executor threshold; results identical for any value.
        engine: execution engine, exactly as in
            :func:`batch_self_route`.

    Returns:
        a :class:`~repro.core.routing.BatchRouteResult`; row ``b`` of
        ``mappings`` maps input -> output for instance ``b``.  External
        states always deliver *some* permutation, so ``success_mask``
        is all-True — mirroring
        :meth:`~repro.core.benes.BenesNetwork.route_with_states`, where
        what matters is the realized mapping.  Unsupported engine
        options (``payloads``, ``trace``, ...) raise
        :class:`~repro.errors.InvalidParameterError`.
    """
    _reject_scalar_options("batch_route_with_states", scalar_options)
    return dispatch("route_with_states", states_batch, engine=engine,
                    parallel=parallel, order=order,
                    stage_data=stage_data)
