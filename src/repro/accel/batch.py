"""Vectorized batch routing, and the one dispatch behind every batch
entry point.

The analysis layer routes *millions* of tag vectors (cardinality
sweeps, Monte-Carlo F(n) density estimates, fault sweeps).  The NumPy
kernels here advance a whole batch through each of the ``2n - 1``
stages *simultaneously* as an ``(N, B)`` array (terminals × instances)
in the paper's cube-interchange layout (Section III): every signal
keeps its cube position, and stage ``s`` exchanges positions ``i`` and
``i + 2^k`` across dimension ``k = min(s, 2n-2-s)``, in place, through
an ``(N >> (k+1), 2, (1 << k) * B)`` view of the block.  A stage's switch
decisions are one bitwise expression on the upper halves (the
self-routing rule reads bit ``k`` of the upper input's tag), the
conditional exchange is the arithmetic swap ``diff = (lower - upper) *
cond; upper += diff; lower -= diff``, and no link is ever crossed: the
links of ``B(n)`` only move a signal between topology rows, never off
its position, and the first and last columns are in position order.
Each value carries its source in the high bits (``source << order |
tag``), so one array routes both and the pair is unpacked once at the
end.  The block uses the narrowest unsigned dtype that holds its
values.  Topology rows come back only where a caller sees them —
``stage_states``, stuck switches, external switch states and stage
ranges that start or stop inside the network — through the lazily
built tables of the :class:`~repro.accel.plans.StagePlan`.  A list or
tuple batch becomes an array in one ``np.fromiter`` pass
(:func:`_int64_rows`).

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

from itertools import chain
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


def _int64_rows(np, rows):
    """``np.asarray(rows, dtype=np.int64)``, in one ``np.fromiter``
    pass over the chained values when ``rows`` is a list or tuple of
    list/tuple rows of one length.

    Any other batch, and any row batch ``fromiter`` rejects
    (``TypeError``, ``ValueError``, ``OverflowError``), goes to
    ``np.asarray``, so the values and errors are ``np.asarray``'s.  The
    length check comes first because ``count=`` alone would accept a
    long row balanced by a short one.  One difference remains: an
    element ``int()`` accepts that ``np.asarray`` reads as a sequence
    (a ``bytearray``, say) converts as its ``int`` here.
    """
    if type(rows) in (list, tuple) and rows \
            and {*map(type, rows)} <= {list, tuple}:
        lengths = {*map(len, rows)}
        if len(lengths) == 1:
            width = lengths.pop()
            try:
                return np.fromiter(
                    chain.from_iterable(rows), dtype=np.int64,
                    count=len(rows) * width,
                ).reshape(len(rows), width)
            except (TypeError, ValueError, OverflowError):
                pass
    return np.asarray(rows, dtype=np.int64)


def _tag_range_error(n) -> InvalidParameterError:
    """The error every kernel raises for a tag outside ``[0, n)``."""
    return InvalidParameterError(
        f"destination tags must lie in [0, {n}) — out-of-range values "
        "cannot address any output"
    )


def _as_tag_array(np, tags_batch):
    """Validate a batch of tag vectors as a ``(B, N)`` int64 array.  A
    width that is not a power of two is reported before any tag range.
    A tag too wide for int64 is out of range too, so the conversion's
    ``OverflowError`` becomes the range error."""
    try:
        arr = _int64_rows(np, tags_batch)
    except OverflowError:
        width = _batch_dims(tags_batch)[1]
        if width is not None:
            log2_exact(width)
        raise _tag_range_error(width or "N") from None
    if arr.ndim != 2:
        raise SizeMismatchError(
            f"expected a (B, N) batch of tag vectors, got shape "
            f"{arr.shape}"
        )
    n = arr.shape[1]
    log2_exact(n)
    if arr.size and ((arr < 0) | (arr >= n)).any():
        raise _tag_range_error(n)
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
    into per-stage ``(pair_indices, states)`` index arrays — the
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
    pair_of_switch = stage_plan(order).np_pair_maps()[0]
    return {
        stage: (pair_of_switch[stage][np.asarray(idx, dtype=np.intp)],
                np.asarray(vals, dtype=np.int64))
        for stage, (idx, vals) in grouped.items()
    }


def _working_block(np, arr, n_value_bits):
    """Transpose ``(B, N)`` into the ``(N, B)`` working layout in the
    narrowest unsigned dtype holding ``n_value_bits`` bits per element
    (``uint16`` for packed source+tag routing up to order 8).

    ``copy=True``: the routing kernel mutates the block in place, and
    the transpose of a caller-owned F-contiguous array would alias it.
    """
    dtype = np.min_scalar_type((1 << n_value_bits) - 1)
    return np.array(arr.T, dtype=dtype, order="C", copy=True)


def _halves(rows, k):
    """The upper and lower inputs of every interchange across cube
    dimension ``k``: two views of the ``(N, B)`` block, holding
    positions ``i`` and ``i + 2^k`` for every ``i`` with bit ``k``
    clear.  The block is viewed as ``(N >> (k+1), 2, (1 << k) * B)``,
    its ``(N >> (k+1), 2, 1 << k, B)`` interchange form with the last
    two axes merged (they are contiguous), so each half is 2-D and in
    pair order.  ``rows`` must be C-contiguous: the reshape of any other
    layout is a copy, and the interchange would not reach the block."""
    n_rows, batch = rows.shape
    view = rows.reshape(n_rows >> (k + 1), 2, batch << k)
    return view[:, 0], view[:, 1]


def _interchange(upper, lower, cond):
    """In place, exchange ``upper`` and ``lower`` where ``cond`` (0/1)
    is set — branch-free and exact in unsigned wrap-around arithmetic:
    ``diff = (lower - upper) * cond`` then ``upper += diff;
    lower -= diff``."""
    diff = lower - upper
    diff *= cond
    upper += diff
    lower -= diff


def _to_positions(np, plan, rows, start):
    """An ``(N, B)`` block given in the rows of column ``start - 1``
    (as they leave it), moved to cube positions; column 0 is already in
    position order."""
    if not start:
        return rows
    out = np.empty_like(rows)
    out[plan.np_positions()[start - 1]] = rows
    return out


def _to_rows(plan, rows, stop):
    """A position-ordered ``(N, B)`` block, returned in the rows of
    column ``stop - 1``; the last column is already in position
    order."""
    if stop == plan.n_stages:
        return rows
    return rows[plan.np_positions()[stop - 1]]


def _route_array(np, rows, order, stage_cross=None, omega_mode=False,
                 stuck=None, stage_states=None, stages=None):
    """Push an ``(N, B)`` value block through the switch columns
    ``stages`` (a range, default all ``2n - 1``) in place: the block
    enters in the rows of column ``stages.start - 1`` and leaves in the
    rows of column ``stages.stop - 1``.  In between every signal stays
    at its cube position and stage ``s`` interchanges across dimension
    ``ctrl_bits[s]``, so no link is crossed; only a range boundary
    inside the network costs one reorder.  The self-routing control
    reads tag bits of ``rows``, which must occupy the low ``order``
    bits of each value.

    When ``stage_cross`` is a list, the per-instance crossed-switch
    count of every stage (a ``(B,)`` int64 array) is appended to it.
    With ``omega_mode`` the first ``order - 1`` columns are forced
    straight (the Section II omega-bit extension).  ``stuck`` is a
    compiled fault plan (:func:`_stuck_plan`): in each faulted stage the
    stuck switches' decisions are overwritten with their stuck states —
    overriding the omega forcing too, exactly like the structural
    network.  When ``stage_states`` is a list, one ``(len(stages), N/2,
    B)`` int8 array is appended to it: every stage's 0/1 decisions in
    switch order, reordered from pair order once per call.
    """
    plan = stage_plan(order)
    if stages is None:
        stages = range(plan.n_stages)
    rows = _to_positions(np, plan, rows, stages.start)
    half, batch = rows.shape[0] // 2, rows.shape[1]
    omega_stages = order - 1 if omega_mode else 0
    decisions = (np.zeros((len(stages), half, batch), dtype=np.int8)
                 if stage_states is not None else None)
    halves = {}  # stage s and its mirror 2n-2-s share one dimension
    for i, stage in enumerate(stages):
        k = plan.ctrl_bits[stage]
        if k not in halves:
            halves[k] = _halves(rows, k)
        upper, lower = halves[k]
        stuck_here = stuck.get(stage) if stuck else None
        if stage < omega_stages:
            if stuck_here is None:
                if stage_cross is not None:
                    stage_cross.append(np.zeros(batch, dtype=np.int64))
                continue
            cond = np.zeros(upper.shape, dtype=rows.dtype)
        else:
            cond = upper >> k
            cond &= 1
        if stuck_here is not None:
            pairs, states = stuck_here
            cond.reshape(half, batch)[pairs] = \
                states.astype(rows.dtype)[:, None]
        if stage_cross is not None:
            stage_cross.append(
                cond.reshape(half, batch).sum(axis=0, dtype=np.int64))
        if decisions is not None:
            decisions[i] = cond.reshape(half, batch)
        _interchange(upper, lower, cond)
    if decisions is not None:
        # row of (stage i, switch j) in the flattened decisions
        switch_rows = plan.np_pair_maps()[0][stages.start:stages.stop] \
            + np.arange(0, len(stages) * half, half)[:, None]
        stage_states.append(
            decisions.reshape(-1, batch).take(switch_rows, axis=0))
    return _to_rows(plan, rows, stages.stop)


def _state_transit(np, states, order: int, stages, rows=None):
    """Push an ``(N, B)`` block (identity rows when ``rows`` is None)
    through the switch columns ``stages`` of a ``(B, 2n-1, N/2)``
    external state batch, entering and leaving in topology rows like
    :func:`_route_array`.  The range's columns are reordered into pair
    order with one gather per call."""
    plan = stage_plan(order)
    batch, half = states.shape[0], plan.n_terminals // 2
    if rows is None:
        dtype = np.min_scalar_type(plan.n_terminals - 1)
        rows = np.repeat(np.arange(plan.n_terminals, dtype=dtype)[:, None],
                         batch, axis=1)
    rows = _to_positions(np, plan, rows, stages.start)
    # column of (stage i, pair p) in the flattened states
    pair_columns = plan.np_pair_maps()[1][stages.start:stages.stop] \
        + np.arange(stages.start * half, stages.stop * half, half)[:, None]
    conds = np.not_equal(
        states.reshape(batch, -1).take(pair_columns, axis=1)
        .transpose(1, 2, 0), 0, order="C",
    ).astype(rows.dtype)
    for stage, cond in zip(stages, conds):
        upper, lower = _halves(rows, plan.ctrl_bits[stage])
        _interchange(upper, lower, cond.reshape(upper.shape))
    return _to_rows(plan, rows, stages.stop)


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
        stage_states=(np.transpose(states_acc[0], (2, 0, 1))
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
    ``parallel`` instead.  The pure-Python kernels (``scalar``,
    ``bitslice``) take Python ints only, so an ndarray batch reaches
    them as lists, converted here with one ``.tolist()``.  An empty
    batch raises :class:`~repro.errors.InvalidParameterError` on every
    engine (no engine can infer ``N`` from zero rows).
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
                                        engine=engine, **options)
            scope = "call"
        else:
            if engine == "composed":
                options["parallel"] = parallel
            if enabled and op == "self_route":
                totals = options["_stage_totals"] = []
            np = numpy_or_none()
            if engine in ("scalar", "bitslice") and np is not None \
                    and isinstance(rows, np.ndarray):
                rows = rows.tolist()
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
        parallel: shard the batch across threads above the executor
            threshold (see :mod:`repro.accel.executor`); ``True``
            resolves to one worker per usable CPU, an int is an
            explicit worker count.  Results are identical for any
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
    engines.  ``parallel=`` shards large batches across threads with
    identical results; ``engine=`` selects the
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
        parallel: shard the batch across threads above the executor
            threshold; results identical for any value.
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
