"""``repro.accel.composed`` — the block-composed sub-network engine.

The paper's Theorems 4–6 show that J-partition block composites stay
routable because the Benes recursion *is* a block structure: after the
outermost ``levels`` recursion levels, the middle columns
``levels .. 2n-2-levels`` of ``B(n)`` are ``2^levels`` **independent**
``B(r)`` sub-networks (``r = n - levels``) on contiguous row blocks
``[k * 2^r, (k+1) * 2^r)``, with link permutations and control bits
that match ``stage_plan(r)`` locally (local control bit = global
control bit − ``levels``; local tag = global tag ``>> levels``).  This
module exploits that structure to route orders 16–20 (N = 65k–1M),
where every other engine would materialize the full ``O(N log N)``
state tensor at once:

- **peel** — the first ``levels`` levels of the batched Waksman
  looping setup run breadth-first
  (:func:`repro.accel.setup.peel_level_stream`), emitting the entry
  column of global stage ``d`` and the exit column of stage
  ``2n-2-d`` per level ``d`` plus the ``2^levels`` sub-network
  permutations, in ``O(N)`` working memory;
- **per-block dispatch** — each middle block is an ordinary
  ``B(r)``-sized problem handed to the existing batch engines
  (:func:`repro.accel.batch_self_route` /
  :func:`repro.accel.batch_setup_states`) as one more ``(B', 2^r)``
  batch, in bounded **chunks** of blocks, optionally sharded across
  the executor's threads via ``parallel=``;
- **streaming state** — :func:`iter_composed_states` yields finished
  switch columns and per-block state chunks as they are produced, so
  peak memory stays ``O(N / blocks * log N)`` per chunk plus ``O(N)``
  transit arrays — never the full tensor.

One setup stream serves both setup entry points on both platforms:
the peel, then :func:`repro.accel.batch_setup_states` in chunks over
the flat ``B * 2^levels`` block axis, as :class:`StateChunk` items.
:func:`iter_composed_states` forwards them and
:func:`composed_setup_states` assembles them, so the chunk accounting
(:func:`composed_stats`) is the same with and without NumPy.

Self-routing composes the same way (pinned byte-identical to
:func:`repro.core.fastpath.fast_self_route_states` by
``tests/test_composed.py``): transit the entry columns with the global
self-routing rule, self-route every block locally on tags ``>> levels``
(local omega mode = global omega mode: the global omega forcing covers
exactly the local forced stages), reconstruct each block's rows from
its delivered mapping, then transit the exit columns.  Stuck-switch
faults split by column: entry/exit faults apply during transit, middle
faults map to per-block local coordinates and route their blocks as
separate fault groups.  With NumPy the transits are the batch engine's
own stage loops (``_route_array``, ``_state_transit`` and ``_inverse``
of :mod:`repro.accel.batch`) run over the entry and exit columns only.

Every entry point works without NumPy — identical values, element for
element.  ``peel_level_stream(None, ...)`` runs the serial looping
assignment on every sub-problem of a level, and the blocks go to the
scalar or bit-sliced engines.  Self-routing and external-state routing
keep a pure-Python transit of their own, row by row, around the same
chunked block dispatch.  Routing whole rows on the inner engine
instead, measured with NumPy blocked at order 14, ranged from 1.3x
faster to 1.6x slower at B = 2–4 and was 1.4–4.6x faster at B >= 16
(DESIGN.md, "Scaling").  Neither wins everywhere, and no benchmark
workload runs without NumPy, so the loops stay.

The engine is the ``"composed"`` row of
:data:`repro.accel.kernels.KERNELS` and is auto-picked by
:func:`repro.accel.resolve_engine` above the
``BENES_COMPOSED_ORDER`` threshold (default 14).

Tunables (environment):

- ``BENES_COMPOSED_SUB_ORDER`` — target sub-network order ``r``
  (default 10, clamped to ``order - 1``);
- ``BENES_COMPOSED_CHUNK`` — blocks per dispatch chunk (default 16);
- ``BENES_COMPOSED_ORDER`` — auto-pick threshold (see
  :mod:`repro.accel._np`).

Each must be an integer >= 1; anything else raises
:class:`~repro.errors.InvalidParameterError`.

Observability: ``accel.composed.*`` counters (blocks dispatched, chunk
flushes, chunk-size histogram, calls/seconds) plus the pull-style
``accel.composed`` provider (:func:`composed_stats`) and the
``composed`` entry of :func:`repro.accel.cache_stats` — all flattened
into the OpenMetrics exporter catalogue automatically.
"""

from __future__ import annotations

from threading import Lock
from time import perf_counter as _perf_counter
from typing import NamedTuple, Optional

from .. import obs as _obs
from ..core.bits import log2_exact
from ..core.routing import BatchRouteResult
from ..core.switch import validate_stuck_switches
from ..errors import InvalidParameterError, SizeMismatchError
from ..obs.spans import spanned as _spanned
from . import setup as _setup
from ._np import auto_engine, env_int, numpy_or_none
from .batch import (
    _as_state_array,
    _as_tag_array,
    _batch_dims,
    _inverse,
    _reject_scalar_options,
    _route_array,
    _state_transit,
    _stuck_plan,
    _working_block,
    batch_route_with_states,
    batch_self_route,
)
from .plans import composed_plan_cache, stage_plan

__all__ = [
    "ComposedPlan",
    "DEFAULT_CHUNK_BLOCKS",
    "DEFAULT_SUB_ORDER",
    "StateChunk",
    "composed_in_class_f",
    "composed_plan",
    "composed_route_with_states",
    "composed_self_route",
    "composed_setup_states",
    "composed_stats",
    "composed_stats_clear",
    "iter_composed_states",
]

#: Target middle sub-network order ``r`` (override:
#: ``BENES_COMPOSED_SUB_ORDER``).  2^10-terminal blocks keep every
#: per-block problem comfortably inside the batch engines' sweet spot.
DEFAULT_SUB_ORDER = 10

#: Blocks dispatched per chunk flush (override:
#: ``BENES_COMPOSED_CHUNK``) — the knob bounding peak state memory.
DEFAULT_CHUNK_BLOCKS = 16


class ComposedPlan:
    """Per-(order, sub-order) constants of the block decomposition.

    Attributes:
        order: the paper's ``n``.
        n_terminals: ``N = 2^n``.
        sub_order: the middle sub-network order ``r``.
        levels: peel depth ``n - r`` (always >= 1).
        n_blocks: ``2^levels`` independent middle blocks.
        block_size: ``2^r`` terminals per block.
        block_half: ``2^(r-1)`` switches per block column.
        n_stages: ``2n - 1`` global switch columns.
        mid_stages: ``2r - 1`` columns owned by the middle blocks.
    """

    __slots__ = ("order", "n_terminals", "sub_order", "levels",
                 "n_blocks", "block_size", "block_half", "n_stages",
                 "mid_stages")

    def __init__(self, order: int, sub_order: int):
        self.order = order
        self.n_terminals = 1 << order
        self.sub_order = sub_order
        self.levels = order - sub_order
        self.n_blocks = 1 << self.levels
        self.block_size = 1 << sub_order
        self.block_half = self.block_size // 2
        self.n_stages = 2 * order - 1
        self.mid_stages = 2 * sub_order - 1


def composed_plan(order: int,
                  sub_order: Optional[int] = None) -> ComposedPlan:
    """The (cached) :class:`ComposedPlan` for ``B(order)``.

    ``sub_order`` defaults to ``BENES_COMPOSED_SUB_ORDER`` (or
    :data:`DEFAULT_SUB_ORDER`), clamped to ``[1, order - 1]`` so the
    peel is always at least one level deep; ``order`` must be >= 2
    (a single-switch network has nothing to decompose — callers
    delegate those to the inner engine directly).
    """
    if order < 2:
        raise InvalidParameterError(
            f"the composed engine decomposes B(order >= 2); got order "
            f"{order} — route it through the inner engine directly"
        )
    if sub_order is None:
        sub_order = env_int("BENES_COMPOSED_SUB_ORDER",
                            DEFAULT_SUB_ORDER)
    sub_order = max(1, min(int(sub_order), order - 1))
    return composed_plan_cache().get_or_build(
        (order, sub_order), lambda: ComposedPlan(order, sub_order)
    )


def _resolve_chunk(chunk_blocks) -> int:
    if chunk_blocks is not None:
        chunk = int(chunk_blocks)
        if chunk < 1:
            raise InvalidParameterError(
                f"chunk_blocks must be >= 1, got {chunk_blocks!r}"
            )
        return chunk
    return env_int("BENES_COMPOSED_CHUNK", DEFAULT_CHUNK_BLOCKS)


def _inner_engine(order, batch_size, kind: str = "route") -> str:
    """The engine composed hands its sub-network batches to: the
    ``auto`` policy minus its composed rule, so ``BENES_ENGINE=composed``
    (or the ``FORCE_ENGINE`` hook) can steer callers *into* this module
    without recursing back into it."""
    return auto_engine(order, batch_size, kind, composed=False)


# ----------------------------------------------------------------------
# Observability: push counters + one pull-style provider
# ----------------------------------------------------------------------

_STATS_LOCK = Lock()
_STATS = {"blocks": 0, "chunks": 0, "peak_chunk_bytes": 0}


def _note_chunk(n_blocks: int, nbytes: int) -> None:
    """Record one chunk flush: ``n_blocks`` sub-network problems
    dispatched, ``nbytes`` of state/tag payload in flight at once."""
    with _STATS_LOCK:
        _STATS["blocks"] += n_blocks
        _STATS["chunks"] += 1
        if nbytes > _STATS["peak_chunk_bytes"]:
            _STATS["peak_chunk_bytes"] = nbytes
    if _obs.enabled():
        _obs.inc("accel.composed.blocks", n_blocks)
        _obs.inc("accel.composed.chunks")
        _obs.observe("accel.composed.chunk_bytes", nbytes,
                     bounds=_obs.POW2_BOUNDS)


def composed_stats():
    """Lifetime chunking counters of the composed engine — blocks
    dispatched, chunk flushes, peak chunk payload bytes — the payload
    of the metrics registry's ``accel.composed`` provider (and the
    memory-model evidence the scaling bench reports)."""
    with _STATS_LOCK:
        return dict(_STATS)


def composed_stats_clear() -> None:
    """Zero the chunking counters (tests, bench isolation)."""
    with _STATS_LOCK:
        for key in _STATS:
            _STATS[key] = 0


# "composed_stats" (not "composed"): the flattened provider gauges must
# not collide with the accel.composed.{blocks,chunks} counters in the
# OpenMetrics exposition (one # TYPE per family name).
_obs.registry().register_provider("accel.composed_stats", composed_stats)


# ----------------------------------------------------------------------
# Fault splitting
# ----------------------------------------------------------------------

def _split_stuck(plan: ComposedPlan, stuck_switches):
    """Split a global ``{(stage, switch): state}`` fault map into the
    entry/exit part (applied during transit) and per-middle-block local
    maps ``{block: {(local_stage, local_switch): state}}`` — block
    ``k`` owns switch slice ``[k*w, (k+1)*w)`` of every middle column.
    """
    if not stuck_switches:
        return None, None
    half = plan.n_terminals // 2
    validate_stuck_switches(stuck_switches, plan.n_stages, half)
    first_exit = plan.n_stages - plan.levels
    outer, blocks = {}, {}
    for (stage, index), state in stuck_switches.items():
        if stage < plan.levels or stage >= first_exit:
            outer[(stage, index)] = 1 if state else 0
        else:
            k, loc = divmod(index, plan.block_half)
            blocks.setdefault(k, {})[(stage - plan.levels, loc)] = \
                1 if state else 0
    return (outer or None), (blocks or None)


def _block_groups(batch: int, n_blocks: int, stuck_blocks, chunk):
    """Yield ``(flat_indices, local_stuck_map)`` dispatch groups over
    the flat ``batch * n_blocks`` block axis (index ``b * n_blocks + k``
    is block ``k`` of instance ``b``): fault-free blocks in chunks, each
    faulted block as its own group (its local map applies to that block
    across every instance)."""
    stuck_blocks = stuck_blocks or {}
    clean = [i for i in range(batch * n_blocks)
             if i % n_blocks not in stuck_blocks]
    for start in range(0, len(clean), chunk):
        yield clean[start:start + chunk], None
    for k in sorted(stuck_blocks):
        column = [b * n_blocks + k for b in range(batch)]
        for start in range(0, batch, chunk):
            yield column[start:start + chunk], stuck_blocks[k]


# ----------------------------------------------------------------------
# Self-routing — NumPy path
# ----------------------------------------------------------------------

def _np_self_route(np, plan, arr, *, omega_mode, stage_data,
                   stage_states, stuck_outer, stuck_blocks, inner,
                   chunk, parallel):
    order = plan.order
    n = plan.n_terminals
    levels = plan.levels
    nb = plan.n_blocks
    w = plan.block_half
    batch = arr.shape[0]
    transit = dict(omega_mode=omega_mode,
                   stuck=_stuck_plan(np, order, stuck_outer))
    entry_cross, exit_cross = ([], []) if stage_data else (None, None)
    entry_cols, exit_cols = ([], []) if stage_states else (None, None)

    rows = _working_block(np, arr, n_value_bits=2 * order)
    rows |= np.arange(n, dtype=rows.dtype)[:, None] << order
    # Entry transit: every entry stage is < order - 1, so global omega
    # forcing covers all of them (matching the local forcing the middle
    # blocks apply for themselves).
    rows = _route_array(np, rows, order, stage_cross=entry_cross,
                        stage_states=entry_cols, stages=range(levels),
                        **transit)
    # the link into the middle blocks (the exit transit crosses the
    # link out of them itself)
    rows = rows[stage_plan(order).np_inv_links()[levels - 1]]

    # Middle blocks: local tags are global tags >> levels; each block
    # is one row of a (B * n_blocks, 2^r) batch routed by the inner
    # engine in bounded chunks.
    blocks_vals = np.ascontiguousarray(rows.T).reshape(batch * nb,
                                                       plan.block_size)
    local_tags = (blocks_vals & (n - 1)) >> levels
    mid_states = (np.empty((batch * nb, plan.mid_stages, w),
                           dtype=np.int8) if stage_states else None)
    mid_cross = (np.zeros((batch, plan.mid_stages), dtype=np.int64)
                 if stage_data else None)
    for flat, local_stuck in _block_groups(batch, nb, stuck_blocks,
                                           chunk):
        sel = np.asarray(flat, dtype=np.intp)
        chunk_tags = local_tags[sel]
        sub = batch_self_route(
            chunk_tags, omega_mode=omega_mode, stage_data=stage_data,
            stage_states=stage_states, stuck_switches=local_stuck,
            engine=inner, parallel=parallel,
        )
        _note_chunk(len(sel), int(chunk_tags.nbytes))
        mapp = np.asarray(sub.mappings)
        blocks_vals[sel] = np.take_along_axis(blocks_vals[sel], mapp,
                                              axis=1)
        if stage_states:
            mid_states[sel] = np.asarray(sub.stage_states,
                                         dtype=np.int8)
        if stage_data and sub.per_stage is not None:
            np.add.at(mid_cross, sel // nb,
                      np.asarray(sub.per_stage, dtype=np.int64).T)
    rows = np.ascontiguousarray(blocks_vals.reshape(batch, n).T)

    # Exit transit: no omega forcing ever applies here (every exit
    # stage is >= order).
    rows = _route_array(np, rows, order, stage_cross=exit_cross,
                        stage_states=exit_cols,
                        stages=range(plan.n_stages - levels,
                                     plan.n_stages),
                        **transit)

    tags = rows & (n - 1)
    success = (tags == np.arange(n, dtype=rows.dtype)[:, None]) \
        .all(axis=0)
    mappings = (rows >> order).T.astype(np.int64)
    states_out = None
    if stage_states:
        mid_full = mid_states.reshape(batch, nb, plan.mid_stages, w) \
            .transpose(0, 2, 1, 3).reshape(batch, plan.mid_stages, n // 2)
        entry_arr = np.transpose(entry_cols[0], (2, 0, 1))
        exit_arr = np.transpose(exit_cols[0], (2, 0, 1))
        states_out = np.concatenate([entry_arr, mid_full, exit_arr],
                                    axis=1)
    per_stage = None
    if stage_data:
        per_stage = np.concatenate([
            np.array(entry_cross, dtype=np.int64),
            mid_cross.T,
            np.array(exit_cross, dtype=np.int64),
        ], axis=0)
    return BatchRouteResult(success_mask=success, mappings=mappings,
                            per_stage=per_stage,
                            stage_states=states_out)


# ----------------------------------------------------------------------
# Self-routing — pure-Python path (no NumPy)
# ----------------------------------------------------------------------

def _scalar_transit_stage(n, link, tags, srcs):
    """One link crossing of the scalar transit: scatter both carried
    arrays through ``link`` (``new[link[r]] = old[r]``)."""
    nt = [0] * n
    ns = [0] * n
    for r in range(n):
        target = link[r]
        nt[target] = tags[r]
        ns[target] = srcs[r]
    return nt, ns


def _scalar_column(n, ctrl, tags, forced, stuck_outer, stage):
    """The 0/1 decision column of one transit stage: the self-routing
    rule on the upper input's tag (all-straight when omega-``forced``),
    then stuck overrides."""
    col = [0] * (n // 2)
    if not forced:
        for i in range(0, n, 2):
            if (tags[i] >> ctrl) & 1:
                col[i >> 1] = 1
    if stuck_outer:
        for (st, idx), state in stuck_outer.items():
            if st == stage:
                col[idx] = state
    return col


def _scalar_apply_column(col, tags, srcs):
    for i2, crossed in enumerate(col):
        if crossed:
            i = 2 * i2
            tags[i], tags[i + 1] = tags[i + 1], tags[i]
            srcs[i], srcs[i + 1] = srcs[i + 1], srcs[i]


def _scalar_self_route(plan, rows_batch, *, omega_mode, stage_states,
                       stuck_outer, stuck_blocks, inner, chunk,
                       parallel):
    order = plan.order
    n = plan.n_terminals
    levels = plan.levels
    nb = plan.n_blocks
    m = plan.block_size
    sp = stage_plan(order)
    omega_stages = order - 1 if omega_mode else 0
    batch = len(rows_batch)

    all_tags, all_srcs = [], []
    entry_cols = [None] * batch if stage_states else None
    for b, row in enumerate(rows_batch):
        tags = [int(t) for t in row]
        if len(tags) != n:
            raise SizeMismatchError(
                f"expected rows of {n} tags for order {order}, got "
                f"{len(tags)}"
            )
        for t in tags:
            if not 0 <= t < n:
                raise InvalidParameterError(
                    f"destination tags must lie in [0, {n}) — "
                    "out-of-range values cannot address any output"
                )
        srcs = list(range(n))
        cols = [] if stage_states else None
        for stage in range(levels):
            col = _scalar_column(n, sp.ctrl_bits[stage], tags,
                                 stage < omega_stages, stuck_outer,
                                 stage)
            _scalar_apply_column(col, tags, srcs)
            if stage_states:
                cols.append(tuple(col))
            tags, srcs = _scalar_transit_stage(n, sp.links[stage],
                                               tags, srcs)
        all_tags.append(tags)
        all_srcs.append(srcs)
        if stage_states:
            entry_cols[b] = cols

    mid_states = [[None] * nb for _ in range(batch)] if stage_states \
        else None
    for flat, local_stuck in _block_groups(batch, nb, stuck_blocks,
                                           chunk):
        items = [divmod(i, nb) for i in flat]
        sub = batch_self_route(
            [[t >> levels for t in all_tags[b][k * m:(k + 1) * m]]
             for b, k in items],
            omega_mode=omega_mode, stage_states=stage_states,
            stuck_switches=local_stuck, engine=inner, parallel=parallel,
        )
        _note_chunk(len(items), len(items) * m)
        for i, (b, k) in enumerate(items):
            base = k * m
            tags_b, srcs_b = all_tags[b], all_srcs[b]
            tags_b[base:base + m] = [tags_b[base + o]
                                     for o in sub.mappings[i]]
            srcs_b[base:base + m] = [srcs_b[base + o]
                                     for o in sub.mappings[i]]
            if stage_states:
                mid_states[b][k] = sub.stage_states[i]

    success, mappings = [], []
    states_out = [] if stage_states else None
    first_exit = plan.n_stages - levels
    for b in range(batch):
        tags, srcs = all_tags[b], all_srcs[b]
        exit_cols = [] if stage_states else None
        for stage in range(first_exit, plan.n_stages):
            tags, srcs = _scalar_transit_stage(n, sp.links[stage - 1],
                                               tags, srcs)
            col = _scalar_column(n, sp.ctrl_bits[stage], tags, False,
                                 stuck_outer, stage)
            _scalar_apply_column(col, tags, srcs)
            if stage_states:
                exit_cols.append(tuple(col))
        success.append(all(tags[i] == i for i in range(n)))
        mappings.append(tuple(srcs))
        if stage_states:
            mid_cols = []
            for s_local in range(plan.mid_stages):
                col = []
                for k in range(nb):
                    col.extend(mid_states[b][k][s_local])
                mid_cols.append(tuple(col))
            states_out.append(tuple(entry_cols[b]) + tuple(mid_cols)
                              + tuple(exit_cols))
    return BatchRouteResult(success_mask=success, mappings=mappings,
                            stage_states=states_out)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

@_spanned("composed.self_route")
def composed_self_route(tags_batch, *, omega_mode=False,
                        stage_data=False, stage_states=False,
                        stuck_switches=None, parallel=False,
                        engine=None, sub_order=None, chunk_blocks=None,
                        _stage_totals=None,
                        **scalar_options) -> BatchRouteResult:
    """Self-route a batch of tag vectors by block decomposition —
    value-identical to :func:`repro.accel.batch_self_route` for every
    option combination, but the middle ``2(n - levels) - 1`` stages are
    routed as ``2^levels`` independent sub-network problems in bounded
    chunks.

    Beyond the :func:`~repro.accel.batch_self_route` keywords:

    Args:
        engine: the **inner** engine the sub-network batches run on
            (default: the ``auto`` policy without its composed rule).
            The outer decomposition is always this module.
        sub_order: middle sub-network order ``r`` (default:
            ``BENES_COMPOSED_SUB_ORDER`` clamped to ``order - 1``).
        chunk_blocks: blocks per dispatch chunk (default:
            ``BENES_COMPOSED_CHUNK``).

    ``stage_states=True`` assembles the full state tensor (that is its
    contract) — stream via :func:`iter_composed_states` instead when
    memory is the point.  ``stage_data`` is served on the NumPy path
    and ``None`` otherwise, exactly like the batch engine's fallback.
    ``_stage_totals`` (the kernel table's metrics tap) stays empty: the
    block batches record their own stage crosses.
    """
    _reject_scalar_options("composed_self_route", scalar_options)
    np = numpy_or_none()
    enabled = _obs.enabled()
    t0 = _perf_counter() if enabled else 0.0
    b_hint, n_hint = _batch_dims(tags_batch)
    if n_hint is None:
        raise SizeMismatchError("expected a (B, N) batch of tag vectors")
    order = log2_exact(n_hint)
    if order < 2:
        return batch_self_route(
            tags_batch, omega_mode=omega_mode, stage_data=stage_data,
            stage_states=stage_states, stuck_switches=stuck_switches,
            parallel=parallel,
            engine=engine or _inner_engine(order, b_hint),
        )
    plan = composed_plan(order, sub_order)
    inner = engine or _inner_engine(plan.sub_order, b_hint)
    chunk = _resolve_chunk(chunk_blocks)
    stuck_outer, stuck_blocks = _split_stuck(plan, stuck_switches)
    if np is not None:
        arr = _as_tag_array(np, tags_batch)
        result = _np_self_route(
            np, plan, arr, omega_mode=omega_mode,
            stage_data=stage_data, stage_states=stage_states,
            stuck_outer=stuck_outer, stuck_blocks=stuck_blocks,
            inner=inner, chunk=chunk, parallel=parallel,
        )
    else:
        rows = tags_batch if isinstance(tags_batch, list) \
            else list(tags_batch)
        result = _scalar_self_route(
            plan, rows, omega_mode=omega_mode,
            stage_states=stage_states, stuck_outer=stuck_outer,
            stuck_blocks=stuck_blocks, inner=inner, chunk=chunk,
            parallel=parallel,
        )
    if enabled:
        _obs.inc("accel.composed.calls")
        _obs.observe("accel.composed.seconds", _perf_counter() - t0)
    return result


def composed_in_class_f(perms_batch, *, parallel=False, engine=None,
                        sub_order=None, chunk_blocks=None,
                        **scalar_options):
    """F(n) membership mask by composed routing — Theorem 1 success of
    :func:`composed_self_route` (the per-block successes *and* the
    entry/exit transits must all deliver)."""
    _reject_scalar_options("composed_in_class_f", scalar_options)
    result = composed_self_route(
        perms_batch, parallel=parallel, engine=engine,
        sub_order=sub_order, chunk_blocks=chunk_blocks,
    )
    return result.success_mask


def _np_route_with_states(np, plan, states, *, stage_data, inner,
                          chunk, parallel):
    order = plan.order
    levels = plan.levels
    nb = plan.n_blocks
    w = plan.block_half
    batch = states.shape[0]
    rows = _state_transit(np, states, order, range(levels))
    # the link into the middle blocks, as in _np_self_route
    rows = rows[stage_plan(order).np_inv_links()[levels - 1]]
    blocks_vals = np.ascontiguousarray(rows.T).reshape(batch * nb,
                                                       plan.block_size)
    local_states = np.ascontiguousarray(
        states[:, levels:plan.n_stages - levels, :]
        .reshape(batch, plan.mid_stages, nb, w).transpose(0, 2, 1, 3)
    ).reshape(batch * nb, plan.mid_stages, w)
    for start in range(0, batch * nb, chunk):
        stop = min(start + chunk, batch * nb)
        chunk_states = local_states[start:stop]
        sub = batch_route_with_states(chunk_states, plan.sub_order,
                                      engine=inner, parallel=parallel)
        _note_chunk(stop - start, int(chunk_states.nbytes))
        # sub.mappings[j][input] = output; reconstruction needs the
        # inverse view delivered[output] = input.
        delivered = _inverse(np, np.asarray(sub.mappings))
        blocks_vals[start:stop] = np.take_along_axis(
            blocks_vals[start:stop], delivered, axis=1
        )
    rows = np.ascontiguousarray(
        blocks_vals.reshape(batch, plan.n_terminals).T)
    rows = _state_transit(np, states, order,
                          range(plan.n_stages - levels, plan.n_stages),
                          rows)
    return BatchRouteResult(
        success_mask=np.ones(batch, dtype=bool),
        mappings=_inverse(np, rows.T),
        per_stage=((states != 0).sum(axis=2).T if stage_data else None),
    )


def _scalar_route_with_states(plan, states_batch, *, inner, chunk,
                              parallel):
    order = plan.order
    n = plan.n_terminals
    levels = plan.levels
    nb = plan.n_blocks
    m = plan.block_size
    w = plan.block_half
    sp = stage_plan(order)
    mappings = []
    for inst in states_batch:
        srcs = list(range(n))
        tags = [0] * n  # unused by external-state transit
        for stage in range(levels):
            col = [1 if s else 0 for s in inst[stage]]
            _scalar_apply_column(col, tags, srcs)
            tags, srcs = _scalar_transit_stage(n, sp.links[stage],
                                               tags, srcs)
        for start in range(0, nb, chunk):
            stop = min(start + chunk, nb)
            chunk_states = [
                [list(inst[levels + s][k * w:(k + 1) * w])
                 for s in range(plan.mid_stages)]
                for k in range(start, stop)
            ]
            sub = batch_route_with_states(chunk_states, plan.sub_order,
                                          engine=inner,
                                          parallel=parallel)
            _note_chunk(stop - start,
                        (stop - start) * plan.mid_stages * w)
            for i, k in enumerate(range(start, stop)):
                realized = sub.mappings[i]  # input -> output
                delivered = [0] * m
                for src, out in enumerate(realized):
                    delivered[out] = src
                base = k * m
                srcs[base:base + m] = [srcs[base + delivered[o]]
                                       for o in range(m)]
        for stage in range(plan.n_stages - levels, plan.n_stages):
            tags, srcs = _scalar_transit_stage(n, sp.links[stage - 1],
                                               tags, srcs)
            col = [1 if s else 0 for s in inst[stage]]
            _scalar_apply_column(col, tags, srcs)
        dest = [0] * n
        for out, src in enumerate(srcs):
            dest[src] = out
        mappings.append(tuple(dest))
    return BatchRouteResult(success_mask=[True] * len(mappings),
                            mappings=mappings)


@_spanned("composed.route_with_states")
def composed_route_with_states(states_batch, order: int, *,
                               stage_data=False, parallel=False,
                               engine=None, sub_order=None,
                               chunk_blocks=None,
                               **scalar_options) -> BatchRouteResult:
    """Realized permutations under external switch states, routed by
    block decomposition — the topology split is state-independent, so
    each middle block's columns slice straight out of the global state
    tensor and route as a ``B(r)`` external-state problem.  Value-
    identical to :func:`repro.accel.batch_route_with_states`."""
    _reject_scalar_options("composed_route_with_states",
                           scalar_options)
    np = numpy_or_none()
    enabled = _obs.enabled()
    t0 = _perf_counter() if enabled else 0.0
    try:
        b_hint = len(states_batch)
    except TypeError:
        b_hint = None
    if order < 2:
        return batch_route_with_states(
            states_batch, order, stage_data=stage_data,
            parallel=parallel,
            engine=engine or _inner_engine(order, b_hint),
        )
    plan = composed_plan(order, sub_order)
    inner = engine or _inner_engine(plan.sub_order, b_hint)
    chunk = _resolve_chunk(chunk_blocks)
    if np is not None:
        result = _np_route_with_states(
            np, plan, _as_state_array(np, states_batch, order),
            stage_data=stage_data, inner=inner, chunk=chunk,
            parallel=parallel,
        )
    else:
        rows = states_batch if isinstance(states_batch, list) \
            else list(states_batch)
        result = _scalar_route_with_states(
            plan, rows, inner=inner, chunk=chunk, parallel=parallel,
        )
    if enabled:
        _obs.inc("accel.composed.calls")
        _obs.observe("accel.composed.seconds", _perf_counter() - t0)
    return result


# ----------------------------------------------------------------------
# Universal setup: assembled and streaming forms
# ----------------------------------------------------------------------

class StateChunk(NamedTuple):
    """One streamed piece of a composed universal setup.

    Attributes:
        kind: ``"column"`` — one finished global switch column from the
            peel — or ``"blocks"`` — the middle states of a chunk of
            sub-network blocks.
        stage: the global switch column index for ``"column"`` chunks
            (entry columns ``0..levels-1``, exit columns
            ``2n-2 .. 2n-1-levels`` interleaved), ``-1`` otherwise.
        block_start: first block covered by a ``"blocks"`` chunk, as
            an index into the flat ``B * n_blocks`` block axis (for one
            permutation, the block index itself).
        states: the ``(N/2,)`` column, or the
            ``(chunk, 2r-1, 2^(r-1))`` per-block state tensor.
        perms: the ``(chunk, 2^r)`` local sub-permutations of a
            ``"blocks"`` chunk (``None`` for columns) — what a sampled
            parity check feeds the scalar oracle.
    """

    kind: str
    stage: int
    block_start: int
    states: object
    perms: object = None


def _setup_stream(np, plan, rows, *, inner, chunk, parallel=False):
    """The composed universal setup of the validated batch ``rows``
    (:func:`repro.accel.setup._as_perm_array`), as :class:`StateChunk`
    items: a ``"column"`` item per finished peel column, holding it for
    every instance (``B`` rows of ``N/2``), then ``"blocks"`` items of
    at most ``chunk`` blocks over the flat ``B * n_blocks`` axis —
    ``block_start`` is a flat index, block ``i`` being block
    ``i % n_blocks`` of instance ``i // n_blocks``.

    Both setup entry points consume this one stream.  The peel and the
    block setup are looked up on :mod:`repro.accel.setup` per call, so
    wrapping them there (``bench/layers.py``) times this path."""
    subs = None
    for kind, level, payload in _setup.peel_level_stream(
            np, plan.order, rows, plan.levels):
        if kind == "subs":
            subs = payload
        else:
            stage = level if kind == "entry" else plan.n_stages - 1 - level
            yield StateChunk("column", stage, 0, payload)
    for start in range(0, len(subs), chunk):
        sel = subs[start:start + chunk]
        states = _setup.batch_setup_states(plan.sub_order, sel,
                                           engine=inner, parallel=parallel)
        if np is not None:
            states = np.asarray(states, dtype=np.int8)
        _note_chunk(len(sel), len(sel) * plan.mid_stages * plan.block_half)
        yield StateChunk("blocks", -1, start, states, sel)


@_spanned("composed.setup")
def composed_setup_states(order: int, perms, *, parallel=False,
                          engine=None, sub_order=None,
                          chunk_blocks=None):
    """Assembled switch states for a batch of **arbitrary**
    permutations via peel + per-block setup — byte-identical to
    :func:`repro.accel.batch_setup_states` (pinned by
    ``tests/test_composed.py`` / the ``composed`` verify family).

    This materializes the full ``(B, 2n-1, N/2)`` tensor because that
    is its contract (the verify adapters compare it whole); the
    memory-bounded form is :func:`iter_composed_states`.
    """
    np = numpy_or_none()
    enabled = _obs.enabled()
    t0 = _perf_counter() if enabled else 0.0
    if order < 2:
        return _setup.batch_setup_states(
            order, perms, parallel=parallel,
            engine=engine or _inner_engine(order, None, kind="setup"),
        )
    plan = composed_plan(order, sub_order)
    inner = engine or _inner_engine(plan.sub_order, None, kind="setup")
    chunk = _resolve_chunk(chunk_blocks)
    rows = _setup._as_perm_array(np, order, perms)
    half, w = plan.n_terminals // 2, plan.block_half
    if np is not None:
        states = np.empty((len(rows), plan.n_stages, half), dtype=np.int8)
    else:
        states = [[[0] * half for _ in range(plan.n_stages)]
                  for _ in rows]
    for piece in _setup_stream(np, plan, rows, inner=inner, chunk=chunk,
                               parallel=parallel):
        if piece.kind == "column":
            for b, column in enumerate(piece.states):
                states[b][piece.stage] = column
            continue
        for i, block in enumerate(piece.states, piece.block_start):
            b, k = divmod(i, plan.n_blocks)
            for stage, column in enumerate(block, plan.levels):
                states[b][stage][k * w:(k + 1) * w] = column
    if enabled:
        _obs.inc("accel.composed.calls")
        _obs.observe("accel.composed.seconds", _perf_counter() - t0)
    return states


def iter_composed_states(order: int, perm, *, engine=None,
                         sub_order=None, chunk_blocks=None):
    """Stream the composed universal setup of one permutation as
    :class:`StateChunk` items — the memory-bounded form of
    :func:`composed_setup_states` (``B(order)`` routes a million ports
    without ever holding its ``N log N`` state tensor).

    Entry/exit columns are yielded the moment the peel finishes them
    (``O(N)`` live working set); middle blocks follow in chunks of
    ``chunk_blocks`` sub-networks, each with its local permutations
    attached so consumers can spot-check any chunk against the scalar
    oracle (``setup_states(chunk.perms[i])``) byte for byte.
    """
    np = numpy_or_none()
    plan = composed_plan(order, sub_order)
    chunk = _resolve_chunk(chunk_blocks)
    inner = engine or _inner_engine(plan.sub_order, None, kind="setup")
    rows = _setup._as_perm_array(np, order, [perm])
    for piece in _setup_stream(np, plan, rows, inner=inner, chunk=chunk):
        if piece.kind == "column":
            piece = piece._replace(states=piece.states[0])
        yield piece
