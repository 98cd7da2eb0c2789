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
  the spawn-pool executor via ``parallel=``;
- **streaming state** — :func:`iter_composed_states` yields finished
  switch columns and per-block state chunks as they are produced, so
  peak memory stays ``O(N / blocks * log N)`` per chunk plus ``O(N)``
  transit arrays — never the full tensor.

Self-routing composes the same way (pinned byte-identical to
:func:`repro.core.fastpath.fast_self_route_states` by
``tests/test_composed.py``): transit the entry columns with the global
self-routing rule, self-route every block locally on tags ``>> levels``
(local omega mode = global omega mode: the global omega forcing covers
exactly the local forced stages), reconstruct each block's rows from
its delivered mapping, then transit the exit columns.  Stuck-switch
faults split by column: entry/exit faults apply during transit, middle
faults map to per-block local coordinates and route their blocks as
separate fault groups.

Every entry point works without NumPy (pure-Python peel over
:func:`repro.core.waksman.looping_assignment`, per-block dispatch to
the scalar or bit-sliced engines) — identical values, element for
element.  The engine is the ``"composed"`` row of
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
from ..core.routing import BatchRouteResult
from ..core.switch import validate_stuck_switches
from ..errors import InvalidParameterError, SizeMismatchError
from ..obs.spans import spanned as _spanned
from ._np import auto_engine, env_int, numpy_or_none
from .batch import (
    _as_tag_array,
    _batch_dims,
    _order_hint,
    _reject_scalar_options,
    _stuck_plan,
    _swap_stage,
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


def _block_groups(np, batch: int, n_blocks: int, stuck_blocks, chunk):
    """Yield ``(block_row_indices, local_stuck_map)`` dispatch groups
    over the flat ``batch * n_blocks`` block-row axis: fault-free
    blocks in contiguous chunks, each faulted block as its own group
    (its local map applies to that block across every instance)."""
    total = batch * n_blocks
    if not stuck_blocks:
        for start in range(0, total, chunk):
            yield np.arange(start, min(start + chunk, total),
                            dtype=np.intp), None
        return
    clean = np.array(
        [i for i in range(total) if i % n_blocks not in stuck_blocks],
        dtype=np.intp,
    )
    for start in range(0, len(clean), chunk):
        yield clean[start:start + chunk], None
    for k in sorted(stuck_blocks):
        idx = np.arange(batch, dtype=np.intp) * n_blocks + k
        for start in range(0, batch, chunk):
            yield idx[start:start + chunk], stuck_blocks[k]


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
    m = plan.block_size
    w = plan.block_half
    half = n // 2
    batch = arr.shape[0]
    sp = stage_plan(order)
    inv_links = sp.np_inv_links()
    outer_plan = _stuck_plan(np, order, stuck_outer) if stuck_outer \
        else None
    omega_stages = order - 1 if omega_mode else 0

    rows = _working_block(np, arr, n_value_bits=2 * order)
    rows |= np.arange(n, dtype=rows.dtype)[:, None] << order
    entry_cross, exit_cross = [], []
    entry_cols, exit_cols = [], []
    # Entry transit: every entry stage is < order - 1, so global omega
    # forcing covers all of them (matching the local forcing the middle
    # blocks apply for themselves).
    for stage in range(levels):
        stuck_here = outer_plan.get(stage) if outer_plan else None
        if stage < omega_stages:
            cond = np.zeros((half, batch), dtype=rows.dtype)
        else:
            cond = (rows[0::2, :] >> sp.ctrl_bits[stage]) & 1
        if stuck_here is not None:
            indices, vals = stuck_here
            cond[indices, :] = vals.astype(rows.dtype)[:, None]
        if stage_data:
            entry_cross.append(cond.sum(axis=0, dtype=np.int64))
        if stage_states:
            entry_cols.append(cond.astype(np.int8))
        _swap_stage(rows, cond)
        rows = rows[inv_links[stage]]

    # Middle blocks: local tags are global tags >> levels; each block
    # is one row of a (B * n_blocks, 2^r) batch routed by the inner
    # engine in bounded chunks.
    blocks_vals = np.ascontiguousarray(rows.T).reshape(batch * nb, m)
    local_tags = (blocks_vals & (n - 1)) >> levels
    mid_states = (np.empty((batch * nb, plan.mid_stages, w),
                           dtype=np.int8) if stage_states else None)
    mid_cross = (np.zeros((batch, plan.mid_stages), dtype=np.int64)
                 if stage_data else None)
    for sel, local_stuck in _block_groups(np, batch, nb, stuck_blocks,
                                          chunk):
        if not len(sel):
            continue
        chunk_tags = local_tags[sel]
        sub = batch_self_route(
            chunk_tags, omega_mode=omega_mode, stage_data=stage_data,
            stage_states=stage_states, stuck_switches=local_stuck,
            engine=inner, parallel=parallel,
        )
        _note_chunk(int(len(sel)), int(chunk_tags.nbytes))
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

    # Exit transit: the link INTO stage s is links[s - 1]; no omega
    # forcing ever applies here (every exit stage is >= order).
    for stage in range(plan.n_stages - levels, plan.n_stages):
        rows = rows[inv_links[stage - 1]]
        stuck_here = outer_plan.get(stage) if outer_plan else None
        cond = (rows[0::2, :] >> sp.ctrl_bits[stage]) & 1
        if stuck_here is not None:
            indices, vals = stuck_here
            cond[indices, :] = vals.astype(rows.dtype)[:, None]
        if stage_data:
            exit_cross.append(cond.sum(axis=0, dtype=np.int64))
        if stage_states:
            exit_cols.append(cond.astype(np.int8))
        _swap_stage(rows, cond)

    tags = rows & (n - 1)
    success = (tags == np.arange(n, dtype=rows.dtype)[:, None]) \
        .all(axis=0)
    mappings = (rows >> order).T.astype(np.int64)
    states_out = None
    if stage_states:
        mid_full = mid_states.reshape(batch, nb, plan.mid_stages, w) \
            .transpose(0, 2, 1, 3).reshape(batch, plan.mid_stages, half)
        entry_arr = np.transpose(np.array(entry_cols), (2, 0, 1))
        exit_arr = np.transpose(np.array(exit_cols), (2, 0, 1))
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

    def flush(items, local_stuck):
        if not items:
            return
        chunk_rows = [
            [all_tags[b][k * m + j] >> levels for j in range(m)]
            for (b, k) in items
        ]
        sub = batch_self_route(
            chunk_rows, omega_mode=omega_mode,
            stage_states=stage_states, stuck_switches=local_stuck,
            engine=inner, parallel=parallel,
        )
        _note_chunk(len(items), len(items) * m)
        for i, (b, k) in enumerate(items):
            mapping = sub.mappings[i]
            base = k * m
            tags_b, srcs_b = all_tags[b], all_srcs[b]
            new_t = [tags_b[base + mapping[o]] for o in range(m)]
            new_s = [srcs_b[base + mapping[o]] for o in range(m)]
            tags_b[base:base + m] = new_t
            srcs_b[base:base + m] = new_s
            if stage_states:
                mid_states[b][k] = sub.stage_states[i]

    clean = [(b, k) for b in range(batch) for k in range(nb)
             if not (stuck_blocks and k in stuck_blocks)]
    for start in range(0, len(clean), chunk):
        flush(clean[start:start + chunk], None)
    if stuck_blocks:
        for k in sorted(stuck_blocks):
            items = [(b, k) for b in range(batch)]
            for start in range(0, len(items), chunk):
                flush(items[start:start + chunk], stuck_blocks[k])

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
    order = _order_hint(n_hint)
    if order is None:
        raise SizeMismatchError(
            "expected a (B, N) batch of tag vectors with N a positive "
            f"power of two, got row width {n_hint!r}"
        )
    if order < 2:
        return batch_self_route(
            tags_batch, omega_mode=omega_mode, stage_data=stage_data,
            stage_states=stage_states, stuck_switches=stuck_switches,
            parallel=parallel, engine=_inner_engine(order, b_hint),
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
    n = plan.n_terminals
    levels = plan.levels
    nb = plan.n_blocks
    m = plan.block_size
    w = plan.block_half
    batch = states.shape[0]
    sp = stage_plan(order)
    inv_links = sp.np_inv_links()
    dtype = np.int32 if order <= 31 else np.int64
    rows = np.repeat(np.arange(n, dtype=dtype)[:, None], batch, axis=1)
    for stage in range(levels):
        cond = (states[:, stage, :].T != 0).astype(dtype)
        _swap_stage(rows, cond)
        rows = rows[inv_links[stage]]
    blocks_vals = np.ascontiguousarray(rows.T).reshape(batch * nb, m)
    local_states = np.ascontiguousarray(
        states[:, levels:plan.n_stages - levels, :]
        .reshape(batch, plan.mid_stages, nb, w).transpose(0, 2, 1, 3)
    ).reshape(batch * nb, plan.mid_stages, w)
    out_idx = np.arange(m)
    for start in range(0, batch * nb, chunk):
        stop = min(start + chunk, batch * nb)
        chunk_states = local_states[start:stop]
        sub = batch_route_with_states(chunk_states, plan.sub_order,
                                      engine=inner, parallel=parallel)
        _note_chunk(stop - start, int(chunk_states.nbytes))
        # sub.mappings[j][input] = output; reconstruction needs the
        # inverse view delivered[output] = input.
        mapp = np.asarray(sub.mappings)
        delivered = np.empty_like(mapp)
        np.put_along_axis(delivered, mapp,
                          np.broadcast_to(out_idx, mapp.shape), axis=1)
        blocks_vals[start:stop] = np.take_along_axis(
            blocks_vals[start:stop], delivered, axis=1
        )
    rows = np.ascontiguousarray(blocks_vals.reshape(batch, n).T)
    for stage in range(plan.n_stages - levels, plan.n_stages):
        rows = rows[inv_links[stage - 1]]
        cond = (states[:, stage, :].T != 0).astype(rows.dtype)
        _swap_stage(rows, cond)
    rows = rows.T.astype(np.int64)
    dest = np.empty_like(rows)
    np.put_along_axis(
        dest, rows,
        np.broadcast_to(np.arange(n, dtype=np.int64), (batch, n)),
        axis=1,
    )
    return BatchRouteResult(
        success_mask=np.ones(batch, dtype=bool),
        mappings=dest,
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
            parallel=parallel, engine=_inner_engine(order, b_hint),
        )
    plan = composed_plan(order, sub_order)
    inner = engine or _inner_engine(plan.sub_order, b_hint)
    chunk = _resolve_chunk(chunk_blocks)
    if np is not None:
        states = np.asarray(states_batch, dtype=np.int64)
        expected = (plan.n_stages, plan.n_terminals // 2)
        if states.ndim != 3 or states.shape[1:] != expected:
            raise SizeMismatchError(
                f"expected a (B, {expected[0]}, {expected[1]}) batch "
                f"of switch states for order {order}, got shape "
                f"{states.shape}"
            )
        result = _np_route_with_states(
            np, plan, states, stage_data=stage_data, inner=inner,
            chunk=chunk, parallel=parallel,
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

def _as_row(perm):
    as_tuple = getattr(perm, "as_tuple", None)
    return list(as_tuple()) if callable(as_tuple) else list(perm)


def _scalar_peel_stream(row, levels: int):
    """Pure-Python twin of
    :func:`repro.accel.setup.peel_level_stream` for one permutation:
    breadth-first truncation of the serial Waksman recursion
    (:func:`repro.core.waksman.looping_assignment` per sub-problem),
    yielding single-instance columns/sub-permutation lists."""
    from ..core.waksman import looping_assignment

    subs = [list(row)]
    for level in range(levels):
        first_col, last_col, nxt = [], [], []
        for tags in subs:
            half = len(tags) // 2
            side = looping_assignment(tags)
            first_col.extend(side[2 * i] for i in range(half))
            inverse = [0] * len(tags)
            for t, d in enumerate(tags):
                inverse[d] = t
            last_col.extend(side[inverse[2 * j]] for j in range(half))
            upper = [0] * half
            lower = [0] * half
            for t, d in enumerate(tags):
                (upper if side[t] == 0 else lower)[t >> 1] = d >> 1
            nxt.append(upper)
            nxt.append(lower)
        yield ("entry", level, first_col)
        yield ("exit", level, last_col)
        subs = nxt
    yield ("subs", -1, subs)


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
        from .setup import batch_setup_states

        return batch_setup_states(
            order, perms, parallel=parallel,
            engine=_inner_engine(order, None, kind="setup"),
        )
    plan = composed_plan(order, sub_order)
    inner = engine or _inner_engine(plan.sub_order, None, kind="setup")
    chunk = _resolve_chunk(chunk_blocks)
    levels = plan.levels
    w = plan.block_half
    from .setup import _as_perm_array, batch_setup_states, \
        peel_level_stream

    if np is not None:
        arr = _as_perm_array(np, order, perms)
        batch = arr.shape[0]
        states = np.empty((batch, plan.n_stages,
                           plan.n_terminals // 2), dtype=np.int8)
        subs = None
        for kind, level, payload in peel_level_stream(np, order, arr,
                                                      levels):
            if kind == "entry":
                states[:, level, :] = payload
            elif kind == "exit":
                states[:, 2 * order - 2 - level, :] = payload
            else:
                subs = payload
        mid = states[:, levels:plan.n_stages - levels, :]
        total = batch * plan.n_blocks
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            st = np.asarray(
                batch_setup_states(plan.sub_order, subs[start:stop],
                                   engine=inner, parallel=parallel),
                dtype=np.int8,
            )
            _note_chunk(stop - start, int(st.nbytes))
            for i in range(start, stop):
                b, k = divmod(i, plan.n_blocks)
                mid[b, :, k * w:(k + 1) * w] = st[i - start]
        result = states
    else:
        from ..core.permutation import Permutation

        out = []
        for row in (perms if isinstance(perms, list) else list(perms)):
            row = _as_row(Permutation(_as_row(row)))  # validates
            if len(row) != plan.n_terminals:
                raise SizeMismatchError(
                    f"expected permutations of {plan.n_terminals} "
                    f"elements for order {order}, got {len(row)}"
                )
            cols = [None] * plan.n_stages
            subs = None
            for kind, level, payload in _scalar_peel_stream(row,
                                                            levels):
                if kind == "entry":
                    cols[level] = list(payload)
                elif kind == "exit":
                    cols[2 * order - 2 - level] = list(payload)
                else:
                    subs = payload
            for s in range(levels, plan.n_stages - levels):
                cols[s] = []
            for start in range(0, len(subs), chunk):
                chunk_subs = subs[start:start + chunk]
                sub_states = batch_setup_states(
                    plan.sub_order, chunk_subs, engine=inner,
                    parallel=parallel,
                )
                _note_chunk(len(chunk_subs),
                            len(chunk_subs) * plan.mid_stages * w)
                for st in sub_states:
                    for s_local in range(plan.mid_stages):
                        cols[levels + s_local].extend(st[s_local])
            out.append(cols)
        result = out
    if enabled:
        _obs.inc("accel.composed.calls")
        _obs.observe("accel.composed.seconds", _perf_counter() - t0)
    return result


class StateChunk(NamedTuple):
    """One streamed piece of a composed universal setup.

    Attributes:
        kind: ``"column"`` — one finished global switch column from the
            peel — or ``"blocks"`` — the middle states of a chunk of
            sub-network blocks.
        stage: the global switch column index for ``"column"`` chunks
            (entry columns ``0..levels-1``, exit columns
            ``2n-2 .. 2n-1-levels`` interleaved), ``-1`` otherwise.
        block_start: first block index covered by a ``"blocks"`` chunk.
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
    inner = engine or _inner_engine(plan.sub_order, chunk, kind="setup")
    levels = plan.levels
    from .setup import batch_setup_states

    if np is not None:
        from .setup import _as_perm_array, peel_level_stream

        arr = _as_perm_array(np, order, [_as_row(perm)])
        subs = None
        for kind, level, payload in peel_level_stream(np, order, arr,
                                                      levels):
            if kind == "entry":
                yield StateChunk("column", level, 0, payload[0])
            elif kind == "exit":
                yield StateChunk("column", 2 * order - 2 - level, 0,
                                 payload[0])
            else:
                subs = payload
        for start in range(0, plan.n_blocks, chunk):
            sel = subs[start:start + chunk]
            st = np.asarray(
                batch_setup_states(plan.sub_order, sel, engine=inner),
                dtype=np.int8,
            )
            _note_chunk(int(sel.shape[0]), int(st.nbytes))
            yield StateChunk("blocks", -1, start, st, sel)
    else:
        from ..core.permutation import Permutation

        row = _as_row(Permutation(_as_row(perm)))  # validates
        if len(row) != plan.n_terminals:
            raise SizeMismatchError(
                f"expected a permutation of {plan.n_terminals} "
                f"elements for order {order}, got {len(row)}"
            )
        subs = None
        for kind, level, payload in _scalar_peel_stream(row, levels):
            if kind == "entry":
                yield StateChunk("column", level, 0, payload)
            elif kind == "exit":
                yield StateChunk("column", 2 * order - 2 - level, 0,
                                 payload)
            else:
                subs = payload
        for start in range(0, len(subs), chunk):
            sel = subs[start:start + chunk]
            st = batch_setup_states(plan.sub_order, sel, engine=inner)
            _note_chunk(len(sel),
                        len(sel) * plan.mid_stages * plan.block_half)
            yield StateChunk("blocks", -1, start, st, sel)
