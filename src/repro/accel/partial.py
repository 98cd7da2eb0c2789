"""Masked batch kernels for **partial** permutations (k of N lanes).

The packet workload class ("A Benes Packet Network", Huang & Walrand)
routes *calls*: only ``k`` of the ``N`` inputs carry a request at any
instant.  The engines in this repository all speak full ``(B, N)`` tag
batches, so partial inputs reduce to full ones by **canonical
completion**:

- a partial row is a dense length-``N`` vector whose idle lanes hold
  the sentinel :data:`IDLE` (``-1``) and whose active lanes hold
  *distinct* destinations (a partial permutation — the call model, not
  the duplicate-destination tag-vector model);
- completion assigns the unused destinations to the idle inputs in
  increasing order (smallest idle input takes the smallest free
  output), yielding a full permutation that agrees with every active
  lane;
- the completed batch routes through any registered engine
  (scalar/NumPy/bitslice/composed — the ``engine=`` seam of
  :func:`repro.accel.batch_self_route` is passed straight through);
- the result is **masked back**: an active pair ``(src, dst)``
  succeeded iff the engine delivered ``src``'s signal at output
  ``dst``, and its arrival port is wherever the signal actually
  landed.

Completion is deterministic, so every engine generation sees the same
full permutation and the masked, active-lane view is byte-identical
across engines by construction — the property the ``partial`` verify
family pins.  Note the flip side: a *different* completion might
self-route where the canonical one collides, so per-lane success means
"the canonical completion delivered this call", not "no completion
could".

The completion kernel itself is masked and vectorized on the NumPy
path (two ``nonzero`` gathers — both row-major sorted with equal
per-row counts, so idle inputs and free outputs align rank-for-rank)
and a plain loop on the fallback path, with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .. import obs as _obs
from ..core.bits import log2_exact
from ..errors import InvalidParameterError
from ._np import numpy_or_none
from .batch import _int64_rows, batch_self_route

__all__ = [
    "IDLE",
    "PartialBatchResult",
    "batch_complete_partial",
    "batch_route_partial",
    "complete_partial_row",
    "mask_partial",
]

#: The idle-lane sentinel in dense partial rows.
IDLE = -1

Row = Tuple[int, ...]


@dataclass(frozen=True)
class PartialBatchResult:
    """Outcome of routing a batch of partial permutations.

    Attributes:
        success_mask: per-instance success — every active lane
            delivered (vacuously true for ``k = 0``).
        lane_ok: per-instance tuple of per-active-lane verdicts, in
            increasing source order.
        arrivals: per-instance tuple of ``(src, out)`` pairs, in
            increasing source order — the output where each active
            source's signal actually landed (``out == dst`` iff the
            lane succeeded).
        delivered: per-instance full delivered mapping of the
            *completed* route — ``delivered[b][o]`` is the input whose
            signal arrived at output ``o`` (idle completion lanes
            included; the serve protocol ships this row).
        completed: per-instance canonical completion actually routed.
        active: per-instance tuple of per-input activity flags.
    """

    success_mask: Tuple[bool, ...]
    lane_ok: Tuple[Tuple[bool, ...], ...]
    arrivals: Tuple[Tuple[Tuple[int, int], ...], ...]
    delivered: Tuple[Row, ...]
    completed: Tuple[Row, ...]
    active: Tuple[Tuple[bool, ...], ...]

    @property
    def batch_size(self) -> int:
        return len(self.success_mask)


def _complete_row(row: Sequence[int], index: int) -> Row:
    """Validate one dense partial row (``index`` names it in errors)
    and give its idle inputs the unused destinations in increasing
    order."""
    n = len(row)
    out = []
    seen = set()
    for value in row:
        value = int(value)
        if value == IDLE:
            out.append(IDLE)
            continue
        if not 0 <= value < n:
            raise InvalidParameterError(
                f"partial row {index}: destination {value} out of "
                f"range [0, {n}) (idle lanes are {IDLE})")
        if value in seen:
            raise InvalidParameterError(
                f"partial row {index}: destination {value} appears "
                "twice; partial permutations need distinct "
                "destinations")
        seen.add(value)
        out.append(value)
    free = iter(sorted(set(range(n)) - seen))
    return tuple(v if v != IDLE else next(free) for v in out)


def complete_partial_row(row: Sequence[int]) -> Row:
    """The canonical completion of one dense partial row: active lanes
    kept, idle inputs given the unused destinations in increasing
    order."""
    log2_exact(len(row))  # width must be a power of two
    return _complete_row(row, 0)


def _complete_numpy(np, rows):
    arr = _int64_rows(np, rows)
    if arr.ndim != 2:
        raise InvalidParameterError(
            "partial batch must be a (B, N) array of destinations "
            f"with {IDLE} idle lanes; got ndim={arr.ndim}")
    b, n = arr.shape
    log2_exact(n)
    active = arr != IDLE
    if int(arr.min(initial=IDLE)) < IDLE or \
            int(arr.max(initial=IDLE)) >= n:
        raise InvalidParameterError(
            f"partial batch values must be {IDLE} (idle) or in "
            f"[0, {n})")
    # duplicate active destinations per row → that row is not a
    # partial permutation
    used = np.zeros((b, n), dtype=np.int64)
    rows_idx, cols_idx = np.nonzero(active)
    np.add.at(used, (rows_idx, arr[rows_idx, cols_idx]), 1)
    if int(used.max(initial=0)) > 1:
        bad = int(np.nonzero(used.max(axis=1) > 1)[0][0])
        raise InvalidParameterError(
            f"partial row {bad}: duplicate destinations; partial "
            "permutations need distinct destinations")
    completed = arr.copy()
    # Both nonzero scans are row-major sorted and the per-row counts
    # match (n - k idle inputs, n - k free outputs), so rank j of one
    # pairs with rank j of the other within every row.
    idle_rows, idle_cols = np.nonzero(~active)
    free_rows, free_cols = np.nonzero(used == 0)
    completed[idle_rows, idle_cols] = free_cols
    return completed, active


def _complete_fallback(rows):
    width = len(rows[0])
    log2_exact(width)
    completed: List[Row] = []
    active: List[Tuple[bool, ...]] = []
    for index, row in enumerate(rows):
        if len(row) != width:
            raise InvalidParameterError(
                f"partial row {index} has width {len(row)}, expected "
                f"{width}")
        completed.append(_complete_row(row, index))
        active.append(tuple(int(v) != IDLE for v in row))
    return completed, active


def batch_complete_partial(rows):
    """Canonically complete a ``(B, N)`` dense partial batch.

    Returns ``(completed, active)``: the full tag batch every engine
    can route, and the per-lane activity mask to fold results back
    through — a ``(B, N)`` int array plus bool array on the NumPy
    path, lists of tuples on the fallback path (same values)."""
    if len(rows) == 0:
        raise InvalidParameterError("partial batch must be non-empty")
    np = numpy_or_none()
    if np is not None:
        return _complete_numpy(np, rows)
    return _complete_fallback(rows)


def batch_route_partial(rows, *, omega_mode: bool = False,
                        stuck_switches: Optional[dict] = None,
                        parallel: object = False,
                        engine: Optional[str] = None
                        ) -> PartialBatchResult:
    """Route a batch of partial permutations through any engine.

    ``rows`` is a ``(B, N)`` dense batch with :data:`IDLE` idle lanes.
    The canonical completion routes through
    :func:`repro.accel.batch_self_route` (``engine=`` / ``parallel=`` /
    ``omega_mode`` / ``stuck_switches`` passed straight through), and
    the answer is masked back to the active lanes."""
    completed, active = batch_complete_partial(rows)
    result = batch_self_route(completed, omega_mode=omega_mode,
                              stuck_switches=stuck_switches,
                              parallel=parallel, engine=engine)
    masked = mask_partial(completed, active, result.mappings)
    if _obs.enabled():
        _obs.inc("partial.calls")
        _obs.inc("partial.instances", masked.batch_size)
        for lanes in masked.active:
            _obs.observe("partial.active_lanes", sum(lanes))
        _obs.inc("partial.delivered",
                 sum(sum(oks) for oks in masked.lane_ok))
    return masked


def mask_partial(completed, active, delivered) -> PartialBatchResult:
    """Fold the full delivered mappings of canonically completed rows
    back to their active lanes: an active pair ``(src, dst)`` succeeded
    iff ``delivered[dst] == src``, and its arrival port is wherever
    ``src``'s signal actually landed."""
    success: List[bool] = []
    lane_ok: List[Tuple[bool, ...]] = []
    arrivals: List[Tuple[Tuple[int, int], ...]] = []
    delivered_rows: List[Row] = []
    completed_rows: List[Row] = []
    active_rows: List[Tuple[bool, ...]] = []
    for b in range(len(completed)):
        row = tuple(int(v) for v in completed[b])
        mask = tuple(bool(v) for v in active[b])
        got = tuple(int(v) for v in delivered[b])
        inverse = {src: out for out, src in enumerate(got)}
        oks = tuple(got[row[src]] == src
                    for src in range(len(row)) if mask[src])
        success.append(all(oks))
        lane_ok.append(oks)
        arrivals.append(tuple((src, inverse[src])
                              for src in range(len(row)) if mask[src]))
        delivered_rows.append(got)
        completed_rows.append(row)
        active_rows.append(mask)
    return PartialBatchResult(
        success_mask=tuple(success),
        lane_ok=tuple(lane_ok),
        arrivals=tuple(arrivals),
        delivered=tuple(delivered_rows),
        completed=tuple(completed_rows),
        active=tuple(active_rows),
    )
