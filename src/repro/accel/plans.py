"""Precompiled per-order **stage plans** and the shared topology cache.

A :class:`StagePlan` is everything the batch router needs to push a
``(B, N)`` block of tag vectors through ``B(order)`` without touching
the structural model per call:

- the control-bit schedule ``(0, 1, ..., n-1, ..., 1, 0)`` (Fig. 3),
  which is also the cube dimension each stage interchanges across
  (Section III; :func:`repro.simd.permute.benes_dimension_schedule`);
- the ``2n - 2`` inter-stage link permutations of
  :class:`~repro.core.topology.BenesTopology` and their inverses, the
  form the pure-Python kernels cross links with;
- lazily-built NumPy tables (only when NumPy is importable — the plan
  itself is pure Python and always available): the inverse links, the
  cube position of every row of every column, and the maps between a
  column's switches and its interchange pairs.

The NumPy kernels never cross a link: they keep each signal at its cube
position and interchange across dimension ``ctrl_bits[s]`` at stage
``s``.  The position and pair tables translate between that layout and
topology rows, and only four things need them — ``stage_states``
output, stuck switches, external switch states, and a stage range that
starts or stops inside the network.  A full-range self-route or
membership call builds none of them.

Plans and topologies live in bounded, lock-guarded
:class:`~repro.accel.lru.LRUCache` instances.  :func:`cached_topology`
replaces the old unbounded ``_TOPO_CACHE`` dict in
:mod:`repro.core.fastpath`, so the scalar fast path and the vectorized
batch engine share one cache hierarchy.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .. import obs as _obs
from ..core.topology import BenesTopology
from ._np import numpy_or_none
from .lru import LRUCache

__all__ = [
    "StagePlan",
    "bitslice_plan_cache",
    "cache_clear",
    "cache_stats",
    "cached_topology",
    "composed_plan_cache",
    "setup_plan_cache",
    "stage_plan",
    "topology_cache",
    "plan_cache",
]

#: One ``B(order)`` topology can reach ~megabytes at order 12+; a few
#: dozen distinct orders in flight is far beyond any realistic workload.
_TOPOLOGY_CACHE: "LRUCache[int, BenesTopology]" = LRUCache(maxsize=32)
_PLAN_CACHE: "LRUCache[int, StagePlan]" = LRUCache(maxsize=32)
# Per-order constants of the batched universal setup (the SetupPlan
# objects of repro.accel.setup); held here so all three accel LRUs are
# exposed through one cache_stats()/cache_clear() surface.
_SETUP_CACHE: "LRUCache[int, object]" = LRUCache(maxsize=32)
# Lane-packing constants of the bit-sliced big-int engine (the
# BitslicePlan objects of repro.accel.bitslice), keyed by
# (order, lanes, value_bits) — masks depend on the batch width, so this
# cache sees more distinct keys than the per-order ones.
_BITSLICE_CACHE: "LRUCache[tuple, object]" = LRUCache(maxsize=64)
# Block-decomposition constants of the composed engine (the
# ComposedPlan objects of repro.accel.composed), keyed by
# (order, sub_order) — the peel depth is a tunable, so one order can
# legitimately hold several plans.
_COMPOSED_CACHE: "LRUCache[tuple, object]" = LRUCache(maxsize=32)


def topology_cache() -> "LRUCache[int, BenesTopology]":
    """The process-wide topology cache (exposed for tests/metrics)."""
    return _TOPOLOGY_CACHE


def plan_cache() -> "LRUCache[int, StagePlan]":
    """The process-wide stage-plan cache (exposed for tests/metrics)."""
    return _PLAN_CACHE


def setup_plan_cache() -> "LRUCache[int, object]":
    """The process-wide setup-plan cache backing
    :func:`repro.accel.setup.setup_plan` (exposed for tests/metrics)."""
    return _SETUP_CACHE


def bitslice_plan_cache() -> "LRUCache[tuple, object]":
    """The process-wide bitslice-plan cache backing
    :func:`repro.accel.bitslice.bitslice_plan` (exposed for
    tests/metrics)."""
    return _BITSLICE_CACHE


def composed_plan_cache() -> "LRUCache[tuple, object]":
    """The process-wide composed-plan cache backing
    :func:`repro.accel.composed.composed_plan` (exposed for
    tests/metrics)."""
    return _COMPOSED_CACHE


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size/capacity counters of the process-wide plan,
    topology and setup-plan LRUs — the public face of their internal
    bookkeeping, and the payload of the metrics registry's
    ``accel.cache`` provider.

    Each per-cache dict is an atomic snapshot (one lock acquisition in
    :meth:`~repro.accel.lru.LRUCache.stats`): ``hits + misses`` counts
    completed lookups and ``building`` the in-flight factory builds, so
    a read taken while an executor thread-shard warms a cache is
    internally consistent.  The five caches are snapshotted in
    sequence — values may straddle an update *between* caches, but
    never within one."""
    return {
        "plan": _PLAN_CACHE.stats(),
        "topology": _TOPOLOGY_CACHE.stats(),
        "setup": _SETUP_CACHE.stats(),
        "bitslice": _BITSLICE_CACHE.stats(),
        "composed": _COMPOSED_CACHE.stats(),
    }


def cache_clear() -> None:
    """Empty all five caches and zero their hit/miss counters (tests,
    memory pressure)."""
    _PLAN_CACHE.clear()
    _TOPOLOGY_CACHE.clear()
    _SETUP_CACHE.clear()
    _BITSLICE_CACHE.clear()
    _COMPOSED_CACHE.clear()


# Pull-style metrics: snapshots read the LRU counters on demand rather
# than the hot path pushing on every lookup.
_obs.registry().register_provider("accel.cache", cache_stats)


def cached_topology(order: int) -> BenesTopology:
    """``BenesTopology.build(order)``, memoized in the bounded LRU."""
    return _TOPOLOGY_CACHE.get_or_build(
        order, lambda: BenesTopology.build(order)
    )


def _invert(link: Tuple[int, ...]) -> Tuple[int, ...]:
    inv = [0] * len(link)
    for r, target in enumerate(link):
        inv[target] = r
    return tuple(inv)


class StagePlan:
    """The compiled routing schedule of ``B(order)`` for batch use.

    Attributes:
        order: the paper's ``n``.
        n_terminals: ``N = 2^n`` rows.
        n_stages: ``2n - 1`` switch columns.
        ctrl_bits: per-stage controlling tag bit, ``min(s, 2n-2-s)``.
        links: the topology's link permutations (``links[s][r]`` = input
            row of column ``s+1`` fed by output row ``r`` of column ``s``).
        inv_links: their inverses (``inv_links[s][j]`` = output row of
            column ``s`` wired to input row ``j`` of column ``s+1``).
    """

    __slots__ = ("order", "n_terminals", "n_stages", "ctrl_bits",
                 "links", "inv_links", "_np_inv_links", "_np_positions",
                 "_np_pair_maps")

    def __init__(self, topology: BenesTopology):
        self.order = topology.order
        self.n_terminals = topology.n_terminals
        self.n_stages = topology.n_stages
        self.ctrl_bits = topology.control_bits()
        self.links = topology.links
        self.inv_links = tuple(_invert(link) for link in topology.links)
        self._np_inv_links = None
        self._np_positions = None
        self._np_pair_maps = None

    def np_inv_links(self):
        """``(2n-2, N)`` ``intp`` array of the inverse links, built on
        first use (requires NumPy — callers on the fallback path use
        the tuple form in :attr:`inv_links` instead)."""
        if self._np_inv_links is None:
            np = numpy_or_none()
            if np is None:
                raise RuntimeError(
                    "np_inv_links() called without NumPy; use inv_links"
                )
            if self.inv_links:
                arr = np.array(self.inv_links, dtype=np.intp)
            else:  # order 1: single stage, no links
                arr = np.empty((0, self.n_terminals), dtype=np.intp)
            arr.setflags(write=False)
            self._np_inv_links = arr
        return self._np_inv_links

    def np_positions(self):
        """``(2n-1, N)`` ``intp`` array: ``positions[s][r]`` is the cube
        position of row ``r`` of column ``s``.  Row ``r`` of column 0 is
        position ``r``, and a link moves no signal off its position
        (``positions[s+1][links[s][r]] == positions[s][r]``), so each
        column is one gather of the one before.  Built on first use.

        On this topology the pair ``(2j, 2j+1)`` of column ``s`` holds
        positions ``(i, i + 2^k)`` with ``k = ctrl_bits[s]`` and bit
        ``k`` of ``i`` clear, and the last column is the identity
        (``tests/test_accel.py::TestPlans``)."""
        if self._np_positions is None:
            np = numpy_or_none()
            inv_links = self.np_inv_links()
            pos = np.empty((self.n_stages, self.n_terminals),
                           dtype=np.intp)
            pos[0] = np.arange(self.n_terminals)
            for stage, inv_link in enumerate(inv_links):
                pos[stage + 1] = pos[stage][inv_link]
            pos.setflags(write=False)
            self._np_positions = pos
        return self._np_positions

    def np_pair_maps(self):
        """``(pair_of_switch, switch_of_pair)``: two ``(2n-1, N/2)``
        ``intp`` arrays, inverse permutations of each other per stage.
        Interchange pair ``p`` of stage ``s`` across dimension ``k`` is
        the ``p``-th position with bit ``k`` clear in increasing order,
        which is how the NumPy kernels lay out a stage's decisions;
        switch ``j`` of column ``s`` is pair ``pair_of_switch[s][j]``.
        Built on first use."""
        if self._np_pair_maps is None:
            np = numpy_or_none()
            upper = self.np_positions()[:, 0::2]
            k = np.array(self.ctrl_bits, dtype=np.intp)[:, None]
            pair_of_switch = ((upper >> (k + 1)) << k) | \
                (upper & ((1 << k) - 1))
            switch_of_pair = np.empty_like(pair_of_switch)
            np.put_along_axis(
                switch_of_pair, pair_of_switch,
                np.broadcast_to(np.arange(upper.shape[1], dtype=np.intp),
                                upper.shape),
                axis=1,
            )
            pair_of_switch.setflags(write=False)
            switch_of_pair.setflags(write=False)
            self._np_pair_maps = (pair_of_switch, switch_of_pair)
        return self._np_pair_maps


def stage_plan(order: int) -> StagePlan:
    """The (cached) :class:`StagePlan` for ``B(order)``."""
    return _PLAN_CACHE.get_or_build(
        order, lambda: StagePlan(cached_topology(order))
    )
