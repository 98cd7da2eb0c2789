"""``repro.accel`` — the batch-routing engines.

Bulk analysis primitives (batched self-routing, batched external-state
routing, batched F(n) membership, batched universal setup) built on
precompiled per-order **stage plans** held in a bounded, lock-guarded
LRU cache — see :mod:`repro.accel.batch` and :mod:`repro.accel.plans`.

Every primitive runs on one row of the kernel table :data:`KERNELS`
(:mod:`repro.accel.kernels`): the scalar loop, the NumPy kernels, the
bit-sliced big-int kernels of :mod:`repro.accel.bitslice`, or the
block-composed engine.  NumPy is an *optional* ``accel`` extra: without
it every primitive runs on a pure-Python row with identical results.
:func:`resolve_engine` decides which engine serves a call (explicit
``engine=`` keyword > ``BENES_ENGINE`` env var > the ``auto`` policy);
use :func:`repro.accel.have_numpy` to check whether the vectorized
paths are available.

Submodules are imported lazily so that leaf utilities (the LRU cache,
the optional-import helper) can be pulled in from ``repro.core``
without import cycles.
"""

from __future__ import annotations

__all__ = [
    "BatchRouteResult",
    "BitslicePlan",
    "PartialBatchResult",
    "ComposedPlan",
    "ENGINES",
    "KERNELS",
    "LRUCache",
    "SetupPlan",
    "StagePlan",
    "StateChunk",
    "batch_complete_partial",
    "batch_in_class_f",
    "batch_route_partial",
    "batch_route_two_pass",
    "batch_route_with_states",
    "batch_self_route",
    "batch_setup_states",
    "batch_two_pass",
    "bitslice_in_class_f",
    "bitslice_plan",
    "bitslice_plan_cache",
    "bitslice_route_with_states",
    "bitslice_self_route",
    "bitslice_setup_states",
    "bitslice_two_pass",
    "cache_clear",
    "cache_stats",
    "cached_topology",
    "complete_partial_row",
    "composed_in_class_f",
    "composed_order_threshold",
    "composed_plan",
    "composed_plan_cache",
    "composed_route_with_states",
    "composed_self_route",
    "composed_setup_states",
    "composed_stats",
    "composed_stats_clear",
    "have_numpy",
    "iter_composed_states",
    "numpy_or_none",
    "peel_level_stream",
    "plan_cache",
    "require_numpy",
    "resolve_engine",
    "run_benchmark",
    "run_setup_benchmark",
    "setup_plan",
    "setup_plan_cache",
    "stage_plan",
    "topology_cache",
]

_EXPORTS = {
    "BatchRouteResult": "batch",
    "BitslicePlan": "bitslice",
    "PartialBatchResult": "partial",
    "ComposedPlan": "composed",
    "ENGINES": "kernels",
    "KERNELS": "kernels",
    "LRUCache": "lru",
    "SetupPlan": "setup",
    "StagePlan": "plans",
    "StateChunk": "composed",
    "batch_complete_partial": "partial",
    "batch_in_class_f": "batch",
    "batch_route_partial": "partial",
    "batch_route_two_pass": "setup",
    "batch_route_with_states": "batch",
    "batch_self_route": "batch",
    "batch_setup_states": "setup",
    "batch_two_pass": "setup",
    "bitslice_in_class_f": "bitslice",
    "bitslice_plan": "bitslice",
    "bitslice_plan_cache": "plans",
    "bitslice_route_with_states": "bitslice",
    "bitslice_self_route": "bitslice",
    "bitslice_setup_states": "bitslice",
    "bitslice_two_pass": "bitslice",
    "cache_clear": "plans",
    "cache_stats": "plans",
    "cached_topology": "plans",
    "complete_partial_row": "partial",
    "composed_in_class_f": "composed",
    "composed_order_threshold": "_np",
    "composed_plan": "composed",
    "composed_plan_cache": "plans",
    "composed_route_with_states": "composed",
    "composed_self_route": "composed",
    "composed_setup_states": "composed",
    "composed_stats": "composed",
    "composed_stats_clear": "composed",
    "have_numpy": "_np",
    "iter_composed_states": "composed",
    "numpy_or_none": "_np",
    "peel_level_stream": "setup",
    "plan_cache": "plans",
    "require_numpy": "_np",
    "resolve_engine": "_np",
    "run_benchmark": "benchmark",
    "run_setup_benchmark": "benchmark",
    "setup_plan": "setup",
    "setup_plan_cache": "plans",
    "stage_plan": "plans",
    "topology_cache": "plans",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
