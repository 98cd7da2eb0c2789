"""Scalar-vs-batch throughput measurement for the accel engines.

Shared by the ``benes bench`` CLI subcommand and
``benchmarks/bench_accel.py`` so both emit the same machine-readable
shape (``BENCH_accel.json``): one record per (order, batch size,
engine) with items/second for the scalar fast path and the batch
engine, and their ratio.  Cells carry an ``engine`` column naming the
concrete engine that served the batch call (``numpy``, ``bitslice`` or
``scalar`` — resolved through :func:`repro.accel.resolve_engine`), and
an ``engine="auto"`` sweep additionally times the bit-sliced big-int
kernel wherever auto resolved to something else, so the report always
records the no-NumPy fast path.

To keep the sweep affordable at large orders the scalar side may be
timed on a capped subsample of the batch (``scalar_cap``) — per-item
cost is flat across a batch of i.i.d. vectors, so the throughput
extrapolation is sound; the number actually timed is recorded in the
result for honesty.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, List, Optional, Sequence

from .. import obs as _obs
from ..core.fastpath import fast_self_route
from ..core.permutation import random_permutation
from ..errors import InvalidParameterError
from ._np import have_numpy, resolve_engine
from .batch import batch_self_route

__all__ = ["measure_cell", "run_benchmark", "format_table",
           "write_json", "best_speedup", "measure_setup_cell",
           "run_setup_benchmark", "format_setup_table",
           "best_setup_speedup", "measure_scaling_cell",
           "run_scaling_benchmark", "format_scaling_table",
           "scaling_speedup"]

DEFAULT_ORDERS = (4, 6, 8)
DEFAULT_BATCH_SIZES = (64, 256, 1024)
DEFAULT_SETUP_ORDERS = (3, 4, 5, 6, 7, 8)
DEFAULT_SETUP_BATCH_SIZES = (64, 256)
DEFAULT_SCALING_ORDERS = (10, 12, 14)
SCALING_MODES = ("serial", "batch", "composed")


def _random_tag_batch(order: int, batch_size: int,
                      rng: random.Random) -> List[tuple]:
    """Uniform random permutations — the Monte-Carlo density workload
    (a mix of F and non-F members; the engine's cost is input-
    independent either way)."""
    n = 1 << order
    return [random_permutation(n, rng).as_tuple()
            for _ in range(batch_size)]


def measure_cell(order: int, batch_size: int, rng: random.Random,
                 repeats: int = 3, scalar_cap: int = 256,
                 parallel=False, engine=None) -> Dict:
    """Time one (order, batch_size) cell; return a JSON-ready record.
    ``parallel`` is forwarded to the batch call, so the same cell shape
    measures the shard executor; ``engine`` pins a concrete engine
    (``None``/``"auto"`` resolves through the seam), and the resolved
    name is recorded in the cell's ``engine`` column."""
    tags = _random_tag_batch(order, batch_size, rng)
    resolved = resolve_engine(None if engine == "auto" else engine,
                              order=order, batch_size=batch_size)

    scalar_items = min(batch_size, scalar_cap)
    best_scalar = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for row in tags[:scalar_items]:
            fast_self_route(row)
        best_scalar = min(best_scalar, time.perf_counter() - t0)

    # warm the plan cache untimed
    batch_self_route(tags[:2], parallel=parallel, engine=resolved)
    best_batch = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        batch_self_route(tags, parallel=parallel, engine=resolved)
        best_batch = min(best_batch, time.perf_counter() - t0)

    scalar_rate = scalar_items / best_scalar if best_scalar > 0 else 0.0
    batch_rate = batch_size / best_batch if best_batch > 0 else 0.0
    return {
        "order": order,
        "n_terminals": 1 << order,
        "batch_size": batch_size,
        "parallel": bool(parallel),
        "engine": resolved,
        "scalar_items_timed": scalar_items,
        "scalar_seconds": best_scalar,
        "batch_seconds": best_batch,
        "scalar_items_per_s": scalar_rate,
        "batch_items_per_s": batch_rate,
        "speedup": batch_rate / scalar_rate if scalar_rate else 0.0,
    }


def run_benchmark(orders: Sequence[int] = DEFAULT_ORDERS,
                  batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
                  seed: int = 1980, repeats: int = 3,
                  scalar_cap: int = 256,
                  include_parallel: bool = False,
                  engine: str = "auto") -> Dict:
    """Sweep the (order, batch_size) grid; return the full report.
    With ``include_parallel`` an extra shard-executor cell is timed at
    the largest (order, batch size) of the grid, mirroring
    :func:`run_setup_benchmark`.  ``engine`` pins every cell to one
    engine; the default ``"auto"`` lets the seam resolve per cell and
    then times the bitslice kernel too wherever auto picked something
    else, so the report always carries the no-NumPy fast-path column."""
    import os

    rng = random.Random(seed)
    cells = [
        measure_cell(order, batch_size, rng, repeats=repeats,
                     scalar_cap=scalar_cap, engine=engine)
        for order in orders
        for batch_size in batch_sizes
    ]
    if engine == "auto":
        auto_cells = list(cells)
        cells.extend(
            measure_cell(cell["order"], cell["batch_size"], rng,
                         repeats=repeats, scalar_cap=scalar_cap,
                         engine="bitslice")
            for cell in auto_cells
            if cell["engine"] != "bitslice"
        )
    if include_parallel:
        cells.append(measure_cell(
            max(orders), max(batch_sizes), rng, repeats=repeats,
            scalar_cap=scalar_cap, parallel=True, engine=engine,
        ))
    report = {
        "benchmark": "accel.batch_self_route vs core.fast_self_route",
        "numpy": have_numpy(),
        "engine": engine,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "repeats": repeats,
        "cells": cells,
    }
    if _obs.enabled():
        # The sweep itself is the workload: counters/histograms for
        # every cell routed above travel with the perf numbers.
        report["metrics"] = _obs.snapshot()
    return report


def measure_setup_cell(order: int, batch_size: int, rng: random.Random,
                       *, kind: str = "setup", repeats: int = 3,
                       scalar_cap: int = 64, parallel=False,
                       engine=None) -> Dict:
    """Time one universal-setup cell; ``kind`` selects the batched
    looping setup (``"setup"``) or the full two-pass factorization
    (``"two_pass"``).  ``parallel`` is forwarded to the batch call, so
    the same cell shape measures the shard executor; ``engine`` pins a
    concrete engine (resolved with ``kind="setup"`` semantics — auto
    never picks bitslice for the data-dependent side assignment)."""
    from .kernels import scalar_setup_states, scalar_two_pass
    from .setup import batch_setup_states, batch_two_pass

    if kind == "setup":
        scalar_fn, batch_fn = scalar_setup_states, batch_setup_states
    elif kind == "two_pass":
        scalar_fn, batch_fn = scalar_two_pass, batch_two_pass
    else:
        raise InvalidParameterError(
            f"unknown setup benchmark kind {kind!r}"
        )
    perms = _random_tag_batch(order, batch_size, rng)
    resolved = resolve_engine(None if engine == "auto" else engine,
                              order=order, batch_size=batch_size,
                              kind="setup")

    scalar_items = min(batch_size, scalar_cap)
    best_scalar = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        scalar_fn(perms[:scalar_items], order=order)
        best_scalar = min(best_scalar, time.perf_counter() - t0)

    # warm caches untimed
    batch_fn(order, perms[:2], parallel=parallel, engine=resolved)
    best_batch = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        batch_fn(order, perms, parallel=parallel, engine=resolved)
        best_batch = min(best_batch, time.perf_counter() - t0)

    scalar_rate = scalar_items / best_scalar if best_scalar > 0 else 0.0
    batch_rate = batch_size / best_batch if best_batch > 0 else 0.0
    return {
        "kind": kind,
        "order": order,
        "n_terminals": 1 << order,
        "batch_size": batch_size,
        "parallel": bool(parallel),
        "engine": resolved,
        "scalar_items_timed": scalar_items,
        "scalar_seconds": best_scalar,
        "batch_seconds": best_batch,
        "scalar_items_per_s": scalar_rate,
        "batch_items_per_s": batch_rate,
        "speedup": batch_rate / scalar_rate if scalar_rate else 0.0,
    }


def run_setup_benchmark(orders: Sequence[int] = DEFAULT_SETUP_ORDERS,
                        batch_sizes: Sequence[int] =
                        DEFAULT_SETUP_BATCH_SIZES,
                        seed: int = 1968, repeats: int = 3,
                        scalar_cap: int = 64,
                        include_parallel: bool = True,
                        engine: str = "auto") -> Dict:
    """Sweep the universal-setup grid (looping setup and two-pass
    factorization, scalar vs batch); with ``include_parallel`` an extra
    executor cell is timed at the largest batch size of the largest
    order, so BENCH_setup.json records both inline and sharded
    throughput on the same machine.  ``engine`` pins every cell to one
    engine (setup-kind resolution semantics)."""
    import os

    rng = random.Random(seed)
    cells = [
        measure_setup_cell(order, batch_size, rng, kind=kind,
                           repeats=repeats, scalar_cap=scalar_cap,
                           engine=engine)
        for kind in ("setup", "two_pass")
        for order in orders
        for batch_size in batch_sizes
    ]
    if include_parallel:
        for kind in ("setup", "two_pass"):
            cells.append(measure_setup_cell(
                max(orders), max(batch_sizes), rng, kind=kind,
                repeats=repeats, scalar_cap=scalar_cap, parallel=True,
                engine=engine,
            ))
    report = {
        "benchmark": "accel.batch_setup_states / batch_two_pass vs "
                     "scalar looping",
        "numpy": have_numpy(),
        "engine": engine,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "repeats": repeats,
        "cells": cells,
    }
    if _obs.enabled():
        report["metrics"] = _obs.snapshot()
    return report


def format_setup_table(report: Dict) -> str:
    """Human-readable view of :func:`run_setup_benchmark`'s report."""
    mode = "NumPy available" if report["numpy"] else "no NumPy"
    lines = [
        f"universal setup: {mode}",
        f"{'kind':>8} {'n':>3} {'batch':>6} {'engine':>9} {'par':>4} "
        f"{'scalar/s':>12} {'batch/s':>12} {'speedup':>8}",
    ]
    for cell in report["cells"]:
        lines.append(
            f"{cell['kind']:>8} {cell['order']:>3} "
            f"{cell['batch_size']:>6} "
            f"{cell.get('engine', '?'):>9} "
            f"{'yes' if cell['parallel'] else 'no':>4} "
            f"{cell['scalar_items_per_s']:>12.0f} "
            f"{cell['batch_items_per_s']:>12.0f} "
            f"{cell['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def best_setup_speedup(report: Dict, kind: str = "setup",
                       min_order: int = 0, min_batch: int = 0,
                       parallel: Optional[bool] = False,
                       engine: Optional[str] = None
                       ) -> Optional[float]:
    """Largest measured speedup among matching setup cells (used by the
    benchmark assertions); ``parallel=None`` matches both modes,
    ``engine=None`` matches every engine column."""
    eligible = [
        cell["speedup"] for cell in report["cells"]
        if cell["kind"] == kind
        and cell["order"] >= min_order
        and cell["batch_size"] >= min_batch
        and (parallel is None or cell["parallel"] == parallel)
        and (engine is None or cell.get("engine") == engine)
    ]
    return max(eligible) if eligible else None


def measure_scaling_cell(order: int, mode: str, *, seed: int = 2026,
                         repeats: int = 2) -> Dict:
    """Time one universal setup of a single random permutation of
    ``2^order`` terminals under one execution ``mode`` — the cell shape
    of the scaling benchmark (``BENCH_scaling.json``):

    - ``"serial"`` — the scalar Waksman looping recursion
      (:func:`repro.core.waksman.setup_states`), the paper's baseline;
    - ``"batch"`` — the monolithic batch engine (one ``(1, N)`` call,
      full state tensor in memory);
    - ``"composed"`` — the block-composed engine with chunked per-block
      dispatch (``parallel=True``, so multicore hosts also shard).

    The record carries the wall time, the process's ``ru_maxrss``
    *after* the cell (honest peak only when the cell runs in a fresh
    subprocess — ``benchmarks/bench_scaling.py`` isolates each cell
    that way; in-process sweeps mark ``rss_isolated`` false in the
    report), and for composed cells the peak chunk payload from
    :func:`repro.accel.composed_stats`.
    """
    import resource

    from ..core.waksman import setup_states
    from .composed import composed_stats, composed_stats_clear
    from .setup import batch_setup_states

    if mode not in SCALING_MODES:
        raise InvalidParameterError(
            f"unknown scaling mode {mode!r}; choose one of "
            f"{', '.join(SCALING_MODES)}"
        )
    rng = random.Random(seed + order)
    perm = random_permutation(1 << order, rng).as_tuple()
    peak_chunk = None
    if mode == "serial":
        def run():
            setup_states(perm)
    elif mode == "batch":
        engine = "numpy" if have_numpy() else "scalar"

        def run():
            batch_setup_states(order, [perm], engine=engine)
    else:
        composed_stats_clear()

        def run():
            batch_setup_states(order, [perm], engine="composed",
                               parallel=True)
    run()  # warm plan caches untimed
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    if mode == "composed":
        peak_chunk = composed_stats()["peak_chunk_bytes"]
    cell = {
        "order": order,
        "n_terminals": 1 << order,
        "mode": mode,
        "engine": mode,
        "seconds": best,
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss,
    }
    if peak_chunk is not None:
        cell["peak_chunk_bytes"] = peak_chunk
    return cell


def run_scaling_benchmark(orders: Sequence[int] =
                          DEFAULT_SCALING_ORDERS,
                          seed: int = 2026, repeats: int = 2,
                          serial_max_order: int = 14,
                          modes: Sequence[str] = SCALING_MODES) -> Dict:
    """Sweep setup time (and best-effort RSS) across ``orders`` for
    every mode in ``modes`` — the in-process form behind ``benes bench
    --suite scaling``.  The serial baseline is capped at
    ``serial_max_order`` (the recursion is O(N log N) pure Python;
    beyond ~N=16k it only proves the point more slowly); each
    batch/composed cell at a serial-covered order gets a
    ``speedup_vs_serial`` column.

    For the *committed* ``BENCH_scaling.json`` use
    ``benchmarks/bench_scaling.py``, which runs every cell in a fresh
    subprocess so ``peak_rss_kb`` is a true per-cell peak
    (``rss_isolated: true``)."""
    import os

    cells = []
    for order in orders:
        for mode in modes:
            if mode == "serial" and order > serial_max_order:
                continue
            cells.append(measure_scaling_cell(order, mode, seed=seed,
                                              repeats=repeats))
    _annotate_scaling_speedups(cells)
    report = {
        "benchmark": "scaling: serial Waksman vs batch vs composed "
                     "universal setup",
        "numpy": have_numpy(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "repeats": repeats,
        "serial_max_order": serial_max_order,
        "rss_isolated": False,
        "cells": cells,
    }
    if _obs.enabled():
        report["metrics"] = _obs.snapshot()
    return report


def _annotate_scaling_speedups(cells: List[Dict]) -> None:
    """Attach ``speedup_vs_serial`` to every non-serial cell whose
    order also has a serial baseline cell."""
    serial = {cell["order"]: cell["seconds"] for cell in cells
              if cell["mode"] == "serial"}
    for cell in cells:
        if cell["mode"] != "serial" and cell["order"] in serial:
            base, mine = serial[cell["order"]], cell["seconds"]
            cell["speedup_vs_serial"] = base / mine if mine > 0 else 0.0


def format_scaling_table(report: Dict) -> str:
    """Human-readable view of :func:`run_scaling_benchmark`'s report."""
    mode = "NumPy available" if report["numpy"] else "no NumPy"
    rss = "per-cell subprocess" if report.get("rss_isolated") \
        else "in-process (monotonic)"
    lines = [
        f"scaling sweep: {mode}; RSS {rss}",
        f"{'n':>3} {'N':>8} {'mode':>9} {'seconds':>10} "
        f"{'rss kB':>10} {'chunk B':>10} {'vs serial':>10}",
    ]
    for cell in report["cells"]:
        speedup = cell.get("speedup_vs_serial")
        chunk = cell.get("peak_chunk_bytes")
        lines.append(
            f"{cell['order']:>3} {cell['n_terminals']:>8} "
            f"{cell['mode']:>9} {cell['seconds']:>10.4f} "
            f"{cell['peak_rss_kb']:>10} "
            f"{chunk if chunk is not None else '-':>10} "
            f"{f'{speedup:.1f}x' if speedup is not None else '-':>10}"
        )
    return "\n".join(lines)


def scaling_speedup(report: Dict, mode: str = "composed",
                    min_order: int = 0) -> Optional[float]:
    """Largest ``speedup_vs_serial`` among ``mode`` cells at or above
    ``min_order`` (the benchmark assertion / regression-guard hook)."""
    eligible = [
        cell["speedup_vs_serial"] for cell in report["cells"]
        if cell["mode"] == mode and cell["order"] >= min_order
        and "speedup_vs_serial" in cell
    ]
    return max(eligible) if eligible else None


def format_table(report: Dict) -> str:
    """Human-readable view of :func:`run_benchmark`'s report."""
    mode = "NumPy available" if report["numpy"] else "no NumPy"
    lines = [
        f"batch engine: {mode}",
        f"{'n':>3} {'N':>5} {'batch':>6} {'engine':>9} {'par':>4} "
        f"{'scalar/s':>12} {'batch/s':>12} {'speedup':>8}",
    ]
    for cell in report["cells"]:
        lines.append(
            f"{cell['order']:>3} {cell['n_terminals']:>5} "
            f"{cell['batch_size']:>6} "
            f"{cell.get('engine', '?'):>9} "
            f"{'yes' if cell.get('parallel') else 'no':>4} "
            f"{cell['scalar_items_per_s']:>12.0f} "
            f"{cell['batch_items_per_s']:>12.0f} "
            f"{cell['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def write_json(report: Dict, path: str) -> None:
    """Emit the machine-readable perf trajectory."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def best_speedup(report: Dict, min_order: int = 0,
                 min_batch: int = 0,
                 parallel: Optional[bool] = False,
                 engine: Optional[str] = None) -> Optional[float]:
    """Largest measured speedup among cells meeting the floor (used by
    benchmark assertions); ``parallel=None`` matches both modes, the
    default ``False`` keeps executor cells out of inline
    guards (older reports without the key count as non-parallel), and
    ``engine=None`` matches every engine column."""
    eligible = [
        cell["speedup"] for cell in report["cells"]
        if cell["order"] >= min_order and cell["batch_size"] >= min_batch
        and (parallel is None
             or bool(cell.get("parallel", False)) == parallel)
        and (engine is None or cell.get("engine") == engine)
    ]
    return max(eligible) if eligible else None
