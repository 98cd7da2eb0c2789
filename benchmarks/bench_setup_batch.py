"""SETUP-BATCH — vectorized universal setup vs the scalar looping.

Not a paper claim: the perf budget that makes all-``N!`` workloads
(census-style sweeps, two-pass factorization of arbitrary permutation
streams) scale like the class-F fast path.  Sweeps orders x batch
sizes and records items/second for the serial Waksman looping
(``repro.core.waksman.setup_states`` per instance) versus the batched
level-by-level engine (``repro.accel.setup``), with and without the
shard executor.

Run as a script to (re)generate the machine-readable perf trajectory::

    PYTHONPATH=src python benchmarks/bench_setup_batch.py \
        --json BENCH_setup.json

or under pytest (``pytest benchmarks -k setup_batch``) for the smoke
assertions: parity of the timed workload and — when NumPy is present —
the >= 10x acceptance floor at order 8, batch 256 (single process).
The executor's >= 2x floor is asserted only on machines with >= 4
cores and a batch above the shard threshold.
"""

from __future__ import annotations

import argparse
import os
import random

import pytest
from conftest import emit

from repro.accel import have_numpy
from repro.accel.benchmark import (
    best_setup_speedup,
    format_setup_table,
    run_setup_benchmark,
    write_json,
)
from repro.accel.kernels import scalar_setup_states, scalar_two_pass
from repro.accel.setup import batch_setup_states, batch_two_pass
from repro.core import random_permutation

SMOKE_ORDERS = (4, 8)
SMOKE_BATCHES = (64, 256)


def test_setup_parity_on_bench_workload(rng):
    """The exact workload the timings run must agree with the scalar
    looping algorithm (guards against benchmarking a broken kernel)."""
    for order in SMOKE_ORDERS:
        n = 1 << order
        perms = [random_permutation(n, rng).as_tuple()
                 for _ in range(16)]
        states = batch_setup_states(order, perms)
        expected = scalar_setup_states(perms, order=order)
        for got, want in zip(states, expected):
            assert [[int(v) for v in col] for col in got] == want
        first, second = batch_two_pass(order, perms)
        want_first, want_second = scalar_two_pass(perms, order=order)
        for i in range(len(perms)):
            assert tuple(int(v) for v in first[i]) == want_first[i]
            assert tuple(int(v) for v in second[i]) == want_second[i]


def test_setup_speedup_smoke():
    """One reduced sweep; assert the acceptance floor when vectorized."""
    report = run_setup_benchmark(orders=SMOKE_ORDERS,
                                 batch_sizes=SMOKE_BATCHES, repeats=2,
                                 include_parallel=False)
    emit("SETUP-BATCH: batched universal setup vs scalar looping",
         format_setup_table(report))
    assert len(report["cells"]) == \
        2 * len(SMOKE_ORDERS) * len(SMOKE_BATCHES)
    if not have_numpy():
        pytest.skip("NumPy absent: fallback mode, no speedup expected")
    for kind in ("setup", "two_pass"):
        floor = best_setup_speedup(report, kind=kind, min_order=8,
                                   min_batch=256)
        assert floor is not None and floor >= 10.0, (
            f"batched {kind} only {floor:.1f}x over scalar at order 8 "
            "(acceptance floor is 10x)"
        )


def test_executor_speedup_multicore():
    """Shard-executor acceptance: >= 2x over the single-process batch
    on machines with >= 4 cores (conditional — meaningless on 1-2
    cores, where the executor rightly stays inline)."""
    cores = os.cpu_count() or 1
    if not have_numpy():
        pytest.skip("NumPy absent")
    if cores < 4:
        pytest.skip(f"only {cores} core(s); executor floor needs >= 4")
    import time

    from repro.accel import executor as _executor

    order, batch = 8, max(4096, _executor.SHARD_THRESHOLD)
    rng = random.Random(1968)
    perms = [random_permutation(1 << order, rng).as_tuple()
             for _ in range(batch)]
    batch_setup_states(order, perms[:2], parallel=True)  # warm pool
    t0 = time.perf_counter()
    inline = batch_setup_states(order, perms)
    t_inline = time.perf_counter() - t0
    t0 = time.perf_counter()
    sharded = batch_setup_states(order, perms, parallel=True)
    t_sharded = time.perf_counter() - t0
    import numpy as np

    assert np.array_equal(inline, sharded)
    assert t_inline / t_sharded >= 2.0, (
        f"executor only {t_inline / t_sharded:.2f}x on {cores} cores"
    )


def test_setup_throughput_order8(benchmark):
    """pytest-benchmark hook on the headline cell (order 8, batch 256)."""
    if not have_numpy():
        pytest.skip("NumPy absent")
    rng = random.Random(1968)
    n = 1 << 8
    perms = [random_permutation(n, rng).as_tuple() for _ in range(256)]
    batch_setup_states(8, perms[:2])  # warm plan caches
    states = benchmark(batch_setup_states, 8, perms)
    assert states.shape == (256, 15, 128)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the batched universal setup against "
                    "the scalar looping algorithm"
    )
    parser.add_argument("--orders", default="3,4,5,6,7,8",
                        help="comma-separated network orders")
    parser.add_argument("--batches", default="64,256",
                        help="comma-separated batch sizes")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1968)
    parser.add_argument("--no-parallel", action="store_true",
                        help="skip the shard-executor cells")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the machine-readable report here "
                             "(e.g. BENCH_setup.json)")
    parser.add_argument("--profile", action="store_true",
                        help="collect metrics during the sweep and "
                             "embed the snapshot in the report")
    args = parser.parse_args(argv)
    if args.profile:
        from repro import obs
        obs.enable()
    report = run_setup_benchmark(
        orders=[int(t) for t in args.orders.split(",")],
        batch_sizes=[int(t) for t in args.batches.split(",")],
        seed=args.seed, repeats=args.repeats,
        include_parallel=not args.no_parallel,
    )
    print(format_setup_table(report))
    if args.json:
        write_json(report, args.json)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
