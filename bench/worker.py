"""The process under test for the two library workloads.

``python bench/worker.py SPEC_JSON`` with ``SPEC_JSON`` holding
``workload``, ``seed``, ``seconds``, ``windows``, ``trace`` (0/1) and
``spans`` (path).  The worker

1. makes its first input from the seed, then imports ``repro`` and
   makes the first call, and prints ``{"ready": ..., "gen_s": ...}``
   (the parent times spawn to this line, minus ``gen_s``);
2. builds the rest of its inputs and their direct answers, warms up,
   and times calls for ``seconds`` split into ``windows``, checking
   every call's output outside the timed region and timing the
   reference task (``reference.py``) between windows;
3. prints the result as one JSON line, including its own ``VmHWM``.

With ``trace`` 1 it times half of ``seconds`` plain and half with the
layers wrapped (``layers.py``), and reports the per-layer metrics.

Workloads:

- ``kernel-route``: ``repro.accel.batch_self_route`` on batches of 256
  order-8 random permutations passed as lists of tuples, checked
  against ``fast_self_route`` row by row;
- ``composed-o16``: ``repro.accel.iter_composed_states(16, perm)``
  consumed chunk by chunk, one permutation per call; one middle block
  of each call is checked against ``setup_states``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from statistics import median

from reference import reference_s, speeds
from stats import pct

KERNEL_ORDER = 8
KERNEL_BATCH = 256
KERNEL_POOL = 4
COMPOSED_ORDER = 16
WARMUP_S = 0.25
CONVERT_PAIRS = 20


def vm_hwm_kb(pid="self") -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc status")


class Kernel:
    """``kernel-route``: one call routes one pool batch."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.batches = [self._batch()]

    def _batch(self) -> list:
        n = 1 << KERNEL_ORDER
        return [tuple(self.rng.sample(range(n), n))
                for _ in range(KERNEL_BATCH)]

    def prepare(self) -> None:
        import numpy as np
        from repro.core.fastpath import fast_self_route

        while len(self.batches) < KERNEL_POOL:
            self.batches.append(self._batch())
        self.expected = []
        for rows in self.batches:
            answers = [fast_self_route(row) for row in rows]
            self.expected.append((
                np.array([ok for ok, _ in answers]),
                np.array([delivered for _, delivered in answers])))

    def call(self, index: int):
        """Run call ``index``; returns (items, seconds, check)."""
        from repro import accel

        rows = self.batches[index % len(self.batches)]
        t0 = time.perf_counter()
        result = accel.batch_self_route(rows)
        elapsed = time.perf_counter() - t0
        return len(rows), elapsed, lambda: self._agrees(index, result)

    def _agrees(self, index: int, result) -> bool:
        import numpy as np

        success, mappings = self.expected[index % len(self.expected)]
        return (np.array_equal(np.asarray(result.success_mask), success)
                and np.array_equal(np.asarray(result.mappings), mappings))

    def convert_us(self) -> float:
        """``batch_self_route(list)`` minus ``batch_self_route(ndarray)``
        on the same rows, median over alternating pairs."""
        import numpy as np
        from repro import accel

        rows = self.batches[0]
        arr = np.asarray(rows)
        lists, arrays = [], []
        for _ in range(CONVERT_PAIRS):
            for arg, out in ((rows, lists), (arr, arrays)):
                t0 = time.perf_counter()
                accel.batch_self_route(arg)
                out.append(time.perf_counter() - t0)
        return (median(lists) - median(arrays)) * 1e6


class Composed:
    """``composed-o16``: one call streams one permutation's states."""

    def __init__(self, seed: int):
        self.seed = seed
        perm = list(range(1 << COMPOSED_ORDER))
        random.Random(seed).shuffle(perm)
        self.perm = perm
        self.pick = random.Random(seed)
        self.reset_timings()

    def reset_timings(self) -> None:
        self.first_chunk_s = []
        self.chunk_s = []
        self.chunks = []

    def prepare(self) -> None:
        import numpy as np

        self.np_rng = np.random.default_rng(self.seed)

    def call(self, index: int):
        from repro import accel

        if index:
            self.perm = self.np_rng.permutation(
                1 << COMPOSED_ORDER).tolist()
        # Chunks are dropped as they arrive, as a streaming consumer
        # would; one block chunk, chosen uniformly by reservoir
        # sampling, is kept for the check.
        kept, seen = None, 0
        t0 = last = time.perf_counter()
        gaps = []
        for chunk in accel.iter_composed_states(COMPOSED_ORDER, self.perm):
            now = time.perf_counter()
            gaps.append(now - last)
            last = now
            if chunk.kind == "blocks":
                seen += 1
                if self.pick.randrange(seen) == 0:
                    kept = chunk
        elapsed = last - t0
        self.first_chunk_s.append(gaps[0])
        self.chunk_s.extend(gaps[1:])
        self.chunks.append(len(gaps))
        block = self.pick.randrange(len(kept.perms))
        return 1, elapsed, lambda: self._agrees(kept, block)

    @staticmethod
    def _agrees(chunk, block: int) -> bool:
        from repro.core.waksman import setup_states

        expected = setup_states([int(v) for v in chunk.perms[block]])
        got = [[int(s) for s in column] for column in chunk.states[block]]
        return got == expected


WORKLOADS = {"kernel-route": Kernel, "composed-o16": Composed}


def measure(workload, seconds: float, windows: int, start_index: int):
    """Call back to back for ``seconds`` split into ``windows``; each
    call's output is checked outside the timed region, and the
    reference task is timed between windows for each window's host
    speed.  Returns the per-window results and the next call index."""
    index = start_index
    out, refs = [], [reference_s()]
    for _ in range(windows):
        latencies, items, failed = [], 0, 0
        stop = time.perf_counter() + seconds / windows
        while time.perf_counter() < stop:
            n, elapsed, check = workload.call(index)
            index += 1
            latencies.append(elapsed)
            items += n
            if not check():
                failed += 1
        refs.append(reference_s())
        out.append({"calls": len(latencies), "failed": failed,
                    "items_per_s": items / sum(latencies),
                    "p50_ms": pct(latencies, 0.50) * 1e3,
                    "p90_ms": pct(latencies, 0.90) * 1e3,
                    "p99_ms": pct(latencies, 0.99) * 1e3,
                    "mean_ms": sum(latencies) / len(latencies) * 1e3})
    for window, speed in zip(out, speeds(refs)):
        window["speed"] = speed
    return out, index


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    workload = WORKLOADS[spec["workload"]](spec["seed"])
    gen_s = time.perf_counter() - t0
    workload.call(0)
    print(json.dumps({"ready": True, "gen_s": gen_s}), flush=True)
    workload.prepare()
    seconds = spec["seconds"]
    _warm, index = measure(workload, WARMUP_S, 1, 1)
    if not spec["trace"]:
        windows, _ = measure(workload, seconds, spec["windows"], index)
        return {"windows": windows, "peak_rss_kb": vm_hwm_kb()}
    import layers

    untraced, index = measure(workload, seconds / 2, 1, index)
    if isinstance(workload, Composed):
        workload.reset_timings()
    tracer = layers.Tracer()
    tracer.start("traced")
    tracer.install(layers.LIBRARY_TARGETS[spec["workload"]])
    try:
        before = layers.snapshot()
        traced, _ = measure(workload, seconds / 2, 1, index)
        after = layers.snapshot()
    finally:
        tracer.uninstall()
    tracer.write(spec["spans"])
    found = layers.library_layers(spec["workload"], tracer, traced[0],
                                  before, after)
    found["tracing_overhead"] = (untraced[0]["items_per_s"]
                                 / traced[0]["items_per_s"])
    if isinstance(workload, Kernel):
        found["accel.route.convert_us"] = workload.convert_us()
    else:
        found.update(layers.composed_layers(workload, before, after))
    return {"windows": untraced + traced, "layers": found}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
