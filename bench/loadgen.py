"""Open- and closed-loop TCP load for the two serve workloads.

One thread, one asyncio loop, two connections.  Requests are generated
from the seed before any timing: every wire line is pre-encoded with a
placeholder id, and the id is spliced in as bytes at send time.

- **open loop**: request ``i`` of a phase is *due* at
  ``start + i / rate``; the sender writes every due request as soon as
  it can and never waits for answers, so a stalled daemon builds a
  queue.  Latency is timed from the due time, so generator lateness
  is charged to the request, and the lateness is reported
  (``gen_late_p99_ms``).  The sender sleeps until ``SPIN_S`` before a
  due time and yields to the loop from there, since the loop's poll
  only sleeps whole milliseconds.
- **closed loop**: each connection keeps ``DEPTH`` requests in flight
  and sends one new request per answer; completions per second is the
  daemon's capacity.  After ``RAMP_S`` to fill the pipeline, each
  window's rate is taken between its first and last read.

Every ``CHECK_EVERY``-th answer is decoded and compared with the
answer of a direct library call made before the run.  Answers that
are not ``ok``, disagree, or never arrive count as failed.

Run as a script, this module is the load child of the traced run:
``python bench/loadgen.py SPEC_JSON``.  Before each phase it prints
``phase <label>`` and waits for one line on stdin, so the parent can
switch its tracing on or off between phases; its last stdout line is
the result as JSON.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import time

from stats import pct

CHECK_EVERY = 8
PLAN_LEN = 4096
DEPTH = 256
CONNECTIONS = 2
DRAIN_TIMEOUT_S = 5.0
RAMP_S = 0.1
SPIN_S = 0.002

#: Per serve workload: the open-loop rate (requests/s), the orders the
#: daemon warms, and the traffic mix as (op, order, states, share).
SERVE_WORKLOADS = {
    "serve-route": {
        "rate": 3000.0,
        "warm_orders": (5,),
        "mix": (("route", 5, False, 1.0),),
    },
    "serve-mixed": {
        "rate": 500.0,
        "warm_orders": (5, 8),
        "mix": (("route", 5, False, 0.4),
                ("membership", 5, False, 0.2),
                ("packet", 5, False, 0.2),
                ("route", 8, True, 0.1),
                ("setup", 8, False, 0.1)),
    },
}

_OK = b'"status":"ok"'
_ID = b'"id":'


def _row(rng: random.Random, op: str, order: int) -> tuple:
    n = 1 << order
    if op != "packet":
        return tuple(rng.sample(range(n), n))
    # k = N/2 active lanes with distinct destinations; the rest idle.
    row = [-1] * n
    for src, dst in zip(rng.sample(range(n), n // 2),
                        rng.sample(range(n), n // 2)):
        row[src] = dst
    return tuple(row)


def _expected(op: str, order: int, states: bool, rows: list) -> list:
    """The direct library answer for each row, as the response fields
    it must match."""
    from repro.accel import (batch_in_class_f, batch_route_partial,
                             batch_self_route)
    from repro.core.fastpath import fast_self_route
    from repro.core.waksman import setup_states

    if op == "route":
        out = []
        for row in rows:
            ok, delivered = fast_self_route(row)
            out.append({"success": ok, "mapping": list(delivered)})
        if states:
            ref = batch_self_route(rows, stage_states=True,
                                   engine="scalar")
            for fields, lane in zip(out, ref.stage_states):
                fields["states"] = [[int(s) for s in col] for col in lane]
        return out
    if op == "membership":
        mask = batch_in_class_f(rows, engine="scalar")
        return [{"success": bool(v)} for v in mask]
    if op == "packet":
        ref = batch_route_partial(rows, engine="scalar")
        return [{"success": bool(ref.success_mask[k]),
                 "mapping": [int(v) for v in ref.delivered[k]]}
                for k in range(len(rows))]
    return [{"success": True,
             "states": [list(col) for col in setup_states(row)]}
            for row in rows]


class Requests:
    """The seeded request plan of one serve workload.

    Request ``i`` is plan entry ``i % PLAN_LEN``; its wire line is that
    entry's pre-encoded line with ``i`` as the id.  Entries whose index
    is a multiple of ``CHECK_EVERY`` carry the expected answer.
    """

    def __init__(self, workload: str, seed: int):
        from repro.serve import protocol

        rng = random.Random(seed)
        mix = SERVE_WORKLOADS[workload]["mix"]
        # Each class fills exactly its share of the plan, so the seed
        # changes the order and the rows but not the mix.
        classes = [c for c, (*_spec, share) in enumerate(mix)
                   for _ in range(round(share * PLAN_LEN))]
        if len(classes) != PLAN_LEN:
            raise ValueError(f"{workload}: shares do not fill the plan")
        rng.shuffle(classes)
        self.suffix = []
        checked = {c: [] for c in range(len(mix))}
        for j, c in enumerate(classes):
            op, order, states, _share = mix[c]
            row = _row(rng, op, order)
            line = protocol.encode_request(protocol.RouteRequest(
                op=op, tags=row, stage_states=states))
            head = '{"id":0,'
            if not line.startswith(head):
                raise RuntimeError(f"unexpected request encoding {line!r}")
            self.suffix.append(line[len(head) - 1:].encode() + b"\n")
            if j % CHECK_EVERY == 0:
                checked[c].append((j, row))
        self.expected = {}
        for c, entries in checked.items():
            if entries:
                op, order, states, _share = mix[c]
                answers = _expected(op, order, states,
                                    [row for _j, row in entries])
                for (j, _row_), answer in zip(entries, answers):
                    self.expected[j] = answer

    def line(self, rid: int) -> bytes:
        return b'{"id":%d%s' % (rid, self.suffix[rid % PLAN_LEN])

    def agrees(self, rid: int, line: bytes) -> bool:
        payload = json.loads(line)
        return all(payload.get(key) == value for key, value
                   in self.expected[rid % PLAN_LEN].items())


class _Load:
    """Shared state of one load run: ids in flight with their due time
    and latency bucket, counters, and the closed loop's read log."""

    def __init__(self, requests: Requests):
        self.requests = requests
        self.next_id = 0
        self.pending = {}
        self.writers = []
        self.attempted = 0
        self.completed = 0
        self.errors = 0
        self.mismatches = 0
        self.unknown = 0
        self.reads = None  # (time, completed) per read while topping up

    def send(self, conn: int, entries: list) -> None:
        """Write one request per ``(due, bucket)`` entry in a single
        write on connection ``conn``."""
        lines = []
        for entry in entries:
            rid = self.next_id
            self.next_id += 1
            self.pending[rid] = entry
            lines.append(self.requests.line(rid))
        self.attempted += len(lines)
        self.writers[conn].write(b"".join(lines))

    def on_lines(self, conn: int, lines: list, now: float) -> None:
        answered = 0
        for line in lines:
            start = line.find(_ID) + len(_ID)
            rid = int(line[start:line.index(b",", start)])
            entry = self.pending.pop(rid, None)
            if entry is None:
                self.unknown += 1
                continue
            answered += 1
            due, bucket = entry
            if _OK not in line:
                self.errors += 1
            elif rid % CHECK_EVERY == 0 and \
                    not self.requests.agrees(rid, line):
                self.mismatches += 1
            if bucket is not None:
                bucket.append(now - due)
        self.completed += answered
        if self.reads is not None and answered:
            self.reads.append((now, self.completed))
            self.send(conn, [(now, None)] * answered)

    async def read_loop(self, conn: int, reader) -> None:
        tail = b""
        while True:
            data = await reader.read(1 << 16)
            if not data:
                return
            now = time.perf_counter()
            lines = (tail + data).split(b"\n")
            tail = lines.pop()
            if lines:
                self.on_lines(conn, lines, now)

    async def open_loop(self, rate: float, seconds: float,
                        windows: int) -> dict:
        interval = 1.0 / rate
        total = int(seconds * rate)
        per_window = max(1, -(-total // max(windows, 1)))
        buckets = [[] for _ in range(max(windows, 1))]
        late = []
        start = time.perf_counter() + 0.01
        sent = 0
        while sent < total:
            now = time.perf_counter()
            early = start + sent * interval - now
            if early > 0:
                # The loop's poll sleeps whole milliseconds, so the last
                # SPIN_S before a due time is spent yielding, not asleep.
                await asyncio.sleep(max(0.0, early - SPIN_S))
                continue
            upto = min(total, int((now - start) / interval) + 1)
            entries = [[] for _ in range(CONNECTIONS)]
            for i in range(sent, upto):
                due = start + i * interval
                bucket = buckets[i // per_window] if windows else None
                entries[i % CONNECTIONS].append((due, bucket))
                late.append(now - due)
            for conn, batch in enumerate(entries):
                if batch:
                    self.send(conn, batch)
            sent = upto
        stop = time.perf_counter()
        await self.drain()
        return {
            "windows": [
                {"n": len(b), "p50_ms": pct(b, 0.50) * 1e3,
                 "p90_ms": pct(b, 0.90) * 1e3,
                 "p99_ms": pct(b, 0.99) * 1e3,
                 "mean_ms": sum(b) / len(b) * 1e3 if b else 0.0}
                for b in buckets] if windows else [],
            "gen_late_p99_ms": pct(late, 0.99) * 1e3,
            "gen_late_mean_ms": sum(late) / max(len(late), 1) * 1e3,
            "offered_rps": total / (stop - start),
            "achieved_rps": sum(len(b) for b in buckets) / (stop - start),
        }

    async def closed_loop(self, seconds: float, windows: int) -> dict:
        """Keep ``DEPTH`` requests in flight per connection for
        ``RAMP_S`` plus ``seconds``.  Answers arrive in bursts of up to
        a whole batch, so a window's rate is taken between its first
        and last read: the answers after the first read over the time
        between them."""
        window_s = seconds / windows
        self.reads = []
        now = time.perf_counter()
        for conn in range(CONNECTIONS):
            self.send(conn, [(now, None)] * DEPTH)
        start = now + RAMP_S
        await asyncio.sleep(start + seconds - time.perf_counter())
        reads, self.reads = self.reads, None
        await self.drain()
        out = []
        for k in range(windows):
            lo = start + k * window_s
            inside = [(t, n) for t, n in reads
                      if lo <= t < lo + window_s]
            if len(inside) < 2:
                raise RuntimeError(f"closed-loop window {k}: fewer than "
                                   f"two reads in {window_s:.3f}s")
            (t0, n0), (t1, n1) = inside[0], inside[-1]
            out.append({"n": n1 - n0,
                        "items_per_s": (n1 - n0) / (t1 - t0)})
        return {"windows": out}

    async def drain(self) -> None:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while self.pending and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)


async def _run(requests: Requests, host: str, port: int, rate: float,
               phases: list, on_phase) -> dict:
    load = _Load(requests)
    streams = [await asyncio.open_connection(host, port)
               for _ in range(CONNECTIONS)]
    load.writers = [writer for _reader, writer in streams]
    readers = [asyncio.create_task(load.read_loop(conn, reader))
               for conn, (reader, _writer) in enumerate(streams)]
    results = {}
    try:
        for label, kind, seconds, windows in phases:
            if on_phase is not None:
                on_phase(label)
            if kind == "open":
                result = await load.open_loop(rate, seconds, windows)
            else:
                result = await load.closed_loop(seconds, windows)
            results.setdefault(label, []).append(result)
    finally:
        for writer in load.writers:
            writer.close()
        for writer in load.writers:
            try:
                await writer.wait_closed()
            except OSError:
                pass
        await asyncio.gather(*readers, return_exceptions=True)
    missing = len(load.pending)
    failed = load.errors + load.mismatches + missing + load.unknown
    return {"phases": results, "attempted": load.attempted,
            "failed": failed, "errors": load.errors,
            "mismatches": load.mismatches, "missing": missing,
            "unknown": load.unknown}


def run(workload: str, seed: int, host: str, port: int, phases: list,
        on_phase=None, requests: Requests = None) -> dict:
    """Drive a daemon at ``host:port`` through ``phases``, a list of
    ``(label, "open"|"closed", seconds, windows)``; ``windows=0`` marks
    an unmeasured warm-up.  The result holds, per label, the list of
    that label's phase results in order."""
    if requests is None:
        requests = Requests(workload, seed)
    rate = SERVE_WORKLOADS[workload]["rate"]
    return asyncio.run(_run(requests, host, port, rate, phases, on_phase))


def _child_phase(label: str) -> None:
    print(f"phase {label}", flush=True)
    if not sys.stdin.readline():
        raise SystemExit("load child: parent closed stdin")


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = run(spec["workload"], spec["seed"], spec["host"],
                 spec["port"], spec["phases"], on_phase=_child_phase)
    print(json.dumps(result), flush=True)
