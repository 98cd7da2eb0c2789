"""Per-layer timing from outside the program.

The traced run replaces layer entry points with timing wrappers: the
module attribute or class method a caller looks up at call time is
swapped for a wrapper that records a span ``(name, start, end, req,
batch, n)`` in memory and calls the original.  Nothing in ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original back.

Spans of one request share its wire id (``req``); spans of one engine
batch share a batch number (``batch``), assigned when the coalescer
flushes.  The engine call is matched to its flush by the identity of
the first request's tags tuple, which the daemon passes through as
row 0 of the batch.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from statistics import median

from stats import pct

_now = time.perf_counter

#: The per-layer metrics every workload reports (``BENCHMARK.json``
#: ``per_layer``); the rest of each catalogue is workload specific.
COMMON = ("tracing_overhead", "unattributed_frac", "accel.us_per_row",
          "accel.rows_per_call", "accel.frac", "engine.resolve_us")


class Tracer:
    """In-memory spans, grouped by phase, plus the flush bookkeeping
    that links requests to engine batches."""

    def __init__(self):
        self.phases = {}
        self.spans = []
        self._saved = []
        self.batch_of_req = {}
        self.flush_at = {}
        self._batch_of_tags = {}
        self._next_batch = 0

    def start(self, phase: str) -> None:
        self.spans = self.phases.setdefault(phase, [])

    def install(self, targets) -> None:
        for owner_path, attr, factory in targets:
            module_path, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_path)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if class_name else \
                getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, factory(self, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def flush(self, items, at: float, why: str) -> None:
        """A batch left the coalescer: number it and remember which
        requests it carries."""
        batch = self._next_batch
        self._next_batch += 1
        self.spans.append((f"coalescer.flush.{why}", at, at, None, batch,
                           len(items)))
        self.flush_at[batch] = at
        for request, _future in items:
            self.batch_of_req[request.id] = batch
        self._batch_of_tags[id(items[0][0].tags)] = batch

    def batch_for(self, rows):
        if not len(rows):
            return None
        return self._batch_of_tags.pop(id(rows[0]), None)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for phase, spans in self.phases.items():
                for name, start, end, req, batch, n in spans:
                    if batch is None and req is not None:
                        batch = self.batch_of_req.get(req)
                    fh.write(json.dumps({
                        "phase": phase, "name": name,
                        "start_us": round(start * 1e6, 1),
                        "end_us": round(end * 1e6, 1),
                        "req": req, "batch": batch, "n": n}) + "\n")


# ----------------------------------------------------------------------
# Wrapper factories: factory(tracer, original) -> replacement
# ----------------------------------------------------------------------

def _timed(name, describe):
    def factory(tracer, fn):
        def wrapper(*args, **kwargs):
            start = _now()
            result = fn(*args, **kwargs)
            end = _now()
            tracer.spans.append((name, start, end)
                                + describe(tracer, args, result))
            return result
        return wrapper
    return factory


def _timed_gen(name):
    """Time each step of a generator; one span per ``next``."""
    def factory(tracer, fn):
        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                start = _now()
                try:
                    item = next(steps)
                except StopIteration:
                    tracer.spans.append((name, start, _now(), None, None,
                                         0))
                    return
                tracer.spans.append((name, start, _now(), None, None, 1))
                yield item
        return wrapper
    return factory


def _offer(tracer, fn):
    from repro.serve.coalescer import FLUSH, REJECT

    def offer(self, key, item, now):
        start = _now()
        verdict, batch = fn(self, key, item, now)
        end = _now()
        request = item[0]
        tracer.spans.append(("coalescer.offer", start, end, request.id,
                             None, 0))
        if verdict == FLUSH:
            tracer.flush(batch, end, "size")
        elif verdict == REJECT:
            tracer.spans.append(("coalescer.reject", start, end,
                                 request.id, None, 0))
        return verdict, batch
    return offer


def _popper(why):
    def factory(tracer, fn):
        def pop(self, *args):
            start = _now()
            batches = fn(self, *args)
            end = _now()
            tracer.spans.append((f"coalescer.{why}", start, end, None,
                                 None, len(batches)))
            for _key, items in batches:
                tracer.flush(items, end, why)
            return batches
        return pop
    return factory


def _req(tracer, args, result):
    return (args[0].id, None, 0)


def _rows_at(index):
    def describe(tracer, args, result):
        rows = args[index]
        return (None, tracer.batch_for(rows), len(rows))
    return describe


def _none(tracer, args, result):
    return (None, None, 0)


_PROTOCOL = "repro.serve.protocol"
_DAEMON = "repro.serve.daemon"
_QUEUE = "repro.serve.coalescer:CoalescingQueue"

SERVE_TARGETS = [
    (_PROTOCOL, "decode_request", _timed(
        "protocol.decode",
        lambda tracer, args, result: (result.id, None, len(args[0])))),
    (_PROTOCOL, "encode_response", _timed(
        "protocol.encode",
        lambda tracer, args, result: (args[0].id, None,
                                      len(result) + 1))),
    (_PROTOCOL, "from_batch_result", _timed("protocol.build", _req)),
    (_PROTOCOL, "from_membership_mask", _timed("protocol.build", _req)),
    (_PROTOCOL, "from_partial_result", _timed("protocol.build", _req)),
    (_PROTOCOL, "from_setup_states", _timed("protocol.build", _req)),
    (_QUEUE, "offer", _offer),
    (_QUEUE, "due", _popper("deadline")),
    (_QUEUE, "drain", _popper("drain")),
    (_DAEMON, "batch_self_route", _timed("accel.route", _rows_at(0))),
    (_DAEMON, "batch_in_class_f", _timed("accel.membership",
                                         _rows_at(0))),
    (_DAEMON, "batch_route_partial", _timed("accel.packet",
                                            _rows_at(0))),
    (_DAEMON, "batch_setup_states", _timed("accel.setup", _rows_at(1))),
    (_DAEMON, "resolve_engine", _timed("engine.resolve", _none)),
    ("repro.accel.batch", "resolve_engine", _timed("engine.resolve",
                                                   _none)),
    ("repro.accel.batch", "stage_plan", _timed("plans.lookup", _none)),
]

LIBRARY_TARGETS = {
    "kernel-route": [
        ("repro.accel", "batch_self_route", _timed("accel.route",
                                                   _rows_at(0))),
        ("repro.accel.batch", "resolve_engine", _timed("engine.resolve",
                                                       _none)),
        ("repro.accel.batch", "stage_plan", _timed("plans.lookup",
                                                   _none)),
    ],
    "composed-o16": [
        ("repro.accel.setup", "batch_setup_states", _timed(
            "accel.setup", _rows_at(1))),
        ("repro.accel.setup", "peel_level_stream", _timed_gen(
            "composed.peel")),
        ("repro.accel.batch", "resolve_engine", _timed("engine.resolve",
                                                       _none)),
    ],
}


# ----------------------------------------------------------------------
# Metrics from spans
# ----------------------------------------------------------------------

def snapshot() -> dict:
    from repro.accel import cache_stats, composed_stats

    return {"cache": cache_stats(), "composed": composed_stats()}


def _hit_frac(before: dict, after: dict) -> float:
    hits = lookups = 0
    for name, stats in after["cache"].items():
        old = before["cache"][name]
        new_hits = stats["hits"] - old["hits"]
        hits += new_hits
        lookups += new_hits + stats["misses"] - old["misses"]
    return hits / lookups if lookups else 0.0


def _by_name(spans) -> dict:
    out = defaultdict(list)
    for span in spans:
        out[span[0]].append(span)
    return out


def _mean_us(spans) -> float:
    if not spans:
        return 0.0
    return sum(end - start for _n, start, end, *_rest in spans) \
        / len(spans) * 1e6


def _accel(named: dict, ops) -> tuple:
    """Per-op engine metrics and the all-op totals
    ``(seconds, rows, calls)``."""
    out = {}
    seconds = rows = calls = 0
    for op in ops:
        spans = named.get(f"accel.{op}", [])
        busy = sum(end - start for _n, start, end, *_rest in spans)
        n_rows = sum(span[5] for span in spans)
        out[f"accel.{op}.us_per_row"] = busy / n_rows * 1e6 \
            if n_rows else 0.0
        out[f"accel.{op}.calls"] = len(spans)
        out[f"accel.{op}.rows_per_call"] = n_rows / len(spans) \
            if spans else 0.0
        seconds += busy
        rows += n_rows
        calls += len(spans)
    return out, (seconds, rows, calls)


def serve_layers(tracer: Tracer, ops, open_result: dict, before: dict,
                 after: dict) -> dict:
    """The serve catalogue, from the spans of the traced open-loop
    phase and that phase's client-side latencies."""
    spans = tracer.phases.get("open", [])
    named = _by_name(spans)
    decode = named["protocol.decode"]
    encode = named["protocol.encode"]
    offers = named["coalescer.offer"]
    flushes = [s for s in spans if s[0].startswith("coalescer.flush.")]
    out, (accel_s, accel_rows, accel_calls) = _accel(named, ops)

    build_of_batch = defaultdict(float)
    for _n, start, end, req, _b, _x in named["protocol.build"]:
        build_of_batch[tracer.batch_of_req.get(req)] += end - start
    accel_of_batch, dispatch_wait = {}, []
    for op in ops:
        for _n, start, end, _r, batch, _rows in named.get(f"accel.{op}",
                                                          []):
            if batch is None:
                continue
            accel_of_batch[batch] = end - start
            dispatch_wait.append(start - tracer.flush_at[batch])
    # Per request, the steps it blocks on: its own decode, offer and
    # encode, its wait for the flush and the engine, and its batch's
    # engine call and response building.
    waits, path = [], defaultdict(float)
    offer_end = {req: end for _n, _s, end, req, _b, _x in offers}
    for req, end in offer_end.items():
        batch = tracer.batch_of_req.get(req)
        if batch is None or batch not in accel_of_batch:
            continue
        wait = tracer.flush_at[batch] - end
        waits.append(wait)
        path["wait"] += wait
        path["accel"] += accel_of_batch[batch]
        path["build"] += build_of_batch[batch]
    served = len(waits)
    for name in ("protocol.decode", "coalescer.offer", "protocol.encode"):
        path[name] = sum(e - s for _n, s, e, *_r in named[name]) \
            / max(len(named[name]), 1) * served
    path["dispatch"] = sum(dispatch_wait) / max(len(dispatch_wait), 1) \
        * served
    windows = open_result["windows"]
    latency_ms = sum(w["mean_ms"] * w["n"] for w in windows) \
        / max(sum(w["n"] for w in windows), 1)
    per_request_ms = (sum(path.values()) / max(served, 1) * 1e3
                      + open_result["gen_late_mean_ms"])
    size_flushes = sum(1 for s in flushes if s[0].endswith(".size"))
    out.update({
        "protocol.decode_us": _mean_us(decode),
        "protocol.build_us": _mean_us(named["protocol.build"]),
        "protocol.encode_us": _mean_us(encode),
        "wire.req_bytes": sum(s[5] for s in decode) / max(len(decode), 1),
        "wire.resp_bytes": sum(s[5] for s in encode) / max(len(encode), 1),
        "coalescer.offer_us": _mean_us(offers),
        "coalescer.wait_ms_p50": pct(waits, 0.50) * 1e3,
        "coalescer.wait_ms_p90": pct(waits, 0.90) * 1e3,
        "coalescer.batch_size_mean": sum(s[5] for s in flushes)
        / max(len(flushes), 1),
        "coalescer.size_flush_frac": size_flushes / max(len(flushes), 1),
        "coalescer.rejected_frac": len(named["coalescer.reject"])
        / max(len(offers), 1),
        "daemon.dispatch_wait_ms_p50": pct(dispatch_wait, 0.50) * 1e3,
        "engine.resolve_us": _mean_us(named["engine.resolve"]),
        "plans.lookup_us": _mean_us(named["plans.lookup"]),
        "plans.hit_frac": _hit_frac(before, after),
        "accel.us_per_row": accel_s / max(accel_rows, 1) * 1e6,
        "accel.rows_per_call": accel_rows / max(accel_calls, 1),
        "accel.frac": path["accel"] / max(served, 1) * 1e3 / latency_ms,
        "gen.late_mean_ms": open_result["gen_late_mean_ms"],
        "latency.mean_ms": latency_ms,
        "unattributed_frac": 1.0 - per_request_ms / latency_ms,
    })
    return out


def library_layers(workload: str, tracer: Tracer, window: dict,
                   before: dict, after: dict) -> dict:
    """The library catalogue, from the spans of the traced window and
    its harness-side call latencies."""
    named = _by_name(tracer.spans)
    op = "route" if workload == "kernel-route" else "setup"
    out, (accel_s, accel_rows, accel_calls) = _accel(named, (op,))
    total_s = window["mean_ms"] * window["calls"] / 1e3
    peel_s = sum(e - s for _n, s, e, *_r in named.get("composed.peel",
                                                       []))
    out.update({
        "engine.resolve_us": _mean_us(named["engine.resolve"]),
        "plans.hit_frac": _hit_frac(before, after),
        "accel.us_per_row": accel_s / max(accel_rows, 1) * 1e6,
        "accel.rows_per_call": accel_rows / max(accel_calls, 1),
        "accel.frac": accel_s / total_s,
        "latency.mean_ms": window["mean_ms"],
        "unattributed_frac": 1.0 - (accel_s + peel_s) / total_s,
    })
    if op == "route":
        out["plans.lookup_us"] = _mean_us(named["plans.lookup"])
    else:
        out["composed.peel_ms"] = peel_s / window["calls"] * 1e3
    return out


def composed_layers(workload, before: dict, after: dict) -> dict:
    """Chunk timings seen by the consumer, and the engine's own chunk
    counters (``composed_stats()``)."""
    return {
        "composed.first_chunk_ms": median(workload.first_chunk_s) * 1e3,
        "composed.chunk_ms_p50": median(workload.chunk_s) * 1e3,
        "composed.chunks_per_perm": sum(workload.chunks)
        / len(workload.chunks),
        "composed.peak_chunk_bytes": after["composed"]["peak_chunk_bytes"],
        "composed.blocks_per_perm": (after["composed"]["blocks"]
                                     - before["composed"]["blocks"])
        / len(workload.chunks),
    }
