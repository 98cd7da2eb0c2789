"""The repository's benchmark: one command, four workloads.

Run from the repository root::

    python3 bench/run.py --workload serve-route --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --seed 1                 # all four workloads
    python3 bench/run.py --seed 1 --smoke         # about 1 s each

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports per-layer
metrics and writes its spans as JSONL (``--spans``).  ``--out PATH``
appends each workload's full record, for ``bench/compare.py``.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any output
disagreed with the direct library answer.

The process under test is always a fresh ``PYTHONHASHSEED=0`` process
(the ``benes serve`` daemon, or ``bench/worker.py``), except in the
traced serve run, where the daemon runs in this process and the load
comes from a child; this script re-executes itself with
``PYTHONHASHSEED=0`` for that reason.

Each untraced timing is corrected to a reference host speed with a
fixed task timed on the same CPU around each window
(``reference.py``); the uncorrected values are printed as ``[info]``
``raw_*`` lines.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from statistics import median

from reference import REF_S, reference_on, speeds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("serve-route", "serve-mixed", "kernel-route", "composed-o16")
END_TO_END = ("setup_s", "items_per_s", "p50_ms", "p90_ms", "peak_rss_kb")
COLD_STARTS = 5
WINDOWS = 8
ROUNDS = 4
OPEN_SHARE = 0.5
WARM_S = 0.25
SPAWN_TIMEOUT_S = 120.0
MAX_GEN_LATE_MS = 5.0
MAX_LOAD = 0.8

_UNIT_TOKENS = (("us", "us"), ("ms", "ms"), ("frac", "ratio"),
                ("bytes", "bytes"), ("kb", "KiB"), ("overhead", "x"),
                ("rows", "rows"))


def unit_of(name: str) -> str:
    """A metric's unit, read from the tokens of its last name part."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_per_s"):
        return "items/s"
    tokens = last.split("_")
    for token, unit in _UNIT_TOKENS:
        if token in tokens:
            return unit
    return "s" if tokens[-1] == "s" else "count"


def child_env() -> dict:
    """The environment of every process under test: the checkout's
    sources with bytecode caching on (as installed code runs), a
    pinned hash seed, no inherited engine knobs, and no autotune cache
    written outside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BENES_")
           and k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               BENES_AUTOTUNE_CACHE="off")
    return env


class Layout(NamedTuple):
    """CPU sets: ``load`` for the load generator, ``test`` for the
    process under test.  With two or more CPUs each side gets one of
    its own, so the two never compete for a core; with one, both share
    it."""

    load: set
    test: set

    @classmethod
    def split(cls) -> "Layout":
        cpus = sorted(os.sched_getaffinity(0))
        return cls({cpus[0]}, {cpus[-1]})


def _spawn(args: list, cpus: set, **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen(args, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True, **kwargs)
    os.sched_setaffinity(proc.pid, cpus)
    return proc


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            raise RuntimeError(f"{proc.args[1]}: no output in {timeout}s")
    return proc.stdout.readline()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            pipe.close()


class Daemon:
    """A ``benes serve`` process; ``setup_s`` is spawn until it prints
    ``listening``, and ``speed`` the host speed just before the
    spawn."""

    def __init__(self, warm_orders, cpus: set):
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
               "--max-batch", "256", "--max-wait-us", "2000",
               "--warm-orders", ",".join(map(str, warm_orders))]
        self.speed = REF_S / reference_on(cpus)
        start = time.perf_counter()
        self.proc = _spawn(cmd, cpus)
        try:
            line = _readline(self.proc, SPAWN_TIMEOUT_S)
            self.setup_s = time.perf_counter() - start
            if "listening on " not in line:
                raise RuntimeError(f"benes serve did not start: {line!r}")
        except BaseException:
            _stop(self.proc)
            raise
        address = line.split("listening on ")[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)


class Worker:
    """A ``bench/worker.py`` process; ``setup_s`` is spawn until its
    first call returned, less the time it spent making that input, and
    ``speed`` the host speed just before the spawn."""

    def __init__(self, spec: dict, cpus: set):
        self.speed = REF_S / reference_on(cpus)
        start = time.perf_counter()
        self.proc = _spawn(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cpus)
        try:
            ready = self._message(SPAWN_TIMEOUT_S)
        except BaseException:
            _stop(self.proc)
            raise
        self.setup_s = time.perf_counter() - start - ready["gen_s"]

    def _message(self, timeout: float) -> dict:
        line = _readline(self.proc, timeout)
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def result(self, timeout: float) -> dict:
        try:
            message = self._message(timeout)
            self.proc.wait(SPAWN_TIMEOUT_S)
            return message
        finally:
            _stop(self.proc)


def _corrected(window: dict) -> dict:
    """A window's rate and latencies at the reference speed: rates
    divided by the window's host speed, times multiplied by it."""
    out = dict(window)
    if "items_per_s" in window:
        out["items_per_s"] = window["items_per_s"] / window["speed"]
    for key in ("p50_ms", "p90_ms", "p99_ms"):
        if key in window:
            out[key] = window[key] * window["speed"]
    return out


def _trimmed_mean(windows, key: str) -> float:
    """The mean of the middle 60% of the windows' values: a window that
    a pause or a sudden change of host speed hit is dropped, and the
    rest are averaged."""
    values = sorted(w[key] for w in windows if key in w)
    cut = len(values) // 5
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


def _end_to_end(setups: list, rss: list, windows: list) -> tuple:
    """The end-to-end metrics of a run from its ``(setup_s, speed)``
    per start, peak RSS per process and windows: each timing corrected
    to the reference speed, then the trimmed mean over the windows
    (median over the starts for ``setup_s``).  The detail holds
    ``p99_ms``, the same values uncorrected, and every window's raw
    values."""
    keys = ("items_per_s", "p50_ms", "p90_ms")
    fixed = [_corrected(w) for w in windows]
    metrics = {"setup_s": median(s * speed for s, speed in setups),
               **{key: _trimmed_mean(fixed, key) for key in keys},
               "peak_rss_kb": median(rss)}
    detail = {"p99_ms": _trimmed_mean(fixed, "p99_ms"),
              "host_speed": median(w["speed"] for w in windows),
              "raw_setup_s": median(s for s, _speed in setups),
              **{f"raw_{key}": _trimmed_mean(windows, key)
                 for key in keys + ("p99_ms",)},
              "setup_s_each": setups,
              "windows": {key: [w[key] for w in windows if key in w]
                          for key in keys + ("speed",)}}
    return metrics, detail


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------

_CHECKS = ("errors", "mismatches", "missing", "unknown")


def serve_run(name: str, seed: int, seconds: float, starts: int,
              layout: Layout) -> dict:
    """``starts`` daemons one after another, each timed from spawn and
    then driven for its share of ``seconds``: a warm-up, then rounds of
    one open-loop window at the workload's rate and one closed-loop
    capacity window, so both kinds of window are spread over the run."""
    import loadgen
    from worker import vm_hwm_kb

    spec = loadgen.SERVE_WORKLOADS[name]
    requests = loadgen.Requests(name, seed)
    share = seconds / starts
    warm = min(WARM_S, share / 4)
    # Short (smoke) runs get fewer rounds, so that no closed-loop
    # window is shorter than twice its ramp.
    closed_s = (share - warm) * (1 - OPEN_SHARE)
    rounds = max(1, min(ROUNDS, int(closed_s / (3 * loadgen.RAMP_S))))
    round_s = (share - warm) / rounds
    phases = [("warm", "open", warm, 0)]
    for _ in range(rounds):
        phases += [("open", "open", round_s * OPEN_SHARE, 1),
                   ("closed", "closed",
                    round_s * (1 - OPEN_SHARE) - loadgen.RAMP_S, 1)]
    setups, rss, opened, closed = [], [], [], []
    late, offered, achieved = [], [], []
    totals = dict.fromkeys(("attempted", "failed") + _CHECKS, 0)
    for _ in range(starts):
        daemon = Daemon(spec["warm_orders"], layout.test)
        # The reference is timed on the daemon's CPU between phases,
        # while the daemon has nothing in flight.
        refs = []

        def gauge(label: str) -> None:
            if label != "warm":
                refs.append(reference_on(layout.test))

        try:
            load = loadgen.run(name, seed, daemon.host, daemon.port,
                               phases, on_phase=gauge, requests=requests)
            refs.append(reference_on(layout.test))
            rss.append(vm_hwm_kb(daemon.proc.pid))
        finally:
            _stop(daemon.proc)
        setups.append((daemon.setup_s, daemon.speed))
        # Phases alternate open, closed: window k lies between refs k
        # and k + 1.
        between = speeds(refs)
        for k, phase in enumerate(load["phases"]["open"]):
            for window in phase["windows"]:
                window["speed"] = between[2 * k]
            opened += phase["windows"]
            late.append(phase["gen_late_p99_ms"])
            offered.append(phase["offered_rps"])
            achieved.append(phase["achieved_rps"])
        for k, phase in enumerate(load["phases"]["closed"]):
            for window in phase["windows"]:
                window["speed"] = between[2 * k + 1]
            closed += phase["windows"]
        for key in totals:
            totals[key] += load[key]
    metrics, detail = _end_to_end(setups, rss, closed + opened)
    capacity = detail["raw_items_per_s"]
    invalid = []
    if median(late) > MAX_GEN_LATE_MS:
        invalid.append(f"gen_late_p99_ms {median(late):.2f} > "
                       f"{MAX_GEN_LATE_MS}")
    if spec["rate"] > MAX_LOAD * capacity:
        invalid.append(f"rate {spec['rate']:.0f}/s > {MAX_LOAD} x "
                       f"capacity {capacity:.0f}/s")
    detail.update({
        "latency_samples_per_window": median(w["n"] for w in opened),
        "rate_rps": spec["rate"],
        "offered_rps": median(offered),
        "achieved_rps": median(achieved),
        "gen_late_p99_ms": median(late),
        "gen_late_p99_ms_max": max(late),
        "valid": not invalid,
        "invalid_reasons": invalid,
        **{key: totals[key] for key in _CHECKS},
    })
    return {"attempted": totals["attempted"], "failed": totals["failed"],
            "metrics": metrics, "detail": detail}


def serve_traced(name: str, seed: int, seconds: float, spans: str,
                 layout: Layout) -> dict:
    """Daemon in this process with its layers wrapped, load from a
    child process; tracing is off for the first capacity window."""
    import layers
    import loadgen
    from repro.serve import ServeConfig, start_in_thread

    spec = loadgen.SERVE_WORKLOADS[name]
    config = ServeConfig(port=0, max_batch=256, max_wait_us=2000.0,
                         warm_orders=spec["warm_orders"])
    phases = [("warm", "open", min(WARM_S, seconds / 2), 0),
              ("untraced", "closed", seconds / 4, 1),
              ("open", "open", seconds / 2, WINDOWS),
              ("closed", "closed", seconds / 4, 1)]
    tracer = layers.Tracer()
    snaps = {}
    load = None
    os.sched_setaffinity(0, layout.test)
    try:
        with start_in_thread(config) as handle:
            host, port = handle.address
            child = _spawn(
                [sys.executable, str(BENCH / "loadgen.py"),
                 json.dumps({"workload": name, "seed": seed,
                             "host": host, "port": port,
                             "phases": phases})],
                layout.load, stdin=subprocess.PIPE)
            try:
                for line in child.stdout:
                    if not line.startswith("phase "):
                        load = json.loads(line)
                        continue
                    label = line.split()[1]
                    if label in ("open", "closed"):
                        snaps[label] = layers.snapshot()
                        if label == "open":
                            tracer.install(layers.SERVE_TARGETS)
                        tracer.start(label)
                    child.stdin.write("go\n")
                    child.stdin.flush()
                child.wait(30)
            finally:
                _stop(child)
    finally:
        tracer.uninstall()
        os.sched_setaffinity(0, layout.load)
    if load is None:
        raise RuntimeError(f"load child exited with {child.returncode}")
    tracer.write(spans)
    ops = sorted({op for op, *_rest in spec["mix"]})
    (opened,) = load["phases"]["open"]
    found = layers.serve_layers(tracer, ops, opened, snaps["open"],
                                snaps["closed"])
    (untraced,) = load["phases"]["untraced"]
    (traced,) = load["phases"]["closed"]
    found["tracing_overhead"] = (untraced["windows"][0]["items_per_s"]
                                 / traced["windows"][0]["items_per_s"])
    found["gen_late_p99_ms"] = opened["gen_late_p99_ms"]
    return {"attempted": load["attempted"], "failed": load["failed"],
            "metrics": found,
            "detail": {key: load[key] for key in _CHECKS}}


# ----------------------------------------------------------------------
# Library workloads
# ----------------------------------------------------------------------

def library_run(name: str, seed: int, seconds: float, trace: int,
                spans: str, starts: int, layout: Layout) -> dict:
    """``starts`` workers one after another, each timed from spawn and
    then measured for its share of ``seconds``."""
    spec = {"workload": name, "seed": seed, "seconds": seconds / starts,
            "trace": trace, "spans": spans, "windows": WINDOWS}
    setups, rss, windows = [], [], []
    for _ in range(starts):
        worker = Worker(spec, layout.test)
        setups.append((worker.setup_s, worker.speed))
        result = worker.result(seconds * 2 + SPAWN_TIMEOUT_S)
        windows += result["windows"]
        rss.append(result.get("peak_rss_kb"))
    attempted = sum(w["calls"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    if trace:
        return {"attempted": attempted, "failed": failed,
                "metrics": result["layers"], "detail": {}}
    metrics, detail = _end_to_end(setups, rss, windows)
    detail["calls_per_window"] = median(w["calls"] for w in windows)
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": detail}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spans: str, starts: int, layout: Layout) -> dict:
    if name.startswith("serve-"):
        if trace:
            return serve_traced(name, seed, seconds, spans, layout)
        return serve_run(name, seed, seconds, starts, layout)
    return library_run(name, seed, seconds, trace, spans,
                       1 if trace else starts, layout)


def _reported(record: dict, trace: int) -> dict:
    """The metrics of the result line: the end-to-end set, or in a
    traced run the per-layer set every workload has."""
    import layers

    names = layers.COMMON if trace else END_TO_END
    return {name: {"value": record["metrics"][name],
                   "unit": unit_of(name)} for name in names}


def _print_record(name: str, record: dict) -> None:
    print(f"== {name}: attempted {record['attempted']}, "
          f"failed {record['failed']}")
    for key, value in sorted(record["metrics"].items()):
        print(f"  {key:<32} {value:>14.6g} {unit_of(key)}")
    for key, value in sorted(record["detail"].items()):
        if isinstance(value, dict):
            continue  # per-window values: in the --out record only
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"  [info] {key:<25} {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default 24, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about 1 s per workload and one cold start")
    parser.add_argument("--spans", default=str(ROOT / ".bench_out"),
                        help="directory for the traced run's "
                             "spans-<workload>-<seed>.jsonl files")
    parser.add_argument("--out", default=None,
                        help="append each workload's record to this "
                             "JSONL file")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: no sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    seconds = args.seconds or (1.0 if args.smoke else 24.0)
    starts = 1 if args.smoke else COLD_STARTS
    names = [args.workload] if args.workload else list(WORKLOADS)
    sys.path.insert(0, str(SRC))
    os.environ.update(BENES_AUTOTUNE_CACHE="off")
    layout = Layout.split()
    os.sched_setaffinity(0, layout.load)

    reported, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        spans = os.path.join(args.spans,
                             f"spans-{name}-{args.seed}.jsonl")
        record = run_workload(name, args.seed, seconds, args.trace,
                              spans, starts, layout)
        _print_record(name, record)
        ok = record["failed"] == 0
        correct = correct and ok
        attempted += record["attempted"]
        failed += record["failed"]
        metrics = _reported(record, args.trace)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({
                    "workload": name, "seed": args.seed,
                    "seconds": seconds, "trace": args.trace,
                    "correct": ok, "attempted": record["attempted"],
                    "failed": record["failed"], "metrics": metrics,
                    "all": record["metrics"],
                    "detail": record["detail"]}) + "\n")
        if len(names) == 1:
            reported = metrics
        else:
            reported.update({f"{name}.{key}": value
                             for key, value in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
