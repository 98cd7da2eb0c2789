"""Smoke test of the benchmark: all four workloads for about 1 s each,
untraced and traced.  Run it explicitly (the tier-1 suite collects only
``tests/``)::

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402

#: Every layer the traced run wraps, per workload kind.
SERVE_SPANS = {"protocol.decode", "protocol.build", "protocol.encode",
               "coalescer.offer", "coalescer.deadline",
               "coalescer.flush.deadline", "coalescer.drain",
               "accel.route", "engine.resolve", "plans.lookup"}
SPANS = {
    "serve-route": SERVE_SPANS,
    "serve-mixed": SERVE_SPANS | {"accel.membership", "accel.packet",
                                  "accel.setup"},
    "kernel-route": {"accel.route", "engine.resolve", "plans.lookup"},
    "composed-o16": {"accel.setup", "composed.peel", "engine.resolve"},
}


def _run(tmp_path, *extra):
    out = tmp_path / "records.jsonl"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "3", "--smoke",
         "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["workload"] for r in records] == list(WORKLOADS)
    for record in records:
        assert record["failed"] == 0 and record["attempted"] >= 1
    return records


def _finite(records, names):
    for record in records:
        assert set(record["metrics"]) == set(names)
        for name, metric in record["metrics"].items():
            assert math.isfinite(metric["value"]), (record["workload"],
                                                    name)
            assert metric["unit"]


def test_untraced_smoke(tmp_path):
    records = _run(tmp_path)
    _finite(records, END_TO_END)
    for record in records:
        assert record["metrics"]["items_per_s"]["value"] > 0


def test_traced_smoke_writes_every_layer(tmp_path):
    spans_dir = tmp_path / "spans"
    records = _run(tmp_path, "--trace", "1", "--spans", str(spans_dir))
    _finite(records, layers.COMMON)
    for workload, expected in SPANS.items():
        path = spans_dir / f"spans-{workload}-3.jsonl"
        names = {json.loads(line)["name"]
                 for line in path.read_text().splitlines()}
        assert expected <= names, (workload, expected - names)
