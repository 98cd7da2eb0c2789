"""Observability across the shard executor and its exporters: metric
scoping between a sharded call and its shards, span tracing (one
reconstructable tree across shard threads), trace-file write atomicity,
and the OpenMetrics / JSON exporters.

The parity tests are the acceptance gate: a sharded batch run with
metrics enabled must report **exactly** the same counter totals
(calls, items, successes, failures, fallbacks, stage crossings) as the
same batch run inline, with NumPy and on the no-NumPy fallback.
"""

import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.accel import batch_self_route, have_numpy
from repro.accel import _np as accel_np
from repro.accel import executor as _executor
from repro.core import BenesNetwork
from repro.obs import export as obs_export

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
TOOLS = REPO / "tools"


def _load_tool(name):
    """Import a ``tools/*.py`` script as a module (tools/ is not a
    package)."""
    spec = importlib.util.spec_from_file_location(
        f"_tools_{name}", TOOLS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with collection off and instruments
    zeroed."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _perms(order, count, seed=7):
    rng = random.Random(seed)
    size = 1 << order
    return [tuple(rng.sample(range(size), size)) for _ in range(count)]


def _parity_counters(snap):
    """The counters that must agree between inline and sharded runs.

    ``executor.*`` exists only on the sharded path by design, and
    ``obs.*`` counts meta-traffic (span emission), so both are
    excluded from the equality."""
    return {
        name: value
        for name, value in snap["counters"].items()
        if not name.startswith(("executor.", "obs."))
    }


# ----------------------------------------------------------------------
# Sharded-vs-inline counter parity (the tentpole acceptance test)
# ----------------------------------------------------------------------

class TestShardedParity:
    ORDER = 3
    COUNT = 32

    def _inline_snapshot(self, perms):
        obs.enable()
        inline = batch_self_route(perms)
        snap = obs.snapshot()
        obs.disable()
        obs.reset()
        return inline, snap

    def _assert_parity(self, monkeypatch):
        perms = _perms(self.ORDER, self.COUNT)
        inline, inline_snap = self._inline_snapshot(perms)

        monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 8)
        obs.enable()
        sharded = batch_self_route(perms, parallel=2)
        sharded_snap = obs.snapshot()
        obs.disable()

        counters = sharded_snap["counters"]
        assert counters["executor.calls"] == 1
        assert counters["executor.items"] == self.COUNT
        assert sharded_snap["histograms"]["executor.worker.seconds"][
            "count"] == 2

        assert list(sharded.success_mask) == list(inline.success_mask)
        assert _parity_counters(sharded_snap) == \
            _parity_counters(inline_snap)
        return inline_snap

    @pytest.mark.skipif(not have_numpy(), reason="NumPy absent")
    def test_numpy_parity(self, monkeypatch):
        inline_snap = self._assert_parity(monkeypatch)
        assert inline_snap["counters"].get("accel.fallback.calls", 0) == 0

    def test_thread_fallback_parity(self, monkeypatch):
        monkeypatch.setattr(accel_np, "FORCE_FALLBACK", True)
        inline_snap = self._assert_parity(monkeypatch)
        assert inline_snap["counters"]["accel.fallback.calls"] == 1


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------

class TestSpans:
    def test_tracing_preserves_routing_results(self, tmp_path):
        net = BenesNetwork(3)
        perms = _perms(3, 6)
        baseline = [net.route(p) for p in perms]

        trace = tmp_path / "route.jsonl"
        obs.trace_to(str(trace))
        traced = [net.route(p) for p in perms]
        obs.trace_off()

        for off, on in zip(baseline, traced):
            assert on.success == off.success
            assert on.realized == off.realized

        spans = [json.loads(line)
                 for line in trace.read_text().splitlines()
                 if json.loads(line).get("ev") == "span"]
        assert len(spans) == len(perms)
        assert all(s["name"] == "route" for s in spans)
        assert all(s["parent_id"] is None for s in spans)
        # every route is its own trace — distinct trace_ids
        assert len({s["trace_id"] for s in spans}) == len(perms)

    def test_disabled_tracing_emits_nothing(self, tmp_path):
        assert not obs.trace_active()
        BenesNetwork(2).route((3, 2, 1, 0))
        batch_self_route([(3, 2, 1, 0)])
        assert list(tmp_path.iterdir()) == []

    def test_events_are_stamped_with_current_span(self, tmp_path):
        trace = tmp_path / "stamped.jsonl"
        obs.trace_to(str(trace))
        BenesNetwork(2).route((3, 2, 1, 0))
        obs.trace_off()
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        span = next(e for e in events if e["ev"] == "span")
        stages = [e for e in events if e["ev"] == "stage"]
        assert stages and all(
            e["span_id"] == span["span_id"]
            and e["trace_id"] == span["trace_id"] for e in stages
        )


class TestShardedSpanTree:
    """A sharded batch forms ONE span tree: the batch root, the
    executor dispatch under it, the per-shard spans under the
    dispatch, and each shard's batch span under its shard — although
    every shard ran on a thread of its own."""

    @pytest.mark.parametrize("mode", ["numpy", "fallback"])
    def test_single_tree_across_workers(self, tmp_path, monkeypatch,
                                        mode):
        if mode == "numpy" and not have_numpy():
            pytest.skip("NumPy absent")
        monkeypatch.setattr(accel_np, "FORCE_FALLBACK", mode == "fallback")
        monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 8)
        trace = tmp_path / f"{mode}.jsonl"
        obs.enable(trace=str(trace))
        batch_self_route(_perms(3, 32), parallel=2)
        obs.disable()

        # the CI smoke contract: trace_tree validates and exits 0
        tree = subprocess.run(
            [sys.executable, str(TOOLS / "trace_tree.py"), str(trace),
             "--min-spans", "6"],
            capture_output=True, text=True, timeout=60,
        )
        assert tree.returncode == 0, tree.stdout + tree.stderr

        spans = [json.loads(line)
                 for line in trace.read_text().splitlines()
                 if json.loads(line).get("ev") == "span"]
        assert len({s["trace_id"] for s in spans}) == 1
        by_id = {s["span_id"]: s for s in spans}

        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "batch.self_route"

        dispatch = [s for s in spans if s["name"] == "executor.dispatch"]
        assert len(dispatch) == 1
        assert dispatch[0]["parent_id"] == roots[0]["span_id"]

        shards = [s for s in spans if s["name"] == "executor.shard"]
        assert len(shards) == 2
        assert all(s["parent_id"] == dispatch[0]["span_id"]
                   for s in shards)
        assert sorted(s["shard"] for s in shards) == [0, 1]

        worker_batches = [
            s for s in spans
            if s["name"] == "batch.self_route" and s["parent_id"]
        ]
        assert len(worker_batches) == 2
        assert all(by_id[s["parent_id"]]["name"] == "executor.shard"
                   for s in worker_batches)


# ----------------------------------------------------------------------
# Trace file write atomicity
# ----------------------------------------------------------------------

_WRITER_SCRIPT = """\
import os
import sys

sys.path.insert(0, {src!r})

if __name__ == "__main__":
    import repro.obs as obs
    path, count = sys.argv[1], int(sys.argv[2])
    obs.trace_to(path)
    pad = "x" * 256
    for i in range(count):
        obs.trace_event("ping", i=i, pid=os.getpid(), pad=pad)
"""


class TestTraceAtomicity:
    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        """N processes appending to one trace file concurrently: every
        line must still parse as JSON (O_APPEND + single write per
        event)."""
        script = tmp_path / "writer.py"
        script.write_text(_WRITER_SCRIPT.format(src=str(SRC)))
        trace = tmp_path / "shared.jsonl"
        writers, per_writer = 4, 250

        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(trace),
                 str(per_writer)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(writers)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err

        lines = trace.read_text().splitlines()
        assert len(lines) == writers * per_writer
        events = [json.loads(line) for line in lines]  # raises on tear
        assert all(e["ev"] == "ping" for e in events)
        assert len({e["pid"] for e in events}) == writers
        # per-writer event streams arrive intact and in order
        for pid in {e["pid"] for e in events}:
            own = [e["i"] for e in events if e["pid"] == pid]
            assert own == sorted(own) and len(own) == per_writer


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def _populated_snapshot():
    obs.enable()
    BenesNetwork(2).route((3, 2, 1, 0))
    BenesNetwork(2).route((1, 3, 2, 0))
    batch_self_route(_perms(2, 4))
    snap = obs.snapshot()
    obs.disable()
    return snap


class TestExporters:
    def test_openmetrics_lints_clean(self):
        snap = _populated_snapshot()
        text = obs_export.render_openmetrics(snap)
        assert text.endswith("# EOF\n")
        lint = _load_tool("check_openmetrics").lint
        assert lint(text) == []

    def test_openmetrics_shapes(self):
        snap = _populated_snapshot()
        text = obs_export.render_openmetrics(snap)
        assert "# TYPE benes_route_calls counter" in text
        assert "benes_route_calls_total 2" in text
        # histogram: cumulative buckets with a closing +Inf
        assert 'accel_batch_seconds_bucket{le="+Inf"}' in text
        assert "accel_batch_seconds_count" in text
        # providers flatten to gauges
        assert "accel_cache_topology_hits" in text

    def test_json_render_roundtrips(self):
        snap = _populated_snapshot()
        parsed = json.loads(obs_export.render_json(snap))
        assert parsed["counters"]["benes.route.calls"] == 2

    def test_scrape_endpoint(self):
        obs.enable()
        BenesNetwork(2).route((3, 2, 1, 0))
        server = obs_export.build_server(0)   # ephemeral port
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics",
                    timeout=10) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == \
                    obs_export.OPENMETRICS_CONTENT_TYPE
                body = response.read().decode("utf-8")
            lint = _load_tool("check_openmetrics").lint
            assert lint(body) == []
            assert "benes_route_calls_total" in body
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/other", timeout=10)
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()


class TestMetricsCLI:
    def test_dump_demo_openmetrics(self, capsys):
        from repro.cli import main
        assert main(["metrics", "dump", "--demo"]) == 0
        out = capsys.readouterr().out
        lint = _load_tool("check_openmetrics").lint
        assert lint(out) == []
        assert "cli_command_metrics_total" in out

    def test_dump_demo_json(self, capsys):
        from repro.cli import main
        assert main(["metrics", "dump", "--demo",
                     "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["cli.command.metrics"] == 1

    def test_dump_reads_bench_report(self, tmp_path, capsys):
        """`--input` accepts both a raw snapshot and a bench report
        with an embedded ``metrics`` key."""
        from repro.cli import main
        snap = _populated_snapshot()
        report = tmp_path / "bench.json"
        report.write_text(json.dumps({"benchmark": "x",
                                      "metrics": snap}))
        assert main(["metrics", "dump", "--input", str(report)]) == 0
        out = capsys.readouterr().out
        assert _load_tool("check_openmetrics").lint(out) == []
        assert "benes_route_calls_total 2" in out
