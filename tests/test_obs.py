"""Tests for the observability layer (``repro.obs``) and the unified
:class:`~repro.core.routing.BatchRouteResult` API.

Covers the registry primitives, the enabled/disabled facade contract
(identical routing results either way), the JSON-lines trace schema,
the CLI surfaces (``benes metrics``, ``--profile``), the accel cache
introspection, and the removal of the tuple-unpacking shim.
"""

import contextvars
import io
import json
import os
import subprocess
import sys

import pytest

import repro.obs as obs
from repro.accel import (
    batch_route_with_states,
    batch_self_route,
    cache_clear,
    cache_stats,
    have_numpy,
)
from repro.cli import main
from repro.core import BenesNetwork, Permutation
from repro.core.fastpath import fast_self_route
from repro.core.routing import BatchRouteResult
from repro.errors import InvalidParameterError
from repro.obs import spans
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TRACE_SCHEMA_VERSION


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with collection off and zeroed."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc(4)
        assert reg.snapshot()["counters"]["x"] == 5

    def test_gauge_keeps_last(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3.0)
        reg.gauge("g").set(1.5)
        assert reg.snapshot()["gauges"]["g"] == 1.5

    def test_histogram_snapshot_shape(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        snap = reg.snapshot()["histograms"]["h"]
        assert snap["count"] == 3
        assert snap["min"] == 0.5 and snap["max"] == 50.0
        assert snap["sum"] == pytest.approx(55.5)
        # per-bucket (non-cumulative) counts
        assert snap["buckets"]["le_1"] == 1
        assert snap["buckets"]["le_10"] == 1
        assert snap["buckets"]["overflow"] == 1

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("name")
        with pytest.raises(InvalidParameterError):
            reg.gauge("name")

    def test_provider_merged_into_snapshot(self):
        reg = MetricsRegistry()
        reg.register_provider("ext", lambda: {"k": 7})
        assert reg.snapshot()["providers"]["ext"] == {"k": 7}

    def test_reset_zeroes_but_keeps_providers(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.register_provider("ext", lambda: {"k": 7})
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 0
        assert snap["providers"]["ext"] == {"k": 7}


class TestFacade:
    def test_disabled_helpers_are_noops(self):
        obs.inc("nope")
        obs.set_gauge("nope2", 1.0)
        obs.observe("nope3", 1.0)
        snap = obs.snapshot()
        assert not snap["enabled"]
        assert "nope" not in snap["counters"]
        assert "nope2" not in snap["gauges"]
        assert "nope3" not in snap["histograms"]

    def test_enable_disable_roundtrip(self):
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()
        obs.inc("c")
        obs.disable()
        obs.inc("c")                       # ignored again
        assert obs.snapshot()["counters"]["c"] == 1

    def test_env_opt_in(self):
        env = dict(os.environ, BENES_METRICS="1",
                   PYTHONPATH="src")
        out = subprocess.run(
            [sys.executable, "-c",
             "import repro.obs as o; print(o.enabled())"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "True"


class TestOnOffParity:
    """Collection must never change routing results."""

    PERMS = [(3, 2, 1, 0), (1, 3, 2, 0), (0, 1, 2, 3)]

    def test_structural_route_parity(self):
        net = BenesNetwork(2)
        for tags in self.PERMS:
            off = net.route(tags)
            obs.enable()
            on = net.route(tags)
            obs.disable()
            assert on.success == off.success
            assert on.realized == off.realized
            assert on.misrouted == off.misrouted

    def test_fastpath_parity(self):
        for tags in self.PERMS:
            off = fast_self_route(tags)
            obs.enable()
            on = fast_self_route(tags)
            obs.disable()
            assert on == off

    def test_batch_parity(self):
        off = batch_self_route(self.PERMS)
        obs.enable()
        on = batch_self_route(self.PERMS)
        obs.disable()
        assert list(on.success_mask) == list(off.success_mask)
        assert [tuple(int(v) for v in row) for row in on.mappings] == \
               [tuple(int(v) for v in row) for row in off.mappings]

    def test_route_counters_accumulate(self):
        obs.enable()
        net = BenesNetwork(2)
        net.route((3, 2, 1, 0))
        net.route((1, 3, 2, 0))
        counters = obs.snapshot()["counters"]
        assert counters["benes.route.calls"] == 2
        assert counters["benes.route.self.success"] == 1
        assert counters["benes.route.self.failure"] == 1


class TestTrace:
    def test_schema_and_sequence(self):
        sink = io.StringIO()
        obs.trace_to(sink)
        BenesNetwork(2).route((3, 2, 1, 0))
        obs.trace_off()
        events = [json.loads(line) for line in
                  sink.getvalue().splitlines()]
        assert [e["ev"] for e in events] == \
               ["route_start", "stage", "stage", "stage", "deliver",
                "span"]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        for e in events:
            assert e["v"] == TRACE_SCHEMA_VERSION
            assert isinstance(e["ts"], float)
        start, deliver, span = events[0], events[-2], events[-1]
        assert start["tags"] == [3, 2, 1, 0] and start["order"] == 2
        assert deliver["success"] is True
        for stage_event in events[1:4]:
            assert set(stage_event) >= {"stage", "control_bit",
                                        "states", "cross"}
            # v2: mid-span events are stamped with their span's ids
            assert stage_event["span_id"] == span["span_id"]
        assert span["name"] == "route" and span["parent_id"] is None

    def test_no_sink_no_events(self):
        assert not obs.trace_active()
        obs.trace_event("ignored")         # must not raise

    def test_span_finished_in_another_context_is_emitted(self):
        sink = io.StringIO()
        obs.trace_to(sink)
        opened = contextvars.copy_context().run(spans.start_span,
                                                "elsewhere")
        opened.finish(status="ok")
        obs.trace_off()
        events = [json.loads(line) for line in
                  sink.getvalue().splitlines()]
        assert [(e["name"], e["status"]) for e in events] == \
            [("elsewhere", "ok")]
        assert spans.current_context() is None

    def test_trace_independent_of_metrics(self):
        sink = io.StringIO()
        obs.trace_to(sink)
        assert not obs.enabled()           # tracing without metrics
        BenesNetwork(2).route((0, 1, 2, 3))
        obs.trace_off()
        # route_start + 3 stages + deliver + the route span
        assert sink.getvalue().count("\n") == 6


class TestCLI:
    def test_metrics_command_emits_json(self, capsys):
        assert main(["metrics", "--count", "4"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["enabled"] is True
        assert snap["counters"]["benes.route.calls"] >= 5
        assert snap["counters"]["cli.command.metrics"] == 1
        assert snap["counters"]["planner.plan.calls"] == 4
        assert "accel.cache" in snap["providers"]

    def test_route_profile_traces_to_stderr(self, capsys):
        assert main(["route", "3,2,1,0", "--profile"]) == 0
        err = capsys.readouterr().err
        events = [json.loads(line) for line in err.splitlines()]
        assert events[0]["ev"] == "route_start"
        assert events[-1]["ev"] == "span"
        assert events[-2]["ev"] == "deliver"
        assert all(e["v"] == TRACE_SCHEMA_VERSION for e in events)

    def test_route_profile_keeps_exit_code(self, capsys):
        assert main(["route", "1,3,2,0", "--profile"]) == 1
        err = capsys.readouterr().err
        events = [json.loads(line) for line in err.splitlines()]
        deliver = next(e for e in events if e["ev"] == "deliver")
        assert not deliver["success"]

    def test_bench_profile_embeds_metrics(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        assert main(["bench", "--orders", "2", "--batches", "4",
                     "--repeats", "1", "--profile",
                     "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        metrics = report["metrics"]
        assert metrics["counters"]["accel.batch.calls"] >= 1
        assert metrics["counters"]["fastpath.self_route.calls"] >= 4
        stats = metrics["providers"]["accel.cache"]
        assert stats["topology"]["hits"] + \
            stats["topology"]["misses"] > 0

    def test_bench_without_profile_has_no_metrics(self, capsys,
                                                  tmp_path):
        path = tmp_path / "bench.json"
        assert main(["bench", "--orders", "2", "--batches", "4",
                     "--repeats", "1", "--json", str(path)]) == 0
        assert "metrics" not in json.loads(path.read_text())


class TestCacheIntrospection:
    def test_stats_shape(self):
        stats = cache_stats()
        for cache in ("plan", "topology"):
            assert set(stats[cache]) == \
                {"hits", "misses", "size", "maxsize", "building"}

    def test_clear_then_miss_then_hit(self):
        cache_clear()
        assert cache_stats()["topology"]["size"] == 0
        fast_self_route((0, 1, 2, 3))      # populates the cache
        after_miss = cache_stats()["topology"]
        assert after_miss["size"] >= 1
        fast_self_route((0, 1, 2, 3))
        assert cache_stats()["topology"]["hits"] > after_miss["hits"]

    def test_registered_as_provider(self):
        snap = obs.snapshot()
        assert snap["providers"]["accel.cache"] == cache_stats()


class TestBatchRouteResult:
    def test_fields_and_properties(self):
        result = batch_self_route([(3, 2, 1, 0), (1, 3, 2, 0)])
        assert isinstance(result, BatchRouteResult)
        assert result.batch_size == 2
        assert result.n_success == 1
        assert not result.all_success
        assert result.per_stage is None

    def test_stage_data_opt_in(self):
        result = batch_self_route([(3, 2, 1, 0)], stage_data=True)
        if not have_numpy():
            # documented contract: the fallback path has no stage data
            assert result.per_stage is None
        else:
            assert len(result.per_stage) == 3   # stages of B(2)

    def test_tuple_unpacking_removed(self):
        # the PR-2 deprecation cycle is complete: results are not
        # iterable any more, so stale tuple unpacking fails loudly
        result = batch_self_route([(3, 2, 1, 0)])
        with pytest.raises(TypeError):
            success, delivered = result
        with pytest.raises(TypeError):
            iter(result)

    def test_states_batch_all_success(self):
        net = BenesNetwork(2)
        result = batch_route_with_states(
            [net.straight_states()] * 3, 2
        )
        assert result.all_success and result.batch_size == 3
        for row in result.mappings:
            assert tuple(int(v) for v in row) == (0, 1, 2, 3)

    def test_frozen(self):
        result = batch_self_route([(0, 1, 2, 3)])
        with pytest.raises(Exception):
            result.success_mask = None


class TestErrorLint:
    def test_source_tree_is_clean(self):
        import pathlib
        repo = pathlib.Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, str(repo / "tools" / "check_errors.py"),
             str(repo / "src" / "repro")],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stdout + out.stderr


class TestKeywordOnly:
    def test_route_options_are_keyword_only(self):
        net = BenesNetwork(2)
        with pytest.raises(TypeError):
            net.route((0, 1, 2, 3), None, True)

    def test_permutation_still_positional(self):
        perm = Permutation((3, 2, 1, 0))
        assert BenesNetwork(2).route(perm, omega_mode=False).success
