"""The composed-block engine (``repro.accel.composed``).

The engine decomposes B(n) into 2^levels independent B(r)
sub-networks across the middle stages, routes each block with the
best inner engine, and streams switch-state chunks instead of
materializing the full (B, 2n-1, N/2) tensor.  These tests pin:

- **byte parity**: composed setup/self-route/states agree bit for bit
  with the serial Waksman oracle and the batch engines, across
  sub-orders, chunk sizes, and both the NumPy and scalar paths;
- **streaming**: ``iter_composed_states`` chunks reassemble to the
  oracle's full state matrix, and chunk payloads stay bounded;
- **integration**: the ``engine="composed"`` seam, the registry spec,
  the auto-threshold (``BENES_COMPOSED_ORDER``), cache/obs surfaces,
  the ``benes route --order`` CLI mode, and the scaling benchmark
  cells.
"""

import json
import random

import pytest

from repro import engines as registry
from repro.accel import (
    batch_in_class_f,
    batch_self_route,
    batch_setup_states,
    cache_stats,
    composed_in_class_f,
    composed_order_threshold,
    composed_plan,
    composed_route_with_states,
    composed_self_route,
    composed_setup_states,
    composed_stats,
    composed_stats_clear,
    have_numpy,
    iter_composed_states,
    resolve_engine,
)
from repro.accel import _np as _np_mod
from repro.core import random_class_f, random_permutation, setup_states
from repro.errors import InvalidParameterError


def _rows(order, count, rng, in_f=False):
    if in_f:
        return [random_class_f(order, rng).as_tuple()
                for _ in range(count)]
    return [random_permutation(1 << order, rng).as_tuple()
            for _ in range(count)]


def _as_nested(states_row):
    """NumPy-path engines return arrays; compare as nested int lists
    (the byte-parity convention of the setup suite)."""
    return [[int(v) for v in column] for column in states_row]


class TestComposedPlan:
    def test_plan_shape(self):
        plan = composed_plan(7, sub_order=3)
        assert plan.levels == 4
        assert plan.n_blocks == 16
        assert plan.block_size == 8
        assert plan.n_stages == 13
        assert plan.mid_stages == 5

    def test_sub_order_clamped(self):
        assert composed_plan(4, sub_order=99).sub_order == 3
        assert composed_plan(4, sub_order=0).sub_order == 1

    def test_order_below_two_rejected(self):
        with pytest.raises(InvalidParameterError):
            composed_plan(1)

    def test_plan_cached(self):
        before = cache_stats()["composed"]
        composed_plan(6, sub_order=3)
        composed_plan(6, sub_order=3)
        after = cache_stats()["composed"]
        assert after["hits"] > before["hits"]

    def test_cache_stats_exposes_composed(self):
        assert "composed" in cache_stats()


class TestSetupParity:
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_matches_serial_waksman(self, order, rng):
        rows = _rows(order, 4, rng)
        got = composed_setup_states(order, rows)
        for row, states in zip(rows, got):
            assert _as_nested(states) == setup_states(row)

    @pytest.mark.parametrize("sub_order", [1, 2, 3, 4, 5])
    def test_every_sub_order_byte_identical(self, sub_order, rng):
        rows = _rows(6, 3, rng)
        got = composed_setup_states(6, rows, sub_order=sub_order)
        for row, states in zip(rows, got):
            assert _as_nested(states) == setup_states(row)

    @pytest.mark.parametrize("chunk_blocks", [1, 2, 7, 64])
    def test_chunking_invisible_in_output(self, chunk_blocks, rng):
        rows = _rows(6, 3, rng)
        baseline = [_as_nested(s) for s in composed_setup_states(6, rows)]
        chunked = composed_setup_states(6, rows,
                                        chunk_blocks=chunk_blocks)
        assert [_as_nested(s) for s in chunked] == baseline

    def test_scalar_fallback_parity(self, rng, monkeypatch):
        rows = _rows(5, 3, rng)
        baseline = [setup_states(row) for row in rows]
        monkeypatch.setattr(_np_mod, "FORCE_FALLBACK", True)
        got = composed_setup_states(5, rows)
        assert [_as_nested(s) for s in got] == baseline


class TestSelfRouteParity:
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_matches_scalar_engine(self, order, rng):
        rows = _rows(order, 4, rng, in_f=True) + _rows(order, 4, rng)
        got = composed_self_route(rows, stage_states=True)
        want = batch_self_route(rows, engine="scalar",
                                stage_states=True)
        assert list(got.success_mask) == list(want.success_mask)
        for g, w, ok in zip(got.mappings, want.mappings,
                            got.success_mask):
            if ok:
                assert tuple(g) == tuple(w)

    def test_omega_mode_parity(self, rng):
        rows = _rows(5, 6, rng)
        got = composed_self_route(rows, omega_mode=True)
        want = batch_self_route(rows, engine="scalar", omega_mode=True)
        assert list(got.success_mask) == list(want.success_mask)

    def test_stuck_switch_parity(self, rng):
        rows = _rows(4, 6, rng, in_f=True)
        stuck = {(0, 1): True, (4, 3): False}
        got = composed_self_route(rows, stuck_switches=stuck)
        want = batch_self_route(rows, engine="scalar",
                                stuck_switches=stuck)
        assert list(got.success_mask) == list(want.success_mask)

    def test_membership_parity(self, rng):
        rows = _rows(5, 4, rng, in_f=True) + _rows(5, 4, rng)
        assert list(composed_in_class_f(rows)) == \
            list(batch_in_class_f(rows, engine="scalar"))

    def test_route_with_states_parity(self, rng):
        from repro.accel import batch_route_with_states
        rows = _rows(5, 3, rng)
        states = [setup_states(row) for row in rows]
        got = composed_route_with_states(states, 5)
        want = batch_route_with_states(states, 5, engine="scalar")
        assert [tuple(int(v) for v in m) for m in got.mappings] == \
            [tuple(int(v) for v in m) for m in want.mappings]
        # Waksman states realize exactly the source permutation
        assert [tuple(int(v) for v in m) for m in got.mappings] == \
            [tuple(row) for row in rows]


class TestStreaming:
    def test_chunks_reassemble_to_oracle(self, rng):
        order = 6
        row = random_permutation(1 << order, rng).as_tuple()
        oracle = setup_states(row)
        plan = composed_plan(order)
        n_stages = 2 * order - 1
        half = (1 << order) // 2
        rebuilt = [[None] * half for _ in range(n_stages)]
        for chunk in iter_composed_states(order, row, chunk_blocks=2):
            if chunk.kind == "column":
                rebuilt[chunk.stage] = list(chunk.states)
            else:
                width = plan.block_half
                for b, block_states in enumerate(chunk.states,
                                                 chunk.block_start):
                    for s, column in enumerate(block_states):
                        lo = b * width
                        rebuilt[plan.levels + s][lo:lo + width] = \
                            list(column)
        assert [[int(v) for v in col] for col in rebuilt] == \
            [[int(v) for v in col] for col in oracle]

    def test_block_chunks_carry_sub_perms(self, rng):
        order = 5
        row = random_permutation(1 << order, rng).as_tuple()
        plan = composed_plan(order)
        seen = 0
        for chunk in iter_composed_states(order, row):
            if chunk.kind == "blocks":
                assert chunk.perms is not None
                for sub in chunk.perms:
                    assert sorted(sub) == list(range(plan.block_size))
                seen += len(chunk.states)
        assert seen == plan.n_blocks

    def test_stats_count_blocks_and_chunks(self, rng):
        composed_stats_clear()
        rows = _rows(6, 2, rng)
        composed_setup_states(6, rows, chunk_blocks=2)
        stats = composed_stats()
        assert stats["blocks"] > 0
        assert stats["chunks"] > 0
        assert stats["peak_chunk_bytes"] > 0

    @pytest.mark.skipif(not have_numpy(),
                        reason="compares the NumPy leg with the fallback")
    def test_setup_chunk_accounting_same_on_both_platforms(
            self, rng, monkeypatch):
        rows = _rows(6, 3, rng)
        composed_stats_clear()
        composed_setup_states(6, rows)
        with_numpy = composed_stats()
        composed_stats_clear()
        monkeypatch.setattr(_np_mod, "FORCE_FALLBACK", True)
        composed_setup_states(6, rows)
        assert composed_stats() == with_numpy == {
            "blocks": 6, "chunks": 1, "peak_chunk_bytes": 864}


class TestEngineIntegration:
    def test_batch_seam_accepts_composed(self, rng):
        rows = _rows(4, 4, rng, in_f=True)
        got = batch_self_route(rows, engine="composed")
        want = batch_self_route(rows, engine="scalar")
        assert list(got.success_mask) == list(want.success_mask)

    def test_setup_seam_accepts_composed(self, rng):
        rows = _rows(4, 2, rng)
        got = batch_setup_states(4, rows, engine="composed")
        assert [_as_nested(s) for s in got] == \
            [setup_states(row) for row in rows]

    def test_registry_spec_is_exec_seam(self):
        spec = registry.require_exec("composed")
        assert spec.name == "composed"
        assert "composed" in registry.SELF_ROUTE_ENGINES

    def test_registry_run_matches_scalar(self, rng):
        rows = _rows(3, 5, rng)
        run = registry.run_engine("composed", rows, 3)
        oracle = registry.run_engine("scalar", rows, 3)
        assert run.success == oracle.success
        assert run.mappings == oracle.mappings
        assert run.states == oracle.states

    def test_auto_picks_composed_at_threshold(self):
        threshold = composed_order_threshold()
        assert resolve_engine("auto", order=threshold,
                              batch_size=1) == "composed"
        below = resolve_engine("auto", order=threshold - 1,
                               batch_size=64)
        assert below != "composed"

    def test_threshold_env_override(self, monkeypatch):
        monkeypatch.setenv("BENES_COMPOSED_ORDER", "6")
        assert composed_order_threshold() == 6
        assert resolve_engine("auto", order=6,
                              batch_size=1) == "composed"

    def test_threshold_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("BENES_COMPOSED_ORDER", "soon")
        with pytest.raises(InvalidParameterError,
                           match="BENES_COMPOSED_ORDER='soon'"):
            composed_order_threshold()

    def test_obs_provider_registered(self):
        from repro import obs
        snapshot = obs.registry().snapshot()
        providers = snapshot.get("providers", {})
        assert "accel.composed_stats" in providers
        assert set(providers["accel.composed_stats"]) >= {
            "blocks", "chunks", "peak_chunk_bytes"}


class TestCliOrderMode:
    def test_route_order_streams_and_checks(self, capsys):
        from repro.cli import main
        assert main(["route", "--order", "8",
                     "--engine", "composed"]) == 0
        out = capsys.readouterr().out
        assert "composed" in out
        assert "oracle parity" in out
        assert "-> OK" in out

    def test_route_order_rejects_omega(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["route", "--order", "8", "--omega"])

    def test_route_rejects_both_forms(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["route", "3,2,1,0", "--order", "8"])

    def test_bench_scaling_suite(self, capsys):
        from repro.cli import main
        assert main(["bench", "--suite", "scaling",
                     "--orders", "6,8", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "scaling sweep" in out
        assert "composed" in out


class TestScalingBenchmark:
    def test_cells_carry_engine_and_rss(self):
        from repro.accel.benchmark import measure_scaling_cell
        cell = measure_scaling_cell(6, "composed", repeats=1)
        assert cell["engine"] == "composed"
        assert cell["peak_rss_kb"] > 0
        assert cell["peak_chunk_bytes"] > 0
        assert cell["seconds"] >= 0.0

    def test_unknown_mode_rejected(self):
        from repro.accel.benchmark import measure_scaling_cell
        with pytest.raises(InvalidParameterError):
            measure_scaling_cell(6, "quantum")

    def test_report_annotates_speedups(self):
        from repro.accel.benchmark import (
            format_scaling_table,
            run_scaling_benchmark,
            scaling_speedup,
        )
        report = run_scaling_benchmark(orders=(6,), repeats=1)
        assert report["rss_isolated"] is False
        composed = [cell for cell in report["cells"]
                    if cell["mode"] == "composed"]
        assert composed and "speedup_vs_serial" in composed[0]
        assert scaling_speedup(report) is not None
        assert "composed" in format_scaling_table(report)

    def test_producer_report_schema(self, tmp_path):
        # the committed BENCH_scaling.json must satisfy the guard's
        # schema expectations: every cell carries an engine column
        import pathlib
        path = pathlib.Path(__file__).resolve().parent.parent / \
            "BENCH_scaling.json"
        if not path.exists():
            pytest.skip("no committed BENCH_scaling.json")
        report = json.loads(path.read_text())
        assert report["rss_isolated"] is True
        assert all("engine" in cell for cell in report["cells"])


class TestVerifyAdapter:
    def test_check_composed_clean_on_random_rows(self, rng):
        from repro.verify.fuzzer import check_composed
        rows = _rows(5, 4, rng)
        assert check_composed(rows, 5) == []

    def test_verify_families_include_composed(self):
        from repro.verify import VerifyConfig
        assert "composed" in VerifyConfig().families


class TestScalingGuard:
    def _guard(self):
        import importlib.util
        import pathlib
        path = pathlib.Path(__file__).resolve().parent.parent / \
            "tools" / "check_bench_regression.py"
        spec = importlib.util.spec_from_file_location("benchguard",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_missing_engine_column_fails_clearly(self, tmp_path,
                                                 capsys):
        guard = self._guard()
        path = tmp_path / "BENCH_scaling.json"
        path.write_text(json.dumps({
            "rss_isolated": True,
            "cells": [{"order": 14, "mode": "composed",
                       "seconds": 1.0}],
        }))
        assert guard._check_scaling_baseline(path) is False
        out = capsys.readouterr().out
        assert "no 'engine' column" in out
        assert "KeyError" not in out

    def test_absent_report_skips(self, tmp_path, capsys):
        guard = self._guard()
        assert guard._check_scaling_baseline(
            tmp_path / "nope.json") is True
        assert "skip" in capsys.readouterr().out

    def test_rss_growth_guarded(self, tmp_path):
        guard = self._guard()
        path = tmp_path / "BENCH_scaling.json"
        cells = [
            {"order": 14, "mode": "composed", "engine": "composed",
             "seconds": 0.01, "speedup_vs_serial": 9.0,
             "peak_rss_kb": 1000},
            {"order": 18, "mode": "composed", "engine": "composed",
             "seconds": 0.1, "peak_rss_kb": 1900},
        ]
        path.write_text(json.dumps({"rss_isolated": True,
                                    "cells": cells}))
        assert guard._check_scaling_baseline(path) is True
        cells[1]["peak_rss_kb"] = 40000  # 40x blowup
        path.write_text(json.dumps({"rss_isolated": True,
                                    "cells": cells}))
        assert guard._check_scaling_baseline(path) is False
