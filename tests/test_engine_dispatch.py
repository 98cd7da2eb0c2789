"""The ``_np.py`` engine seam: every accel entry point must dispatch
to the engine the caller (or the environment) picked, and every engine
must return value-identical ``BatchRouteResult``s.

Covers the resolution precedence (explicit ``engine=`` keyword >
``FORCE_ENGINE`` monkeypatch seam > ``BENES_ENGINE`` environment
variable > auto), cross-engine value parity for all six public entry
points (exhaustive orders <= 3, hypothesis 4-6), the
``accel.engine_selected`` counter, the no-NumPy auto policy (bitslice
iff the batch holds at least ``BITSLICE_MIN_BATCH`` rows), and the error
contract (unknown names, ``engine="numpy"`` without NumPy).
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.accel._np as _np_mod
from repro import obs
from repro.accel import (
    ENGINES,
    batch_in_class_f,
    batch_route_two_pass,
    batch_route_with_states,
    batch_self_route,
    batch_setup_states,
    batch_two_pass,
    have_numpy,
    resolve_engine,
)
from repro.core import random_permutation
from repro.errors import InvalidParameterError, MissingDependencyError
from repro.planner import plan_batch

needs_numpy = pytest.mark.skipif(not have_numpy(),
                                 reason="NumPy not installed")

PURE_ENGINES = ("scalar", "bitslice")
ALL_ENGINES = tuple(e for e in ENGINES if e != "numpy" or have_numpy())


@pytest.fixture(autouse=True)
def _clean_seams(monkeypatch):
    """No ambient engine steering: tests set FORCE_ENGINE/BENES_ENGINE
    explicitly."""
    monkeypatch.setattr(_np_mod, "FORCE_ENGINE", None)
    monkeypatch.delenv("BENES_ENGINE", raising=False)
    yield


def _norm(result):
    """A BatchRouteResult (any engine) to comparable plain values."""
    out = {
        "success": [bool(v) for v in result.success_mask],
        "mappings": [tuple(int(v) for v in row)
                     for row in result.mappings],
    }
    if result.stage_states is not None:
        out["states"] = [
            tuple(tuple(int(s) for s in col) for col in per_instance)
            for per_instance in result.stage_states
        ]
    if result.per_stage is not None:
        out["per_stage"] = [[int(v) for v in stage]
                            for stage in result.per_stage]
    return out


def _random_states(order, rng, batch):
    n = 1 << order
    return [
        [[rng.randint(0, 1) for _ in range(n // 2)]
         for _ in range(2 * order - 1)]
        for _ in range(batch)
    ]


class TestResolutionPrecedence:
    def test_explicit_keyword_wins(self, monkeypatch):
        monkeypatch.setattr(_np_mod, "FORCE_ENGINE", "scalar")
        monkeypatch.setenv("BENES_ENGINE", "scalar")
        assert resolve_engine("bitslice") == "bitslice"

    def test_force_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv("BENES_ENGINE", "scalar")
        monkeypatch.setattr(_np_mod, "FORCE_ENGINE", "bitslice")
        assert resolve_engine(None) == "bitslice"

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("BENES_ENGINE", "bitslice")
        assert resolve_engine(None) == "bitslice"
        assert resolve_engine(None, order=8, batch_size=1) == "bitslice"

    def test_auto_prefers_numpy_when_available(self):
        resolved = resolve_engine(None, order=4, batch_size=64)
        if have_numpy():
            assert resolved == "numpy"
        else:
            assert resolved in PURE_ENGINES

    def test_auto_without_numpy_uses_crossover(self, monkeypatch):
        monkeypatch.setattr(_np_mod, "FORCE_FALLBACK", True)
        # the crossover is a constant: scalar below it, bitslice from it
        crossover = _np_mod.BITSLICE_MIN_BATCH
        assert crossover == 3
        for order in (2, 4, 8, 12):
            assert resolve_engine(None, order=order, batch_size=1) \
                == "scalar"
            assert resolve_engine(None, order=order,
                                  batch_size=crossover - 1) == "scalar"
            assert resolve_engine(None, order=order,
                                  batch_size=crossover) == "bitslice"
            assert resolve_engine(None, order=order,
                                  batch_size=4096) == "bitslice"

    def test_setup_kind_never_auto_bitslice(self, monkeypatch):
        monkeypatch.setattr(_np_mod, "FORCE_FALLBACK", True)
        assert resolve_engine(None, order=8, batch_size=4096,
                              kind="setup") == "scalar"

    def test_unknown_engine_raises(self):
        with pytest.raises(InvalidParameterError):
            resolve_engine("fortran")
        with pytest.raises(InvalidParameterError):
            batch_self_route([[0, 1]], engine="fortran")

    def test_unknown_env_engine_raises(self, monkeypatch):
        monkeypatch.setenv("BENES_ENGINE", "fortran")
        with pytest.raises(InvalidParameterError):
            batch_self_route([[0, 1]])

    def test_numpy_engine_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(_np_mod, "FORCE_FALLBACK", True)
        with pytest.raises(MissingDependencyError):
            resolve_engine("numpy")
        with pytest.raises(MissingDependencyError):
            batch_self_route([[0, 1]], engine="numpy")


class TestEntryPointParity:
    """Every public accel entry point, every engine, identical values."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_self_route_exhaustive(self, order):
        perms = list(permutations(range(1 << order)))
        results = {
            engine: _norm(batch_self_route(perms, stage_states=True,
                                           engine=engine))
            for engine in ALL_ENGINES
        }
        reference = results["scalar"]
        for engine, result in results.items():
            assert result == reference, engine

    @needs_numpy
    @pytest.mark.parametrize("order", [2, 3])
    def test_stage_data_numpy_vs_bitslice(self, order, rng):
        # the scalar loop doesn't produce per-stage cross counts; the
        # two engines that do must agree
        n = 1 << order
        perms = [random_permutation(n, rng).as_tuple()
                 for _ in range(13)]
        numpy_result = batch_self_route(perms, stage_data=True,
                                        engine="numpy")
        bits_result = batch_self_route(perms, stage_data=True,
                                       engine="bitslice")
        assert [[int(v) for v in stage]
                for stage in numpy_result.per_stage] == \
            [[int(v) for v in stage]
             for stage in bits_result.per_stage]

    @needs_numpy
    @pytest.mark.parametrize("order", [4, 5, 8, 9, 16, 17])
    def test_numpy_at_dtype_boundaries(self, order, rng):
        """The NumPy block takes the narrowest unsigned dtype of its
        values: ``2n`` bits for the packed self-route (it widens after
        orders 4, 8 and 16), ``n`` bits for membership and external
        states (after orders 8 and 16).  Bit and vector reversal are BPC
        permutations, in F(n) by Theorem 2, so both deliver, as the
        inverse mapping; a row outside F(n) does not."""
        import numpy as np

        from repro.accel import cache_clear
        from repro.core.membership import in_class_f

        n = 1 << order
        index = np.arange(n)
        bit_rev = np.zeros(n, dtype=np.int64)
        for bit in range(order):
            bit_rev |= ((index >> bit) & 1) << (order - 1 - bit)
        bpc = [bit_rev.tolist(), index[::-1].tolist()]
        non_f = next(row for row in (rng.sample(range(n), n)
                                     for _ in range(50))
                     if not in_class_f(row))
        rows = bpc + [non_f]
        try:
            result = batch_self_route(rows, stage_states=True,
                                      engine="numpy")
            assert result.success_mask.tolist() == [True, True, False]
            for perm, delivered in zip(bpc, result.mappings):
                assert np.array_equal(delivered[perm], index)
            assert batch_in_class_f(rows, engine="numpy").tolist() == \
                [True, True, False]
            realized = batch_route_with_states(
                result.stage_states[:2], order, engine="numpy").mappings
            assert realized.tolist() == bpc
            if order > 9:
                return
            options = dict(stage_states=True, omega_mode=True,
                           stuck_switches={(order - 1, 3): 1,
                                           (0, n // 2 - 1): 1,
                                           (2 * order - 2, 0): 0})
            numpy_result = batch_self_route(rows, stage_data=True,
                                            engine="numpy", **options)
            scalar_result = _norm(batch_self_route(rows, engine="scalar",
                                                   **options))
            assert numpy_result.per_stage.dtype == np.int64
            assert numpy_result.per_stage.T.tolist() == [
                [sum(col) for col in states]
                for states in scalar_result["states"]]
            numpy_result = _norm(numpy_result)
            del numpy_result["per_stage"]
            assert numpy_result == scalar_result
        finally:
            cache_clear()  # order-17 plans hold a few hundred MB

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_all_entry_points(self, order, rng):
        n = 1 << order
        perms = [random_permutation(n, rng).as_tuple()
                 for _ in range(19)]
        states = _random_states(order, rng, 11)
        reference = None
        for engine in ALL_ENGINES:
            bundle = {
                "route": _norm(batch_self_route(
                    perms, stage_states=True, engine=engine)),
                "omega": _norm(batch_self_route(
                    perms, omega_mode=True, engine=engine)),
                "stuck": _norm(batch_self_route(
                    perms, stuck_switches={(order - 1, 0): 1},
                    engine=engine)),
                "membership": [bool(v) for v in
                               batch_in_class_f(perms, engine=engine)],
                "with_states": _norm(batch_route_with_states(
                    states, order, engine=engine)),
                "setup": [
                    [[int(s) for s in col] for col in instance]
                    for instance in batch_setup_states(order, perms,
                                                       engine=engine)
                ],
                "two_pass": [
                    [tuple(int(v) for v in row) for row in half]
                    for half in batch_two_pass(order, perms,
                                               engine=engine)
                ],
                "route_two_pass": _norm(batch_route_two_pass(
                    order, perms, engine=engine)),
            }
            if reference is None:
                reference = bundle
            else:
                for key, value in bundle.items():
                    assert value == reference[key], (engine, key)

    @settings(max_examples=15, deadline=None)
    @given(order=st.integers(min_value=4, max_value=6), data=st.data())
    def test_self_route_hypothesis(self, order, data):
        n = 1 << order
        rows = data.draw(st.lists(st.permutations(range(n)),
                                  min_size=1, max_size=4))
        results = {
            engine: _norm(batch_self_route(rows, stage_states=True,
                                           engine=engine))
            for engine in ALL_ENGINES
        }
        reference = results["scalar"]
        for engine, result in results.items():
            assert result == reference, engine

    def test_result_types_follow_engine(self):
        perms = [(0, 1, 2, 3), (1, 3, 2, 0)]
        for engine in PURE_ENGINES:
            result = batch_self_route(perms, engine=engine)
            assert isinstance(result.success_mask, list)
            assert isinstance(result.mappings, list)
        if have_numpy():
            import numpy as np

            result = batch_self_route(perms, engine="numpy")
            assert isinstance(result.success_mask, np.ndarray)

    def test_env_var_steers_entry_points(self, monkeypatch):
        perms = [(1, 3, 2, 0)]
        monkeypatch.setenv("BENES_ENGINE", "bitslice")
        result = batch_self_route(perms)
        assert isinstance(result.success_mask, list)
        assert result.success_mask == [False]

    def test_plan_batch_engine_kwarg(self, rng):
        perms = [random_permutation(8, rng).as_tuple()
                 for _ in range(9)]
        plans = {
            engine: plan_batch(perms, engine=engine)
            for engine in ALL_ENGINES
        }
        reference = plans["scalar"]
        for engine, batch in plans.items():
            assert [p.in_f for p in batch] == \
                [p.in_f for p in reference], engine
            assert [p.network_strategy for p in batch] == \
                [p.network_strategy for p in reference], engine


class TestEngineSelectedCounter:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_counter_labels(self):
        obs.enable()
        perms = [(0, 1, 2, 3), (1, 3, 2, 0)]
        batch_self_route(perms, engine="scalar")
        batch_self_route(perms, engine="bitslice")
        batch_in_class_f(perms, engine="bitslice")
        counters = obs.snapshot()["counters"]
        assert counters["accel.engine_selected.scalar"] == 1
        assert counters["accel.engine_selected.bitslice"] == 2
        if have_numpy():
            batch_self_route(perms, engine="numpy")
            counters = obs.snapshot()["counters"]
            assert counters["accel.engine_selected.numpy"] == 1


class TestEnvKnobs:
    """Every integer knob the dispatch reads fails loudly on a bad
    value: ``InvalidParameterError`` naming the variable and value."""

    def test_shard_threshold(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for bad in ("abc", "0"):
            env["BENES_SHARD_THRESHOLD"] = bad
            proc = subprocess.run(
                [sys.executable, "-c", "import repro.accel.executor"],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode != 0
            assert "InvalidParameterError" in proc.stderr
            assert f"BENES_SHARD_THRESHOLD={bad!r}" in proc.stderr

    def test_composed_order(self, monkeypatch):
        monkeypatch.setenv("BENES_COMPOSED_ORDER", "fourteen")
        with pytest.raises(InvalidParameterError,
                           match="BENES_COMPOSED_ORDER='fourteen'"):
            batch_self_route([(0, 1, 2, 3)])

    def test_composed_sub_order(self, monkeypatch):
        monkeypatch.setenv("BENES_COMPOSED_SUB_ORDER", "x")
        with pytest.raises(InvalidParameterError,
                           match="BENES_COMPOSED_SUB_ORDER='x'"):
            batch_self_route([(0, 1, 2, 3)], engine="composed")

    def test_composed_chunk(self, monkeypatch):
        monkeypatch.setenv("BENES_COMPOSED_CHUNK", "0")
        with pytest.raises(InvalidParameterError,
                           match="BENES_COMPOSED_CHUNK='0'"):
            batch_setup_states(2, [(0, 1, 2, 3)], engine="composed")
        monkeypatch.setenv("BENES_COMPOSED_CHUNK", "4")
        assert len(batch_setup_states(2, [(0, 1, 2, 3)],
                                      engine="composed")) == 1
