"""Tests for the vectorized batch-routing engine (``repro.accel``).

Parity strategy (mirrors ``tests/test_fastpath.py``):

- exhaustive against both the scalar fast path and the structural
  network for order <= 3;
- hypothesis-randomized against the scalar fast path for orders 4-7
  (the scalar path is itself pinned to the structural network);
- every public primitive re-tested on the pure-Python fallback path
  with NumPy "absent" (forced via the ``_np`` helper and via a
  monkeypatched import).
"""

from __future__ import annotations

import random
import threading
from enum import IntEnum
from itertools import islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.accel._np as _np_mod
from repro.accel import (
    LRUCache,
    batch_in_class_f,
    batch_route_with_states,
    batch_self_route,
    cached_topology,
    have_numpy,
    numpy_or_none,
    plan_cache,
    require_numpy,
    stage_plan,
)
from repro.core import BenesNetwork, random_permutation
from repro.core.fastpath import fast_route_with_states, fast_self_route
from repro.core.membership import in_class_f
from repro.core.topology import BenesTopology
from repro.errors import InvalidParameterError, MissingDependencyError
from repro.simd.permute import benes_dimension_schedule


@pytest.fixture
def no_numpy(monkeypatch):
    """Force every accel primitive onto the pure-Python fallback."""
    monkeypatch.setattr(_np_mod, "FORCE_FALLBACK", True)
    return None


def _random_states(order, rng, batch):
    n = 1 << order
    stages = 2 * order - 1
    return [
        [[rng.randint(0, 1) for _ in range(n // 2)]
         for _ in range(stages)]
        for _ in range(batch)
    ]


def _assert_self_route_parity(tag_rows):
    result = batch_self_route(tag_rows)
    success, delivered = result.success_mask, result.mappings
    for i, row in enumerate(tag_rows):
        expect_ok, expect_dst = fast_self_route(row)
        assert bool(success[i]) == expect_ok, row
        assert tuple(int(v) for v in delivered[i]) == expect_dst, row


class TestLRUCache:
    def test_bounded_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: 1)   # refresh a
        cache.get_or_build("c", lambda: 3)   # evicts b (LRU)
        assert cache.keys() == ["a", "c"]
        assert "b" not in cache and len(cache) == 2

    def test_build_once_then_hit(self):
        cache = LRUCache(maxsize=4)
        builds = []
        for _ in range(3):
            value = cache.get_or_build("k", lambda: builds.append(1) or 42)
            assert value == 42
        assert len(builds) == 1
        assert cache.hits == 2 and cache.misses == 1

    def test_rejects_silly_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_thread_hammer(self):
        cache = LRUCache(maxsize=8)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    key = rng.randrange(12)
                    value = cache.get_or_build(key, lambda k=key: k * k)
                    assert value == key * key
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8

    def test_clear(self):
        cache = LRUCache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0


class TestPlans:
    def test_topology_cache_returns_same_object(self):
        assert cached_topology(4) is cached_topology(4)
        assert cached_topology(4).links == BenesTopology.build(4).links

    def test_plan_cached_and_consistent_with_topology(self):
        plan = stage_plan(3)
        assert stage_plan(3) is plan
        assert 3 in plan_cache()
        topo = cached_topology(3)
        assert plan.ctrl_bits == topo.control_bits()
        assert plan.links == topo.links
        assert plan.n_stages == topo.n_stages == 5

    def test_inverse_links_are_inverses(self):
        plan = stage_plan(4)
        for link, inv in zip(plan.links, plan.inv_links):
            n = len(link)
            assert sorted(inv) == list(range(n))
            assert all(inv[link[r]] == r for r in range(n))

    def test_np_inv_links_shape(self):
        if not have_numpy():
            pytest.skip("NumPy absent")
        np = numpy_or_none()
        arr = stage_plan(3).np_inv_links()
        assert arr.shape == (4, 8) and arr.dtype == np.intp
        assert stage_plan(1).np_inv_links().shape == (0, 2)

    @pytest.mark.parametrize("order", range(1, 15))
    def test_interchange_layout(self, order):
        """The NumPy kernels' layout (Section III): a link moves no
        signal off its cube position, switch ``j`` of stage ``s`` holds
        positions ``(i, i + 2^k)`` on rows ``(2j, 2j+1)`` with
        ``k = ctrl_bits[s]`` (the CCC dimension schedule), and the
        last column is in position order."""
        if not have_numpy():
            pytest.skip("NumPy absent")
        np = numpy_or_none()
        plan = stage_plan(order)
        assert plan.ctrl_bits == tuple(benes_dimension_schedule(order))
        n = plan.n_terminals
        pos = plan.np_positions()
        assert pos.shape == (plan.n_stages, n)
        assert np.array_equal(pos[0], np.arange(n))
        for stage, link in enumerate(cached_topology(order).links):
            assert np.array_equal(pos[stage + 1][np.asarray(link)],
                                  pos[stage])
        k = np.array(plan.ctrl_bits)[:, None]
        upper, lower = pos[:, 0::2], pos[:, 1::2]
        assert not ((upper >> k) & 1).any()
        assert np.array_equal(lower, upper + (1 << k))
        assert np.array_equal(pos[-1], np.arange(n))
        pair_of_switch, switch_of_pair = plan.np_pair_maps()
        for stage, bit in enumerate(plan.ctrl_bits):
            clear = np.flatnonzero(((np.arange(n) >> bit) & 1) == 0)
            assert np.array_equal(pair_of_switch[stage],
                                  np.searchsorted(clear, upper[stage]))
        pairs = np.arange(n // 2)
        assert np.array_equal(
            np.take_along_axis(pair_of_switch, switch_of_pair, axis=1),
            np.broadcast_to(pairs, pair_of_switch.shape))
        assert np.array_equal(
            np.take_along_axis(switch_of_pair, pair_of_switch, axis=1),
            np.broadcast_to(pairs, pair_of_switch.shape))

    def test_full_range_calls_build_no_layout_table(self):
        """Plain self-routing and membership never leave cube-position
        order, so they build none of the plan's NumPy tables."""
        if not have_numpy():
            pytest.skip("NumPy absent")
        plan_cache().clear()
        rows = [list(range(32))[::-1], list(range(32))]
        batch_self_route(rows, engine="numpy")
        batch_self_route(rows, engine="numpy", stage_data=True,
                         omega_mode=True)
        batch_in_class_f(rows, engine="numpy")
        plan = stage_plan(5)
        assert plan._np_inv_links is None
        assert plan._np_positions is None
        assert plan._np_pair_maps is None
        batch_self_route(rows, engine="numpy", stage_states=True)
        assert plan._np_pair_maps is not None


class TestBatchSelfRouteParity:
    @pytest.mark.parametrize("order", [1, 2])
    def test_exhaustive_vs_network_and_fastpath(self, order):
        net = BenesNetwork(order)
        perms = list(permutations(range(1 << order)))
        result = batch_self_route(perms)
        success, delivered = result.success_mask, result.mappings
        mask = batch_in_class_f(perms)
        for i, p in enumerate(perms):
            result = net.route(p)
            assert bool(success[i]) == result.success
            assert tuple(int(v) for v in delivered[i]) == result.delivered
            assert bool(mask[i]) == result.success

    def test_exhaustive_order3_vs_fastpath(self):
        perms = list(permutations(range(8)))
        _assert_self_route_parity(perms)
        mask = batch_in_class_f(perms)
        assert sum(map(bool, mask)) == 11632  # |F(3)|

    def test_fig5_counterexample(self):
        result = batch_self_route([[1, 3, 2, 0]])
        assert not bool(result.success_mask[0])
        assert sorted(int(v) for v in result.mappings[0]) == [0, 1, 2, 3]
        assert result.n_success == 0 and not result.all_success

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(min_value=4, max_value=7),
           data=st.data())
    def test_hypothesis_permutations(self, order, data):
        n = 1 << order
        rows = data.draw(st.lists(st.permutations(range(n)),
                                  min_size=1, max_size=4))
        _assert_self_route_parity(rows)

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(min_value=4, max_value=7),
           data=st.data())
    def test_hypothesis_arbitrary_tags(self, order, data):
        """Non-permutation tag vectors (duplicates) route identically
        too — the self-routing rule never assumes distinctness."""
        n = 1 << order
        rows = data.draw(st.lists(
            st.lists(st.integers(min_value=0, max_value=n - 1),
                     min_size=n, max_size=n),
            min_size=1, max_size=3))
        _assert_self_route_parity(rows)

    def test_rejects_bad_shapes_and_tags(self):
        if not have_numpy():
            pytest.skip("shape/range validation is the NumPy path's")
        with pytest.raises(ValueError):
            batch_self_route([1, 2, 3, 0])       # 1-D, not a batch
        with pytest.raises(ValueError):
            batch_self_route([[0, 1, 2, 4]])     # tag out of range


class _Index:
    """An integer-like object with ``__index__`` only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class _Bit(IntEnum):
    ZERO = 0
    ONE = 1


#: Batches for the list conversion; ``np`` builds the NumPy-typed ones.
_CONVERSION_CASES = {
    "ints": lambda np: [[0, 1, 2, 3], [3, 2, 1, 0]],
    "tuple_rows": lambda np: [(0, 1), (1, 0)],
    "tuple_batch": lambda np: ((0, 1), (1, 0)),
    "list_and_tuple_rows": lambda np: [[0, 1], (1, 0)],
    "bools": lambda np: [[True, False], [False, True]],
    "int_enum": lambda np: [[_Bit.ONE, _Bit.ZERO]],
    "np_scalars": lambda np: [[np.int64(1), np.uint8(0)]],
    "floats": lambda np: [[0.0, 1.9]],
    "nan": lambda np: [[float("nan"), 0.0]],
    "numeric_strings": lambda np: [["1", "0"]],
    "bad_string": lambda np: [["x", "0"]],
    "string_rows": lambda np: ["01", "10"],
    "none": lambda np: [[None, 0]],
    "complex": lambda np: [[1 + 0j, 0]],
    "index_objects": lambda np: [[_Index(1), _Index(0)]],
    "nested": lambda np: [[[0, 1], [1, 0]]],
    "ragged_short": lambda np: [[0, 1, 2, 3], [0, 1]],
    "ragged_long": lambda np: [[0, 1], [0, 1, 2, 3]],
    "ragged_balanced": lambda np: [[0, 1], [0, 1, 2], [0]],
    "negative": lambda np: [[-1, 0]],
    "at_2_63": lambda np: [[2 ** 63, 0]],
    "above_2_64": lambda np: [[2 ** 64 + 1, 0]],
    "ndarray_rows": lambda np: [np.array([0, 1]), np.array([1, 0])],
    "ndarray": lambda np: np.array([[0, 1], [1, 0]], dtype=np.int32),
    "empty_rows": lambda np: [[], []],
}


class TestListConversion:
    """``batch._int64_rows`` converts list batches in one ``fromiter``
    pass with exactly ``np.asarray(rows, dtype=np.int64)``'s outcome."""

    @staticmethod
    def _outcome(convert, rows):
        try:
            arr = convert(rows)
        except Exception as exc:  # noqa: BLE001 - the type is compared
            return type(exc)
        return arr.dtype, arr.shape, arr.tolist()

    @pytest.mark.parametrize("case", sorted(_CONVERSION_CASES))
    def test_same_outcome_as_asarray(self, case):
        if not have_numpy():
            pytest.skip("NumPy absent")
        from repro.accel.batch import _int64_rows

        np = numpy_or_none()
        rows = _CONVERSION_CASES[case](np)
        assert self._outcome(lambda r: _int64_rows(np, r), rows) == \
            self._outcome(lambda r: np.asarray(r, dtype=np.int64), rows)

    @pytest.mark.parametrize("rows", [[[0, 1, 2, 4]], [(0, -1, 2, 3)],
                                      [[0, 1], [2, 1]]])
    def test_out_of_range_tags_rejected(self, rows):
        with pytest.raises(InvalidParameterError, match=r"\[0, \d+\)"):
            batch_self_route(rows)


class TestBatchRouteWithStatesParity:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_random_states(self, order, rng):
        batch = _random_states(order, rng, batch=16)
        out = batch_route_with_states(batch, order).mappings
        for i, states in enumerate(batch):
            assert tuple(int(v) for v in out[i]) == \
                fast_route_with_states(states, order)

    def test_straight_states_identity(self):
        net = BenesNetwork(3)
        out = batch_route_with_states([net.straight_states()] * 4, 3)
        assert out.all_success
        for row in out.mappings:
            assert tuple(int(v) for v in row) == tuple(range(8))

    def test_rejects_bad_shape(self):
        if not have_numpy():
            pytest.skip("shape validation is the NumPy path's")
        with pytest.raises(ValueError):
            batch_route_with_states([[[0, 0]]], 2)  # wrong stage count


class TestFallbackWithoutNumpy:
    def test_numpy_or_none_honours_force_fallback(self, no_numpy):
        assert numpy_or_none() is None
        assert not have_numpy()

    def test_numpy_or_none_survives_missing_import(self, monkeypatch):
        """Simulate NumPy genuinely uninstalled: the memoized import
        re-runs and fails cleanly."""
        import builtins

        real_import = builtins.__import__

        def fake_import(name, *args, **kwargs):
            if name == "numpy":
                raise ImportError("No module named 'numpy'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(_np_mod, "_numpy", _np_mod._UNRESOLVED)
        monkeypatch.setattr(builtins, "__import__", fake_import)
        assert numpy_or_none() is None
        with pytest.raises(MissingDependencyError):
            require_numpy("testing")

    def test_require_numpy_names_the_extra(self, no_numpy):
        with pytest.raises(MissingDependencyError,
                           match=r"repro\[accel\]"):
            require_numpy("the batch engine")

    def test_self_route_fallback_parity(self, no_numpy):
        perms = list(permutations(range(8)))[:200]
        result = batch_self_route(perms)
        success, delivered = result.success_mask, result.mappings
        assert isinstance(success, list)
        for i, p in enumerate(perms):
            ok, dst = fast_self_route(p)
            assert success[i] == ok and delivered[i] == dst

    def test_membership_fallback_parity(self, no_numpy):
        perms = list(islice(permutations(range(8)), 300))
        mask = batch_in_class_f(perms)
        assert isinstance(mask, list)
        assert mask == [in_class_f(p) for p in perms]

    def test_route_with_states_fallback_parity(self, no_numpy, rng):
        batch = _random_states(3, rng, batch=8)
        out = batch_route_with_states(batch, 3)
        assert isinstance(out.mappings, list)
        assert out.mappings == [fast_route_with_states(s, 3)
                                for s in batch]

    def test_density_estimator_identical_without_numpy(self, no_numpy):
        from repro.analysis import estimate_class_f_density

        density = estimate_class_f_density(3, 300,
                                           random.Random(0xF00D))
        assert density == pytest.approx(11632 / 40320, abs=0.1)

    def test_class_f_count_fast_raises_cleanly(self, no_numpy):
        from repro.analysis import class_f_count_fast

        with pytest.raises(MissingDependencyError, match="accel"):
            class_f_count_fast(3)

    def test_setting_multiplicity_fallback(self, no_numpy):
        from repro.analysis.redundancy import setting_multiplicity

        counts = setting_multiplicity(2)
        assert len(counts) == 24 and sum(counts.values()) == 64

    def test_uniform_sampler_fallback(self, no_numpy):
        from repro.core import random_class_f_uniform

        perm = random_class_f_uniform(3, random.Random(1))
        assert in_class_f(perm)


class TestConsumerSeams:
    """The wired consumers give the same answers in both modes."""

    def test_density_estimator_mode_independent(self, monkeypatch):
        if not have_numpy():
            pytest.skip("only one mode available")
        from repro.analysis import estimate_class_f_density

        fast = estimate_class_f_density(3, 400, random.Random(99))
        monkeypatch.setattr(_np_mod, "FORCE_FALLBACK", True)
        slow = estimate_class_f_density(3, 400, random.Random(99))
        assert fast == slow

    def test_setting_multiplicity_mode_independent(self, monkeypatch):
        if not have_numpy():
            pytest.skip("only one mode available")
        from repro.analysis.redundancy import setting_multiplicity

        fast = setting_multiplicity(2)
        monkeypatch.setattr(_np_mod, "FORCE_FALLBACK", True)
        assert setting_multiplicity(2) == fast

    def test_benchmark_engine_runs_in_both_modes(self, monkeypatch):
        from repro.accel.benchmark import best_speedup, run_benchmark

        report = run_benchmark(orders=(2,), batch_sizes=(8,), repeats=1)
        assert report["cells"][0]["batch_size"] == 8
        assert best_speedup(report) is not None
        monkeypatch.setattr(_np_mod, "FORCE_FALLBACK", True)
        fallback = run_benchmark(orders=(2,), batch_sizes=(8,),
                                 repeats=1)
        assert fallback["numpy"] is False

    def test_cli_bench_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "bench.json"
        assert main(["bench", "--orders", "2", "--batches", "8",
                     "--repeats", "1", "--json", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "speedup" in captured
        report = json.loads(out.read_text())
        assert report["cells"][0]["order"] == 2
