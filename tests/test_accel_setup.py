"""Tests for the vectorized universal setup (``repro.accel.setup``)
and the shard executor (``repro.accel.executor``).

Parity strategy (mirrors ``tests/test_accel.py``):

- **state-level** parity against the serial Waksman looping for
  order <= 3 (exhaustive) — the batched leader-election walk must be
  byte-identical to ``setup_states``, not merely realize the same
  permutations;
- hypothesis-randomized state parity for orders 4-7;
- the two-pass factorization against the scalar decomposition, and the
  fully-routed composition against the input permutation;
- every entry point re-tested on the pure-Python fallback path;
- executor determinism: sharded results (NumPy *and* the no-NumPy
  fallback, any worker count) are identical to the inline call.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.accel._np as _np_mod
from repro.accel import (
    batch_route_two_pass,
    batch_route_with_states,
    batch_self_route,
    batch_setup_states,
    batch_two_pass,
    cache_clear,
    cache_stats,
    have_numpy,
    setup_plan,
    setup_plan_cache,
)
from repro.accel import executor as _executor
from repro.core import BenesNetwork, random_permutation
from repro.core.fastpath import fast_self_route
from repro.core.twopass import straight_map, two_pass_decomposition
from repro.core.waksman import setup_states
from repro.errors import InvalidParameterError, InvalidPermutationError
from repro.simd import batch_parallel_setup, parallel_setup_states


@pytest.fixture
def no_numpy(monkeypatch):
    """Force every accel primitive onto the pure-Python fallback."""
    monkeypatch.setattr(_np_mod, "FORCE_FALLBACK", True)
    return None


@pytest.fixture
def low_threshold(monkeypatch):
    """Let tiny batches reach the shard executor."""
    monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 4)
    return None


@pytest.fixture
def rng():
    return random.Random(1968)


def _as_nested(states_row):
    return [[int(v) for v in column] for column in states_row]


def _random_perms(order, rng, batch):
    n = 1 << order
    return [random_permutation(n, rng).as_tuple() for _ in range(batch)]


def _assert_setup_parity(order, perms):
    states = batch_setup_states(order, perms)
    for i, perm in enumerate(perms):
        assert _as_nested(states[i]) == setup_states(perm)


class TestBatchSetupStates:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_exhaustive_state_parity(self, order):
        perms = list(permutations(range(1 << order)))
        _assert_setup_parity(order, perms)

    @settings(max_examples=30, deadline=None)
    @given(order=st.integers(min_value=4, max_value=7), data=st.data())
    def test_hypothesis_state_parity(self, order, data):
        n = 1 << order
        perms = data.draw(st.lists(st.permutations(range(n)),
                                   min_size=1, max_size=3))
        _assert_setup_parity(order, perms)

    def test_states_realize_the_permutations(self, rng):
        order = 6
        perms = _random_perms(order, rng, 16)
        states = batch_setup_states(order, perms)
        # route_with_states mappings are the realized input -> output
        realized = batch_route_with_states(states, order).mappings
        for i, perm in enumerate(perms):
            assert tuple(int(v) for v in realized[i]) == perm

    def test_matches_cic_parallel_model(self, rng):
        """The leader-election rule is the CIC algorithm's — one batch
        call agrees with the scalar data-parallel model too."""
        order = 5
        perms = _random_perms(order, rng, 8)
        states = batch_setup_states(order, perms)
        for i, perm in enumerate(perms):
            assert _as_nested(states[i]) == \
                parallel_setup_states(perm).states

    def test_rejects_non_permutations(self):
        if not have_numpy():
            pytest.skip("validation is the NumPy path's")
        with pytest.raises(InvalidPermutationError):
            batch_setup_states(2, [[0, 1, 1, 3]])

    def test_fallback_parity(self, no_numpy, rng):
        order = 4
        perms = _random_perms(order, rng, 12)
        states = batch_setup_states(order, perms)
        assert isinstance(states, list)
        for i, perm in enumerate(perms):
            assert states[i] == setup_states(perm)


class TestBatchTwoPass:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_exhaustive_factor_parity(self, order):
        perms = list(permutations(range(1 << order)))
        if order == 3:
            perms = perms[::97]  # thinned: scalar side is slow
        first, second = batch_two_pass(order, perms)
        for i, perm in enumerate(perms):
            want_first, want_second = two_pass_decomposition(perm)
            assert tuple(int(v) for v in first[i]) == \
                want_first.as_tuple()
            assert tuple(int(v) for v in second[i]) == \
                want_second.as_tuple()

    @pytest.mark.parametrize("order", [4, 6])
    def test_random_factor_parity(self, order, rng):
        perms = _random_perms(order, rng, 8)
        first, second = batch_two_pass(order, perms)
        for i, perm in enumerate(perms):
            want_first, want_second = two_pass_decomposition(perm)
            assert tuple(int(v) for v in first[i]) == \
                want_first.as_tuple()
            assert tuple(int(v) for v in second[i]) == \
                want_second.as_tuple()

    def test_route_two_pass_delivers_everything(self, rng):
        order = 5
        perms = _random_perms(order, rng, 16)
        result = batch_route_two_pass(order, perms)
        assert all(bool(ok) for ok in result.success_mask)
        for i, perm in enumerate(perms):
            delivered = [0] * len(perm)
            for output, source in enumerate(result.mappings[i]):
                delivered[int(source)] = output
            assert tuple(delivered) == perm

    def test_omega_pass_matches_structural_network(self, rng):
        """Pass 2 runs the engine in omega mode; pin it to the
        structural network's omega-mode routing."""
        order = 3
        net = BenesNetwork(order)
        perms = _random_perms(order, rng, 8)
        _, second = batch_two_pass(order, perms)
        rows = [tuple(int(v) for v in row) for row in second]
        batch = batch_self_route(rows, omega_mode=True)
        for i, row in enumerate(rows):
            result = net.route(row, omega_mode=True)
            assert bool(batch.success_mask[i]) == result.success
            assert tuple(int(v) for v in batch.mappings[i]) == \
                result.delivered
        # and against the scalar fast path
        for i, row in enumerate(rows):
            ok, delivered = fast_self_route(row, omega_mode=True)
            assert bool(batch.success_mask[i]) == ok
            assert tuple(int(v) for v in batch.mappings[i]) == delivered

    def test_fallback_parity(self, no_numpy, rng):
        order = 4
        perms = _random_perms(order, rng, 8)
        first, second = batch_two_pass(order, perms)
        for i, perm in enumerate(perms):
            want_first, want_second = two_pass_decomposition(perm)
            assert first[i] == want_first.as_tuple()
            assert second[i] == want_second.as_tuple()
        result = batch_route_two_pass(order, perms)
        assert all(result.success_mask)
        for i, perm in enumerate(perms):
            delivered = [0] * len(perm)
            for output, source in enumerate(result.mappings[i]):
                delivered[source] = output
            assert tuple(delivered) == perm


class TestShardExecutor:
    def test_resolve_workers(self):
        assert _executor.resolve_workers(False) == 1
        assert _executor.resolve_workers(None) == 1
        assert _executor.resolve_workers(3) == 3
        assert _executor.resolve_workers(True) >= 1
        with pytest.raises(InvalidParameterError):
            _executor.resolve_workers(0)

    def test_parallel_true_counts_usable_cpus(self, low_threshold,
                                              monkeypatch, rng):
        """A process pinned to one CPU resolves ``parallel=True`` to
        one worker, so the batch runs inline."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert _executor.resolve_workers(True) == 1

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("one usable CPU must not shard")

        monkeypatch.setattr(_executor, "dispatch", boom)
        batch_setup_states(3, _random_perms(3, rng, 8), parallel=True)

    def test_wants_shards_threshold(self, low_threshold):
        assert not _executor.wants_shards(False, 10 ** 6)
        assert not _executor.wants_shards(2, 3)   # below threshold
        assert _executor.wants_shards(2, 4)
        assert not _executor.wants_shards(1, 4)   # one worker: inline

    def test_shard_bounds_cover_contiguously(self):
        for n_items, n_shards in ((10, 3), (4, 4), (7, 2), (5, 1)):
            bounds = _executor._shard_bounds(n_items, n_shards)
            assert bounds[0][0] == 0 and bounds[-1][1] == n_items
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start

    @pytest.mark.parametrize("workers", [2, 3])
    def test_process_determinism(self, low_threshold, workers, rng):
        """Sharded processing with NumPy is identical to inline for
        every entry point and any worker count (explicit ints shard
        even on single-core machines)."""
        if not have_numpy():
            pytest.skip("NumPy absent")
        np = _np_mod.numpy_or_none()
        order = 4
        perms = _random_perms(order, rng, 16)
        inline = batch_setup_states(order, perms)
        sharded = batch_setup_states(order, perms, parallel=workers)
        assert np.array_equal(inline, sharded)
        f_inline, s_inline = batch_two_pass(order, perms)
        f_shard, s_shard = batch_two_pass(order, perms, parallel=workers)
        assert np.array_equal(f_inline, f_shard)
        assert np.array_equal(s_inline, s_shard)
        r_inline = batch_route_two_pass(order, perms)
        r_shard = batch_route_two_pass(order, perms, parallel=workers)
        assert np.array_equal(r_inline.mappings, r_shard.mappings)
        assert np.array_equal(np.asarray(r_inline.success_mask),
                              np.asarray(r_shard.success_mask))
        b_inline = batch_self_route(perms, stage_data=True)
        b_shard = batch_self_route(perms, stage_data=True,
                                   parallel=workers)
        assert np.array_equal(b_inline.mappings, b_shard.mappings)
        assert np.array_equal(b_inline.per_stage, b_shard.per_stage)

    def test_script_without_main_guard_runs_once(self, tmp_path):
        """Sharding starts no interpreter: a script that shards at top
        level, with no ``__main__`` guard, runs its body once."""
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent(f"""\
            import sys
            sys.path.insert(0, {str(Path(__file__).parents[1] / "src")!r})
            from repro.accel import batch_setup_states
            from repro.accel import executor
            executor.SHARD_THRESHOLD = 4
            rows = [tuple(range(8))] * 8
            batch_setup_states(3, rows, parallel=2)
            print("script body ran")
        """))
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("script body ran") == 1

    def test_thread_fallback_determinism(self, no_numpy, low_threshold,
                                         rng):
        """Without NumPy shards run on threads — same values."""
        order = 4
        perms = _random_perms(order, rng, 12)
        assert batch_setup_states(order, perms) == \
            batch_setup_states(order, perms, parallel=2)
        assert batch_two_pass(order, perms) == \
            batch_two_pass(order, perms, parallel=2)
        inline = batch_route_two_pass(order, perms)
        sharded = batch_route_two_pass(order, perms, parallel=3)
        assert list(inline.success_mask) == list(sharded.success_mask)
        assert [tuple(m) for m in inline.mappings] == \
            [tuple(m) for m in sharded.mappings]

    def test_parallel_false_never_dispatches(self, low_threshold,
                                             monkeypatch, rng):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("dispatch called with parallel=False")

        monkeypatch.setattr(_executor, "dispatch", boom)
        perms = _random_perms(3, rng, 8)
        batch_setup_states(3, perms)
        batch_two_pass(3, perms)
        batch_self_route(perms)


class TestSetupPlanCache:
    def test_cache_stats_exposes_setup_plans(self):
        cache_clear()
        stats = cache_stats()
        assert set(stats) == {"plan", "topology", "setup", "bitslice",
                              "composed"}
        assert stats["setup"]["size"] == 0
        setup_plan(3)
        setup_plan(3)
        stats = cache_stats()
        assert stats["setup"]["size"] == 1
        assert stats["setup"]["hits"] >= 1
        assert setup_plan_cache().stats() == stats["setup"]

    def test_plan_matches_straight_map(self):
        plan = setup_plan(3)
        assert plan.straight == straight_map(3).as_tuple()
        inverse = [0] * len(plan.straight)
        for i, v in enumerate(plan.straight):
            inverse[v] = i
        assert list(plan.straight_inverse) == inverse


class TestBatchParallelSetup:
    def test_matches_scalar_runs(self, rng):
        perms = _random_perms(4, rng, 6)
        runs = batch_parallel_setup(perms)
        for perm, run in zip(perms, runs):
            reference = parallel_setup_states(perm)
            assert run.states == reference.states
            assert run.route_steps == reference.route_steps
            assert run.compute_steps == reference.compute_steps

    def test_fallback_matches_too(self, no_numpy, rng):
        perms = _random_perms(3, rng, 4)
        runs = batch_parallel_setup(perms)
        for perm, run in zip(perms, runs):
            assert run.states == parallel_setup_states(perm).states

    def test_empty_batch(self):
        assert batch_parallel_setup([]) == []
