"""Failure-path tests for the shard executor and the LRU cache.

Pins the two bugfix satellites of the verification PR:

- a shard that raises mid-batch must fail the *whole* dispatch with the
  original exception — never a partial merge, never a silent re-run on
  the thread pool (thread retry is reserved for environment failures:
  pool creation errors and ``BrokenProcessPool``);
- a ``clear()`` landing while a factory build is in flight must win:
  the finished build is handed to its caller but never resurrected into
  the cleared cache, and ``stats()`` snapshots stay internally
  consistent (including the in-flight ``building`` count).
"""

import random
import threading

import pytest

import repro.obs as obs
from repro.accel import _np as _np_seam
from repro.accel import executor as _executor
from repro.accel import have_numpy
from repro.accel.batch import batch_in_class_f, batch_self_route
from repro.accel.lru import LRUCache
from repro.core import in_class_f
from repro.core.permutation import random_permutation

requires_numpy = pytest.mark.skipif(
    not have_numpy(), reason="needs NumPy (process-pool executor path)")


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def thread_sharding(monkeypatch):
    """Force the executor onto the in-process thread path with a
    threshold low enough that tiny test batches shard."""
    monkeypatch.setattr(_np_seam, "FORCE_FALLBACK", True)
    monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 2)


def _rows(order, batch, seed=0):
    rng = random.Random(seed)
    return [random_permutation(1 << order, rng).as_tuple()
            for _ in range(batch)]


class TestThreadShardFailures:
    def test_shard_exception_propagates(self, thread_sharding,
                                        monkeypatch):
        def boom(op, rows, options):
            raise ValueError("shard exploded")

        monkeypatch.setattr(_executor, "_run_shard", boom)
        with pytest.raises(ValueError, match="shard exploded"):
            batch_self_route(_rows(2, 8), parallel=2)

    def test_one_bad_shard_fails_whole_call(self, thread_sharding,
                                            monkeypatch):
        rows = _rows(2, 8, seed=1)
        marker = rows[6]
        original = _executor._run_shard

        def poisoned(op, rows, options):
            if any(tuple(row) == marker for row in rows):
                raise RuntimeError("poisoned shard")
            return original(op, rows, options)

        monkeypatch.setattr(_executor, "_run_shard", poisoned)
        # the first shard is healthy — its partial result must not
        # escape as a truncated mask
        with pytest.raises(RuntimeError, match="poisoned shard"):
            batch_in_class_f(rows, parallel=2)

    def test_no_thread_retry_for_shard_failures(self, thread_sharding,
                                                monkeypatch):
        calls = []

        def boom(op, rows, options):
            calls.append(len(rows))
            raise ValueError("deterministic failure")

        monkeypatch.setattr(_executor, "_run_shard", boom)
        obs.enable()
        with pytest.raises(ValueError):
            batch_in_class_f(_rows(2, 8), parallel=2)
        counters = obs.snapshot()["counters"]
        assert "executor.fallback.calls" not in counters
        # each shard ran at most once — a retry would re-invoke the task
        assert sum(calls) <= 8

    def test_executor_usable_after_failure(self, thread_sharding,
                                           monkeypatch):
        def boom(op, rows, options):
            raise ValueError("transient")

        rows = _rows(2, 8, seed=2)
        with monkeypatch.context() as patch:
            patch.setattr(_executor, "_run_shard", boom)
            with pytest.raises(ValueError):
                batch_in_class_f(rows, parallel=2)
        mask = batch_in_class_f(rows, parallel=2)
        assert [bool(ok) for ok in mask] == \
            [in_class_f(row) for row in rows]


class TestProcessShardFailures:
    @requires_numpy
    def test_worker_exception_propagates_with_type(self, monkeypatch):
        from repro.errors import NotAPowerOfTwoError

        monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 2)
        obs.enable()
        # width 3 passes the dispatcher untouched and explodes inside
        # the worker's own validation — a genuine remote task failure
        with pytest.raises(NotAPowerOfTwoError):
            _executor.dispatch("in_class_f", [[0, 1, 2]] * 8,
                               parallel=2)
        counters = obs.snapshot()["counters"]
        # a task failure is not an environment failure: no thread retry
        assert "executor.fallback.calls" not in counters

    @requires_numpy
    def test_pool_survives_task_failure(self, monkeypatch):
        from repro.errors import NotAPowerOfTwoError

        monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 2)
        with pytest.raises(NotAPowerOfTwoError):
            _executor.dispatch("in_class_f", [[0, 1, 2]] * 8,
                               parallel=2)
        rows = _rows(2, 8, seed=3)
        mask = batch_in_class_f(rows, parallel=2)
        assert [bool(ok) for ok in mask] == \
            [in_class_f(row) for row in rows]

    @requires_numpy
    def test_pool_creation_failure_degrades_to_threads(self,
                                                       monkeypatch):
        monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 2)

        def no_pool(workers, orders):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(_executor, "_get_process_pool", no_pool)
        obs.enable()
        rows = _rows(2, 8, seed=4)
        mask = batch_in_class_f(rows, parallel=2)
        assert [bool(ok) for ok in mask] == \
            [in_class_f(row) for row in rows]
        counters = obs.snapshot()["counters"]
        assert counters["executor.fallback.calls"] == 1
        assert counters["executor.mode.thread"] == 1


class TestLRUClearRace:
    def test_clear_mid_build_is_not_resurrected(self):
        cache = LRUCache(maxsize=4)
        release = threading.Event()
        built = threading.Event()
        result = {}

        def factory():
            built.set()
            assert release.wait(timeout=5.0)
            return "stale-value"

        def build():
            result["value"] = cache.get_or_build("k", factory)

        worker = threading.Thread(target=build)
        worker.start()
        assert built.wait(timeout=5.0)
        # the factory is in flight: visible as `building`, not as a
        # phantom entry
        stats = cache.stats()
        assert stats == {"hits": 0, "misses": 1, "size": 0,
                         "maxsize": 4, "building": 1}
        cache.clear()
        release.set()
        worker.join(timeout=5.0)
        # the builder still got its value...
        assert result["value"] == "stale-value"
        # ...but the cleared cache stays empty
        assert len(cache) == 0 and "k" not in cache
        assert cache.stats() == {"hits": 0, "misses": 0, "size": 0,
                                 "maxsize": 4, "building": 0}
        # and the next lookup rebuilds from scratch
        assert cache.get_or_build("k", lambda: "fresh") == "fresh"
        assert cache.stats()["size"] == 1

    def test_concurrent_builds_single_winner(self):
        cache = LRUCache(maxsize=4)
        barrier = threading.Barrier(2, timeout=5.0)
        results = [None, None]

        def build(slot):
            def factory():
                barrier.wait()  # both threads are inside their factory
                return f"value-from-{slot}"

            results[slot] = cache.get_or_build("k", factory)

        threads = [threading.Thread(target=build, args=(slot,))
                   for slot in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        # both callers observe the same winning value
        assert results[0] == results[1]
        assert len(cache) == 1
        assert cache.get_or_build("k", lambda: "loser") == results[0]

    def test_stats_consistent_under_contention(self):
        cache = LRUCache(maxsize=4)
        lookups_per_thread = 200
        n_threads = 8

        def hammer(seed):
            rng = random.Random(seed)
            for _ in range(lookups_per_thread):
                key = rng.randrange(8)  # 8 keys > maxsize: evictions
                value = cache.get_or_build(key, lambda k=key: k * k)
                assert value == key * key
            if seed % 2:
                cache.clear()

        threads = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        stats = cache.stats()
        assert stats["building"] == 0
        assert stats["size"] <= stats["maxsize"]
        # counters were cleared at arbitrary points, but the surviving
        # window is still internally consistent
        assert stats["hits"] >= 0 and stats["misses"] >= 0
        assert stats["hits"] + stats["misses"] <= \
            n_threads * lookups_per_thread


class TestShutdownDeltaFlush:
    def test_failed_delta_flush_is_counted(self, monkeypatch):
        # regression: a broken pool raising during the best-effort
        # metrics flush at shutdown was swallowed silently; the lost
        # delta must bump executor.delta_flush_failed
        class _BrokenPool:
            def __init__(self):
                self.shutdowns = []

            def submit(self, fn, *args):
                raise RuntimeError("pool is broken")

            def shutdown(self, wait=True):
                self.shutdowns.append(wait)

        pool = _BrokenPool()
        monkeypatch.setattr(_executor, "_POOL", pool)
        monkeypatch.setattr(_executor, "_POOL_WORKERS", 2)
        obs.enable()
        _executor.shutdown(wait=True)
        counters = obs.snapshot()["counters"]
        assert counters["executor.delta_flush_failed"] == 1
        # shutdown itself still proceeded
        assert pool.shutdowns == [True]
        assert _executor._POOL is None

    def test_healthy_flush_not_counted(self, monkeypatch):
        class _QuietFuture:
            def result(self, timeout=None):
                return None

        class _QuietPool:
            def submit(self, fn, *args):
                return _QuietFuture()

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(_executor, "_POOL", _QuietPool())
        monkeypatch.setattr(_executor, "_POOL_WORKERS", 1)
        obs.enable()
        _executor.shutdown(wait=True)
        # obs.reset() zeroes counters without unregistering them, so a
        # prior test may have left the name behind — assert the value
        counters = obs.snapshot()["counters"]
        assert counters.get("executor.delta_flush_failed", 0) == 0
