"""Failure-path tests for the shard executor and the LRU cache.

- a shard that raises mid-batch must fail the *whole* dispatch with the
  original exception and its type — never a partial merge, never a
  silent re-run — with NumPy and on the no-NumPy fallback;
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
from repro.errors import NotAPowerOfTwoError


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _rows(order, batch, seed=0):
    rng = random.Random(seed)
    return [random_permutation(1 << order, rng).as_tuple()
            for _ in range(batch)]


class TestThreadShardFailures:
    """Shard failures on the no-NumPy fallback."""

    @pytest.fixture
    def thread_sharding(self, monkeypatch):
        """Force the pure-Python kernels, with a threshold low enough
        that tiny test batches shard."""
        monkeypatch.setattr(_np_seam, "FORCE_FALLBACK", True)
        monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 2)

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
        with pytest.raises(ValueError):
            batch_in_class_f(_rows(2, 8), parallel=2)
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

    def test_worker_exception_propagates_with_type(self,
                                                   thread_sharding):
        # width 3 passes the dispatcher untouched and explodes inside
        # the shard's own validation — a genuine task failure
        with pytest.raises(NotAPowerOfTwoError):
            _executor.dispatch("in_class_f", [[0, 1, 2]] * 8,
                               parallel=2)


@pytest.mark.skipif(not have_numpy(), reason="NumPy absent")
class TestThreadShardFailuresNumpy(TestThreadShardFailures):
    """The same failures with the NumPy kernels in the shards."""

    @pytest.fixture
    def thread_sharding(self, monkeypatch):
        monkeypatch.setattr(_executor, "SHARD_THRESHOLD", 2)


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
