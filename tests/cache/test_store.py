"""Tests for the cache stores (LRU tier, disk tier, facade, stats)."""

import numpy as np
import pytest

from repro.cache import ArtifactCache, CacheStats, LRUCache
from repro.store import MatrixStore
from repro.utils.exceptions import ConfigurationError


class TestCacheStats:
    def test_counters_and_hit_rate(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        stats.record_miss()
        stats.record_hit()
        stats.record_hit()
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_as_dict(self):
        stats = CacheStats(hits=3, misses=1, puts=2, evictions=1)
        snapshot = stats.as_dict()
        assert snapshot["hits"] == 3 and snapshot["evictions"] == 1


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(max_entries=4)
        cache.put("x", 1.5)
        assert cache.get("x") == 1.5
        assert cache.get("missing") is None
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_eviction_drops_least_recently_used(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.get("a")          # refresh "a" so "b" is the coldest entry
        cache.put("c", 3.0)
        assert cache.get("b") is None
        assert cache.get("a") == 1.0
        assert cache.get("c") == 3.0
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_overwrite_does_not_grow(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1.0)
        cache.put("a", 2.0)
        assert len(cache) == 1
        assert cache.get("a") == 2.0

    def test_arrays_are_isolated_from_callers(self):
        cache = LRUCache(max_entries=2)
        original = np.arange(4.0)
        cache.put("arr", original)
        original[0] = 99.0          # mutating the source must not reach the cache
        fetched = cache.get("arr")
        assert fetched[0] == 0.0
        fetched[1] = -1.0           # mutating a fetched copy must not either
        assert cache.get("arr")[1] == 1.0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            LRUCache(max_entries=0)


class TestDiskTier:
    def test_array_roundtrip_and_scalars_rejected(self, tmp_path):
        cache = MatrixStore(tmp_path)
        array = np.random.default_rng(0).random((3, 3))
        cache.put("sim:test:abc", array)
        assert np.array_equal(cache.get("sim:test:abc"), array)
        assert cache.get("unknown") is None
        with pytest.raises(TypeError):
            cache.put("proxy:test:def", 0.75)
        assert not list(tmp_path.glob("proxy*"))

    def test_put_writes_the_bytes_of_np_save(self, tmp_path):
        array = np.random.default_rng(1).random((4, 3))
        MatrixStore(tmp_path / "store").put("sim:k=5:abc", array)
        np.save(tmp_path / "reference.npy", array)
        published = (tmp_path / "store" / "sim_k=5_abc.npy").read_bytes()
        assert published == (tmp_path / "reference.npy").read_bytes()

    def test_clear_removes_files(self, tmp_path):
        cache = MatrixStore(tmp_path)
        cache.put("a", np.ones(2))
        cache.clear()
        assert cache.get("a") is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = MatrixStore(tmp_path)
        cache.put("a", np.ones(2))
        next(tmp_path.glob("*.npy")).write_bytes(b"not a npy file")
        assert cache.get("a") is None


class TestArtifactCache:
    def test_get_or_compute_computes_once(self):
        cache = ArtifactCache(max_entries=8)
        calls = []

        def compute():
            calls.append(1)
            return np.ones(3)

        first = cache.get_or_compute("k", compute)
        second = cache.get_or_compute("k", compute)
        assert len(calls) == 1
        assert np.array_equal(first, second)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_disabled_cache_never_stores(self):
        cache = ArtifactCache(max_entries=8, enabled=False)
        cache.put("k", 1.0)
        assert cache.get("k") is None
        assert len(cache.memory) == 0

    def test_disk_tier_promotion(self, tmp_path):
        writer = ArtifactCache(max_entries=8, disk_dir=tmp_path)
        writer.put("k", np.arange(3.0))
        # A fresh process (new memory tier, same directory) hits via disk.
        reader = ArtifactCache(max_entries=8, disk_dir=tmp_path)
        value = reader.get("k")
        assert np.array_equal(value, np.arange(3.0))
        # The disk hit is promoted into the memory tier.
        assert "k" in reader.memory

    def test_disk_and_memory_hits_are_plain_arrays(self, tmp_path):
        """np.memmap.copy() is still a memmap: a promoted disk hit must be
        read into a plain ndarray, or every later hit looks spilled."""
        ArtifactCache(max_entries=8, disk_dir=tmp_path).put("k", np.eye(3))
        reader = ArtifactCache(max_entries=8, disk_dir=tmp_path)
        disk_hit = reader.get("k")
        memory_hit = reader.get("k")
        assert type(disk_hit) is np.ndarray
        assert type(memory_hit) is np.ndarray
        assert reader.stats_report()["disk"]["hits"] == 1
        assert np.array_equal(memory_hit, np.eye(3))

    def test_warm_disk_tier_never_looks_spilled(self, tmp_path):
        """offline_matrices below the spill threshold keeps its matrices in
        RAM even when the cache serves them from a warm disk tier."""
        from repro.cluster.distance import offline_matrices
        from repro.core.config import SimilarityConfig
        from repro.core.performance import PerformanceMatrix

        values = np.random.default_rng(2).random((6, 5))
        matrix = PerformanceMatrix([f"d{i}" for i in range(6)], [f"m{j}" for j in range(5)], values)
        config = SimilarityConfig(store_dir=str(tmp_path / "spill"))
        offline_matrices(matrix, top_k=3, cache=ArtifactCache(disk_dir=tmp_path / "disk"), config=config)
        warm = ArtifactCache(disk_dir=tmp_path / "disk")
        for _ in range(2):  # the disk hit, then the promoted memory hit
            similarity, distance, work_store = offline_matrices(
                matrix, top_k=3, cache=warm, config=config
            )
            assert work_store is None
            assert type(similarity) is np.ndarray and type(distance) is np.ndarray
        assert warm.stats_report()["disk"]["hits"] == 2

    def test_scalar_put_with_disk_tier_raises_and_writes_nothing(self, tmp_path):
        cache = ArtifactCache(max_entries=8, disk_dir=tmp_path)
        with pytest.raises(TypeError):
            cache.put("k", 1.0)
        assert "k" not in cache.memory
        # The memory-only cache still takes any value.
        memory_only = ArtifactCache(max_entries=8)
        memory_only.put("k", 1.0)
        assert memory_only.get("k") == 1.0

    def test_stats_report_tiers(self, tmp_path):
        cache = ArtifactCache(max_entries=8, disk_dir=tmp_path)
        cache.put("k", np.ones(2))
        report = cache.stats_report()
        assert set(report) == {"memory", "disk"}
        assert report["memory"]["puts"] == 1
        assert report["disk"]["puts"] == 1


class TestDiskTierConcurrency:
    def test_concurrent_same_key_puts_publish_atomically(self, tmp_path):
        """Racing writers (docs/caching.md#concurrency-guarantees) never
        corrupt an entry: readers always load one writer's complete array."""
        import threading

        cache = MatrixStore(tmp_path)
        payloads = [np.full(64, float(i)) for i in range(8)]
        barrier = threading.Barrier(len(payloads), timeout=10)
        errors = []

        def writer(value):
            try:
                barrier.wait()
                cache.put("shared-key", value)
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        value = cache.get("shared-key")
        assert value is not None
        # The winning write is complete: all 64 entries equal one payload.
        assert any(np.array_equal(value, payload) for payload in payloads)
        # No temporary files leak.
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_clear_spares_a_live_writers_temp_file(self, tmp_path):
        """clear() beside an in-progress write: the commit still publishes."""
        store = MatrixStore(tmp_path)
        store.put("old", np.zeros(2))
        writer = store.create("sim:k=5:abc", (2, 2))
        writer.array[:] = 4.0
        store.clear()
        assert store.get("old") is None
        writer.commit()
        assert np.array_equal(store.get("sim:k=5:abc"), np.full((2, 2), 4.0))


class TestEviction:
    def test_lru_evict_key(self):
        cache = LRUCache(max_entries=4)
        cache.put("a", 1.0)
        assert cache.evict("a") is True
        assert cache.get("a") is None
        assert cache.evict("a") is False

    def test_lru_evict_matching(self):
        cache = LRUCache(max_entries=8)
        cache.put("sim:performance:k=5:abc123", 1.0)
        cache.put("dist:sim:performance:k=5:abc123", 2.0)
        cache.put("sim:performance:k=5:def456", 3.0)
        assert cache.evict_matching("abc123") == 2
        assert cache.get("sim:performance:k=5:def456") == 3.0
        assert cache.stats.evictions >= 2

    def test_disk_evict_key_and_matching(self, tmp_path):
        cache = MatrixStore(tmp_path)
        cache.put("sim:k=5:abc123", np.ones(4))
        cache.put("meta:abc123", np.arange(2))
        cache.put("sim:k=5:def456", np.zeros(4))
        assert cache.evict("sim:k=5:abc123") is True
        assert cache.get("sim:k=5:abc123") is None
        assert cache.evict_matching("abc123") == 1  # the meta entry
        assert cache.get("meta:abc123") is None
        assert cache.get("sim:k=5:def456") is not None
        assert cache.stats.evictions == 2

    def test_artifact_cache_evicts_all_tiers(self, tmp_path):
        cache = ArtifactCache(max_entries=8, disk_dir=tmp_path)
        cache.put("sim:abc123", np.ones(3))
        cache.put("sim:def456", np.ones(3))
        assert cache.evict_matching("abc123") == 1
        # Neither tier serves the evicted entry any more.
        assert cache.get("sim:abc123") is None
        assert cache.get("sim:def456") is not None
        assert cache.evict("sim:def456") is True
        assert cache.get("sim:def456") is None


class TestDiskTierEdgeCases:
    """Edge cases of the persistent tier under memmapped readers and damage."""

    def test_get_returns_read_only_memmap(self, tmp_path):
        cache = MatrixStore(tmp_path)
        payload = np.arange(6.0).reshape(2, 3)
        cache.put("sim:k=5:abc", payload)
        mapped = cache.get("sim:k=5:abc")
        assert isinstance(mapped, np.memmap)
        assert np.array_equal(mapped, payload)
        assert not mapped.flags.writeable

    def test_evict_while_reader_holds_memmap(self, tmp_path):
        cache = MatrixStore(tmp_path)
        cache.put("sim:k=5:abc", np.full((4, 4), 2.5))
        reader = cache.get("sim:k=5:abc")
        assert cache.evict("sim:k=5:abc") is True
        # POSIX unlink: the live mapping still reads the old bytes ...
        assert float(reader[3, 3]) == 2.5
        assert float(reader.sum()) == 40.0
        # ... while new lookups are misses until the entry is re-put.
        assert cache.get("sim:k=5:abc") is None
        cache.put("sim:k=5:abc", np.zeros((4, 4)))
        assert float(cache.get("sim:k=5:abc").sum()) == 0.0

    def test_evict_matching_while_reader_holds_memmap(self, tmp_path):
        cache = MatrixStore(tmp_path)
        cache.put("sim:k=5:abc123", np.ones(8))
        reader = cache.get("sim:k=5:abc123")
        assert cache.evict_matching("abc123") == 1
        assert float(reader.sum()) == 8.0
        assert cache.get("sim:k=5:abc123") is None

    def test_evict_matching_on_empty_disk_tier(self, tmp_path):
        cache = MatrixStore(tmp_path / "never-written")
        assert cache.evict_matching("anything") == 0
        assert cache.stats.evictions == 0
        # Same through the facade with an empty disk directory.
        facade = ArtifactCache(max_entries=4, disk_dir=tmp_path / "empty")
        assert facade.evict_matching("anything") == 0

    def test_corrupted_file_recovery_on_get(self, tmp_path):
        cache = MatrixStore(tmp_path)
        cache.put("sim:k=5:abc", np.ones(3))
        misses_before = cache.stats.misses
        path = next(tmp_path.glob("*.npy"))
        path.write_bytes(b"\x93NUMPY corrupted beyond repair")
        # The damaged entry reads as a miss (recorded), not an exception ...
        assert cache.get("sim:k=5:abc") is None
        assert cache.stats.misses == misses_before + 1
        # ... and the standard recompute-and-put cycle heals the slot.
        cache.put("sim:k=5:abc", np.full(3, 7.0))
        assert np.array_equal(cache.get("sim:k=5:abc"), np.full(3, 7.0))


class TestTempFileSweep:
    """Orphaned-writer cleanup: a killed publisher must never leak or corrupt."""

    @staticmethod
    def _dead_pid():
        """A pid guaranteed to name no live process (spawned, exited, reaped)."""
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_startup_sweep_removes_dead_writer_temp_files(self, tmp_path):
        dead = self._dead_pid()
        orphan = tmp_path / f"sim_k_5_abc.npy.tmp-{dead}-140210"
        orphan.write_bytes(b"half-written")
        cache = MatrixStore(tmp_path)
        assert cache.swept_temp_files == 1
        assert not orphan.exists()

    def test_live_writer_temp_files_are_spared(self, tmp_path):
        import os

        ours = tmp_path / f"sim_k_5_abc.npy.tmp-{os.getpid()}-140210"
        ours.write_bytes(b"mid-publish")
        cache = MatrixStore(tmp_path)
        assert cache.swept_temp_files == 0
        assert ours.exists()

    def test_non_temp_files_are_never_swept(self, tmp_path):
        dead = self._dead_pid()
        cache = MatrixStore(tmp_path)
        cache.put("sim:x", np.ones(2))
        published = list(tmp_path.glob("*.npy"))
        stale = tmp_path / f"sim_y.npy.tmp-{dead}-9"
        stale.write_bytes(b"")
        assert MatrixStore(tmp_path).swept_temp_files == 1
        assert all(path.exists() for path in published)

    def test_killed_writer_never_corrupts_reader(self, tmp_path):
        """The published value survives a writer killed mid-publish."""
        import numpy as np

        cache = MatrixStore(tmp_path)
        cache.put("sim:k=5:abc", np.full(4, 2.0))
        path = next(tmp_path.glob("*.npy"))
        # A writer died after writing its temp file but before os.replace.
        dead = self._dead_pid()
        (tmp_path / f"{path.name}.tmp-{dead}-7").write_bytes(b"\x00garbage")
        reopened = MatrixStore(tmp_path)
        assert reopened.swept_temp_files == 1
        assert np.array_equal(reopened.get("sim:k=5:abc"), np.full(4, 2.0))
