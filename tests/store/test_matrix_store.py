"""Unit tests of the memory-mapped matrix store (`repro.store`)."""

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.store import (
    MatrixStore,
    get_store,
    iter_row_blocks,
    peek_store,
    resolve_store,
)
from repro.utils.exceptions import ConfigurationError, DataError


@pytest.fixture()
def store(tmp_path):
    return MatrixStore(tmp_path / "store")


def test_tilde_root_expands_to_home(tmp_path, monkeypatch):
    """A ``~`` root (as in ``cache.configure(disk_dir="~/...")``) lands under
    ``$HOME``, never in a literal ``./~`` directory of the working directory."""
    home, work = tmp_path / "home", tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(work)
    store = MatrixStore("~/.cache/repro")
    assert store.root == home / ".cache" / "repro"
    assert store.root.is_dir()
    assert ArtifactCache(disk_dir="~/cache").disk.root == home / "cache"
    assert not (work / "~").exists()


def test_iter_row_blocks_covers_every_row():
    assert list(iter_row_blocks(5, 2)) == [(0, 2), (2, 4), (4, 5)]
    assert list(iter_row_blocks(0, 4)) == []
    assert list(iter_row_blocks(3, 10)) == [(0, 3)]


def test_iter_row_blocks_rejects_bad_block():
    with pytest.raises(ConfigurationError):
        list(iter_row_blocks(4, 0))


def test_create_commit_open_roundtrip(store):
    writer = store.create("sim:performance:k=5:abc", (3, 3))
    writer.array[:] = np.arange(9.0).reshape(3, 3)
    published = writer.commit()
    assert isinstance(published, np.memmap)
    reopened = store.get("sim:performance:k=5:abc")
    assert np.array_equal(reopened, np.arange(9.0).reshape(3, 3))
    assert "sim:performance:k=5:abc" in store
    # Published maps are read-only.
    with pytest.raises(ValueError):
        reopened[0, 0] = 1.0


def test_commit_is_atomic_no_partial_file_visible(store):
    writer = store.create("key", (2, 2))
    writer.array[:] = 1.0
    # Until commit, get() misses: only the tmp file exists.
    assert store.get("key") is None
    writer.commit()
    assert store.get("key") is not None


def test_abort_discards_tmp_file(store):
    writer = store.create("key", (2, 2))
    tmp = writer.tmp_path
    assert tmp.exists()
    writer.abort()
    assert not tmp.exists()
    assert store.get("key") is None


def test_key_sanitisation_matches_disk_cache(store, tmp_path):
    """One cache key names the same file in the cache's disk tier (itself a
    MatrixStore) and in a spill store."""
    key = "sim:performance:k=5:0123abcd"
    ArtifactCache(disk_dir=tmp_path / "cache").put(key, np.zeros((2, 2)))
    cache_file = next((tmp_path / "cache").glob("*.npy"))
    assert store.path_for(key).name == cache_file.name == "sim_performance_k=5_0123abcd.npy"


def test_open_corrupt_file_behaves_like_miss(store):
    path = store.path_for("broken")
    path.write_bytes(b"this is not a npy file")
    assert store.get("broken") is None
    # And the slot is recoverable by writing again.
    writer = store.create("broken", (1, 1))
    writer.array[:] = 7.0
    writer.commit()
    assert float(store.get("broken")[0, 0]) == 7.0


def test_evict_while_reader_holds_map(store):
    writer = store.create("key", (2, 2))
    writer.array[:] = 3.0
    reader = writer.commit()
    assert store.evict("key") is True
    # POSIX unlink: the held mapping stays valid until released...
    assert float(reader[1, 1]) == 3.0
    # ...but new lookups miss.
    assert store.get("key") is None
    assert store.evict("key") is False


def test_evict_matching_by_fingerprint_fragment(store):
    for fingerprint in ("aaa111", "bbb222"):
        for kind in ("sim:performance:k=5:", "dist:sim:performance:k=5:"):
            writer = store.create(kind + fingerprint, (1, 1))
            writer.array[:] = 0.0
            writer.commit()
    assert store.evict_matching("aaa111") == 2
    assert store.get("sim:performance:k=5:aaa111") is None
    assert store.get("sim:performance:k=5:bbb222") is not None
    assert store.evict_matching("nothing-here") == 0


def _dead_pid():
    """A pid that names no live process (spawned, exited and reaped)."""
    import subprocess
    import sys

    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_clear_removes_published_and_tmp_files(store):
    writer = store.create("a", (1, 1))
    writer.array[:] = 0.0
    writer.commit()
    # A writer that died before committing.
    dangling = store.root / f"b.npy.tmp-{_dead_pid()}-1"
    dangling.write_bytes(b"half-written")
    store.clear()
    assert store.get("a") is None
    assert not dangling.exists()


def test_startup_sweeps_dead_writer_tmp_files_and_spares_live_ones(tmp_path):
    """A build killed mid-write must not leak its 8 n^2 byte temp file."""
    import os

    root = tmp_path / "store"
    root.mkdir()
    orphan = root / f"sim_performance_k=5_abc.npy.tmp-{_dead_pid()}-140210"
    orphan.write_bytes(b"half-written")
    ours = root / f"sim_performance_k=5_def.npy.tmp-{os.getpid()}-140210"
    ours.write_bytes(b"mid-publish")
    store = MatrixStore(root)
    assert store.swept_temp_files == 1
    assert not orphan.exists()
    assert ours.exists()


def test_scratch_matrix_is_deleted_on_close(store):
    scratch = store.scratch((2, 2))
    scratch.array[:] = 5.0
    path = scratch.path
    assert path.exists()
    scratch.close()
    assert not path.exists()


def test_killed_process_scratch_matrix_is_swept(tmp_path):
    """A clustering killed mid-merge leaves a scratch file that the next
    store over the directory reclaims; it never counts as a published matrix."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    root = tmp_path / "store"
    child = (
        "import os, sys\n"
        "from repro.store import MatrixStore\n"
        "scratch = MatrixStore(sys.argv[1]).scratch((64, 64), prefix='nnchain')\n"
        "scratch.array[:] = 1.0\n"
        "os._exit(0)\n"
    )
    subprocess.run(
        [sys.executable, "-c", child, str(root)],
        check=True,
        env=dict(os.environ, PYTHONPATH=src_dir),
    )
    assert [path.name.startswith("nnchain-") for path in root.iterdir()] == [True]
    reopened = MatrixStore(root)
    assert reopened.swept_temp_files == 1
    assert not list(root.iterdir())


def test_scratch_matrix_context_manager(store):
    with store.scratch((2, 2)) as work:
        work[:] = 1.0
        assert work.sum() == 4.0


def test_resolve_store_variants(store, tmp_path):
    assert resolve_store(store) is store
    resolved = resolve_store(tmp_path / "elsewhere")
    assert isinstance(resolved, MatrixStore)
    with pytest.raises(DataError):
        resolve_store(42)


def test_default_store_from_env(tmp_path, monkeypatch):
    import repro.store.matrix as matrix_module

    monkeypatch.setattr(matrix_module, "_default_store", None)
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "persistent"))
    assert get_store().root == tmp_path / "persistent"
    assert peek_store() is get_store()


def test_peek_store_never_builds_one(monkeypatch):
    import repro.store.matrix as matrix_module

    monkeypatch.setattr(matrix_module, "_default_store", None)
    assert peek_store() is None
