"""Durable plan store: journals plus atomically-published session snapshots.

:class:`PlanStore` owns one directory with two key families, both named by
the content-hash keys of :mod:`repro.cache`:

* ``journals/<plan-key>.jsonl`` — one append-only
  :class:`~repro.persist.journal.PlanJournal` per selection request,
  keyed by :func:`repro.cache.plan_key` (zoo version, task fingerprint,
  policy, ``top_k``);
* ``sessions/<session-key>.pkl`` — the latest snapshot of each shared
  fine-tuning session lineage, keyed by :func:`repro.cache.session_key`.
  A snapshot holds only what training changes: the pickled record
  ``(fingerprint_tuner(tuner), head, curve)``.  A restarted pool starts
  the session afresh from the live hub and task, then adopts the head and
  curve when the tuner fingerprint is its own, so the restored session
  continues training bitwise-identically to one that never left memory.

Snapshots are published like :class:`~repro.store.MatrixStore` entries:
written to a writer-unique temporary file and moved into place with an
atomic :func:`os.replace`, so a reader can never observe a half-written
snapshot and a killed writer leaves only a stale temp file — which
:meth:`PlanStore.sweep_temp_files` removes on the next startup (temp files
embed the writer's pid; only files of dead processes are swept, so a live
writer sharing the directory is never disturbed).

Both key families embed the zoo version (``zoo=<version>``), which is what
makes :meth:`evict_version` — the refresh-time invalidation sweep — a
filename fragment match, exactly like the artifact cache's.
"""

from __future__ import annotations

import os
import pickle
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.persist.hooks import fire_crash_point
from repro.persist.journal import PlanJournal
from repro.store.matrix import _UNSAFE_FILENAME, _writer_suffix, sweep_stale_temp_files

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.network import MLPClassifier
    from repro.zoo.finetune import FineTuneSession, LearningCurve

#: A published session snapshot: ``(tuner fingerprint, head, curve)``.
Snapshot = Tuple[str, "MLPClassifier", "LearningCurve"]


class PlanStore:
    """Directory of plan journals and session snapshots for one deployment.

    Parameters
    ----------
    directory:
        Root directory (created if missing); ``journals/`` and
        ``sessions/`` live under it.
    fsync:
        Forwarded to every :class:`PlanJournal` (see there); snapshot
        publishes always use atomic replace regardless.
    """

    def __init__(self, directory: Union[str, Path], *, fsync: bool = False) -> None:
        self.directory = Path(directory)
        self.fsync = bool(fsync)
        self.journals_dir = self.directory / "journals"
        self.sessions_dir = self.directory / "sessions"
        self.journals_dir.mkdir(parents=True, exist_ok=True)
        self.sessions_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._journals: Dict[str, PlanJournal] = {}
        #: Epoch count of the last published snapshot per session key —
        #: skips republishing a session no round has advanced.
        self._published_epochs: Dict[str, int] = {}
        self.swept_temp_files = self.sweep_temp_files()

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def _safe_name(self, key: str) -> str:
        return _UNSAFE_FILENAME.sub("_", key)

    def journal_path(self, plan_key: str) -> Path:
        """On-disk path of the journal for ``plan_key``."""
        return self.journals_dir / f"{self._safe_name(plan_key)}.jsonl"

    def session_path(self, session_key: str) -> Path:
        """On-disk path of the snapshot for ``session_key``."""
        return self.sessions_dir / f"{self._safe_name(session_key)}.pkl"

    # ------------------------------------------------------------------ #
    # journals
    # ------------------------------------------------------------------ #
    def journal(self, plan_key: str) -> PlanJournal:
        """The (cached) journal of one plan key, reading any existing file."""
        with self._lock:
            journal = self._journals.get(plan_key)
            if journal is None:
                journal = PlanJournal(self.journal_path(plan_key), fsync=self.fsync)
                self._journals[plan_key] = journal
            return journal

    def journal_paths(self) -> List[Path]:
        """Every journal file currently in the store (sorted for determinism)."""
        return sorted(self.journals_dir.glob("*.jsonl"))

    # ------------------------------------------------------------------ #
    # session snapshots
    # ------------------------------------------------------------------ #
    def save_session(
        self, session_key: str, tuner_fingerprint: str, session: FineTuneSession
    ) -> bool:
        """Publish ``(tuner_fingerprint, head, curve)`` of one lineage (atomic).

        Skips the write when the session has not advanced past the last
        snapshot this store published.  Returns whether one was written.
        """
        epochs = session.epochs_trained
        with self._lock:
            if self._published_epochs.get(session_key, -1) >= epochs:
                return False
        record = pickle.dumps(
            (tuner_fingerprint, session.head, session.curve),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        final = self.session_path(session_key)
        tmp = final.with_name(final.name + _writer_suffix())
        with open(tmp, "wb") as handle:
            handle.write(record)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        fire_crash_point("publish", key=session_key, epochs=epochs)
        os.replace(tmp, final)
        with self._lock:
            self._published_epochs[session_key] = epochs
        return True

    def load_session(self, session_key: str) -> Optional[Snapshot]:
        """The ``(tuner_fingerprint, head, curve)`` snapshot of ``session_key``.

        A missing, truncated, unreadable or old-format snapshot is
        ``None`` — the caller trains a fresh session and replays from the
        journal's accounting instead of crashing recovery.
        """
        try:
            with open(self.session_path(session_key), "rb") as handle:
                record = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        if not (isinstance(record, tuple) and len(record) == 3):
            return None
        return record

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def sweep_temp_files(self) -> int:
        """Remove orphaned temp files of dead writers in both directories."""
        return sweep_stale_temp_files(self.journals_dir) + sweep_stale_temp_files(
            self.sessions_dir
        )

    def evict_version(self, version_key: str) -> int:
        """Drop every journal and snapshot of one zoo version.

        Plan and session keys both embed ``zoo=<version>``, so the sweep is
        a filename fragment match (the fragment is sanitised exactly like
        the keys were).  Returns the number of files removed.  This is the
        persistence leg of the refresh-time invalidation sweep — journals
        of a superseded version could never be resumed anyway (their
        version check would reject them), so they are reclaimed eagerly.
        """
        fragment = self._safe_name(f"zoo={version_key}:")
        removed = 0
        with self._lock:
            stale = [key for key in self._journals if fragment in self._safe_name(key)]
            for key in stale:
                del self._journals[key]
            stale_sessions = [
                key for key in self._published_epochs
                if fragment in self._safe_name(key)
            ]
            for key in stale_sessions:
                del self._published_epochs[key]
        for directory, suffix in ((self.journals_dir, ".jsonl"),
                                  (self.sessions_dir, ".pkl")):
            for path in directory.glob(f"*{suffix}"):
                if fragment in path.name:
                    path.unlink(missing_ok=True)
                    removed += 1
        return removed

    def stats(self) -> Dict[str, int]:
        """Counts of stored journals/snapshots plus the startup sweep tally."""
        return {
            "journals": len(self.journal_paths()),
            "sessions": len(list(self.sessions_dir.glob("*.pkl"))),
            "swept_temp_files": self.swept_temp_files,
        }
