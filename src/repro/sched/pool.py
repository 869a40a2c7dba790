"""Session pool: share partially-trained fine-tuning sessions across requests.

Fine-tuning is the online phase's entire cost, and it is a *pure function*
of ``(zoo version, model, task, epoch count)``: every session draws from a
per-``(model, task)`` named random stream (see
:class:`~repro.zoo.finetune.FineTuner`), so two requests fine-tuning the
same checkpoint on the same task produce byte-identical learning curves.
:class:`SessionPool` exploits that: it memoises live
:class:`~repro.zoo.finetune.FineTuneSession` objects under
:func:`repro.cache.session_key` identities, hands each request a
:class:`~repro.core.plan.SessionView` onto the shared session, and only
ever trains the epochs *beyond* what the session has already recorded.
Concurrent and repeated requests thus reuse each other's partially-trained
checkpoints — the scheduler's main throughput win, and one that pays off
on a single CPU.

Sessions are live training state, not immutable artifacts, so they live in
this dedicated pool rather than in the artifact LRU/disk tiers of
:mod:`repro.cache`; only the key *identities* are shared with the cache
subsystem.  The zoo version is part of every key, so a repository refresh
implicitly invalidates the superseded version's sessions —
:meth:`SessionPool.evict_version` then reclaims their memory eagerly, the
pool counterpart of ``ArtifactCache.evict_matching`` in the refresh sweep.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.cache import fingerprint_model, fingerprint_task, fingerprint_tuner, session_key
from repro.core.plan import SessionView
from repro.data.tasks import ClassificationTask
from repro.persist.store import Snapshot
from repro.utils.exceptions import SelectionError
from repro.zoo.finetune import FineTuneSession, FineTuner
from repro.zoo.models import PretrainedModel


class PoolEntry:
    """One memoised fine-tuning lineage: the latest shared checkpoint.

    ``session`` only ever advances (training is append-only), and
    :meth:`ensure_epochs` serialises concurrent advancement under the
    entry lock, so readers holding a
    :class:`~repro.core.plan.SessionView` at an earlier epoch are never
    invalidated — their reads index the recorded curve prefix.
    """

    def __init__(self, key: str, session: FineTuneSession) -> None:
        self.key = key
        self.session = session
        self.lock = threading.Lock()
        #: Requests currently holding a view on this entry.
        self.leases = 0

    @property
    def epochs_trained(self) -> int:
        """Epochs the shared session has recorded so far."""
        return self.session.epochs_trained

    def ensure_epochs(self, target: int) -> int:
        """Train the shared session forward to ``target`` epochs (if behind).

        Returns the number of epochs actually trained (0 on a full reuse).
        Safe under concurrency: the entry lock serialises trainers, and a
        session that is already at or past ``target`` is left untouched.
        """
        with self.lock:
            delta = target - self.session.epochs_trained
            if delta > 0:
                self.session.train_epochs(delta)
            return max(0, delta)


class PooledSessionView(SessionView):
    """A request's view onto a pooled (shared) session."""

    def __init__(self, entry: PoolEntry) -> None:
        super().__init__(entry.session)
        self.entry = entry


class SessionPool:
    """Memoise fine-tuning sessions by ``(zoo_version, model, task)``.

    Parameters
    ----------
    fine_tuner:
        Engine starting missing sessions.  One pool serves one tuner
        configuration — the tuner's named random streams are what make
        pooled sessions interchangeable with private ones.
    max_sessions:
        Bound on memoised lineages.  Least-recently-used entries *without
        active leases* are evicted past the bound; leased entries are
        never dropped (their holders keep training them).
    """

    def __init__(self, fine_tuner: FineTuner, *, max_sessions: int = 512) -> None:
        if max_sessions < 1:
            raise SelectionError("max_sessions must be >= 1")
        self.fine_tuner = fine_tuner
        #: Identity of the tuner's sessions; a snapshot is adopted only
        #: when it was trained under the same fingerprint.
        self.tuner_fingerprint = fingerprint_tuner(fine_tuner)
        self.max_sessions = int(max_sessions)
        self._entries: "OrderedDict[str, PoolEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._epochs_trained = 0
        self._epochs_reused = 0
        self._evicted = 0
        self._restored = 0

    # ------------------------------------------------------------------ #
    # acquisition and release
    # ------------------------------------------------------------------ #
    def acquire(
        self,
        model: PretrainedModel,
        task: ClassificationTask,
        *,
        version_key: str,
        loader: Optional[Callable[[str], Optional[Snapshot]]] = None,
    ) -> PooledSessionView:
        """Lease a view on the ``(version, model, task)`` session lineage.

        A pool hit returns a view positioned at epoch 0 over the existing
        (possibly already-trained) shared session; a miss starts a fresh
        session through the pool's fine-tuner.  ``loader``, when given, is
        consulted with the session key on a miss — the durable
        :class:`~repro.persist.store.PlanStore` passes its snapshot loader
        here.  A ``(tuner_fingerprint, head, curve)`` snapshot trained under
        this pool's tuner replaces the fresh session's head and curve, so a
        restarted process keeps the epochs a previous one already paid for.
        """
        # Whole-task identity: a re-split task (same train split, other
        # val/test labels) must never read this task's validation curves.
        key = session_key(
            version_key,
            fingerprint_model(model),
            fingerprint_task(task, split="all"),
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                session = self.fine_tuner.start_session(model, task)
                snapshot = loader(key) if loader is not None else None
                if snapshot is not None and snapshot[0] == self.tuner_fingerprint:
                    session.head, session.curve = snapshot[1], snapshot[2]
                    self._restored += 1
                entry = PoolEntry(key, session)
                self._entries[key] = entry
                self._misses += 1
                self._evict_over_bound()
            entry.leases += 1
        return PooledSessionView(entry)

    def release(self, view: PooledSessionView) -> None:
        """Return a leased view (entry becomes evictable at zero leases)."""
        with self._lock:
            view.entry.leases = max(0, view.entry.leases - 1)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def record_round(self, *, charged: int, trained: int) -> None:
        """Account one externally executed scheduling round.

        Used by :class:`~repro.sched.scheduler.EpochScheduler`, which runs
        the training ops itself (deduplicated across requests): ``charged`` is the epochs billed to requests,
        ``trained`` the epochs actually spent; the difference is the
        pool's session-reuse saving.
        """
        with self._lock:
            self._epochs_trained += int(trained)
            self._epochs_reused += int(charged) - int(trained)

    # ------------------------------------------------------------------ #
    # eviction and stats
    # ------------------------------------------------------------------ #
    def _evict_over_bound(self) -> None:
        # Caller holds self._lock.
        while len(self._entries) > self.max_sessions:
            for key, entry in self._entries.items():
                if entry.leases == 0:
                    del self._entries[key]
                    self._evicted += 1
                    break
            else:
                return  # every entry is leased; nothing can go

    def evict_version(self, version_key: str) -> int:
        """Drop every idle session of one zoo version; return the count."""
        return self.evict_matching(f"zoo={version_key}:")

    def evict_matching(self, fragment: str) -> int:
        """Drop idle sessions whose key contains ``fragment``."""
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if fragment in key and entry.leases == 0
            ]
            for key in doomed:
                del self._entries[key]
            self._evicted += len(doomed)
            return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/reuse counters of the pool.

        ``epochs_reused`` is the training the pool avoided: epochs charged
        to requests but served from an already-trained session prefix.
        """
        with self._lock:
            return {
                "sessions": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "epochs_trained": self._epochs_trained,
                "epochs_reused": self._epochs_reused,
                "evicted": self._evicted,
                "restored": self._restored,
            }
