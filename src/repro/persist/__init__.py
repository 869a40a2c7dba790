"""Crash-safe persistence of selection plans and fine-tuning sessions.

The online phase charges real fine-tuning epochs per request, so a crashed
server that restarts from scratch re-pays every epoch already spent.  This
package makes selection requests durable instead:

* :class:`~repro.persist.journal.PlanJournal` — an append-only,
  checksummed JSON-lines journal recording one request's admission,
  recall outcome, every charged training step, every stage transition and
  the final result.  Recovery reads the longest valid prefix; torn tails
  from a crash are detected by per-record checksums and dropped.
* :class:`~repro.persist.store.PlanStore` — the on-disk store pairing
  journals with atomically-published session snapshots (the pickled
  ``(tuner fingerprint, head, curve)`` of each session, keyed by
  :func:`repro.cache.session_key`), plus the startup sweep for orphaned
  temp files and the refresh-time ``evict_version`` sweep.
* :mod:`~repro.persist.recovery` — the startup scan classifying journaled
  requests as completed or pending, so a restarted scheduler resubmits
  exactly the in-flight work.
* :mod:`~repro.persist.hooks` — named crash points
  (``plan.step``/``journal.append``/``publish`` …) the fault-injection
  harness uses to kill the process at every durability boundary.

Together these give the three crash-safety properties the fault harness
proves (see ``docs/persistence.md``): a killed server resumes in-flight
requests bitwise-identically without retraining journaled epochs, clients
can ask for the current best candidate at any time, and a finished request
whose budget is later raised continues from its old rungs.
"""

from repro.persist.codec import (
    decode_recall,
    decode_result,
    decode_selection,
    decode_stage,
    encode_recall,
    encode_result,
    encode_selection,
    encode_stage,
)
from repro.persist.hooks import (
    SimulatedCrash,
    arm_exit_from_env,
    clear_hooks,
    fire_crash_point,
    install_hook,
    remove_hook,
)
from repro.persist.journal import PlanJournal
from repro.persist.recovery import (
    RecoveredRequest,
    pending_requests,
    scan_store,
    store_summary,
)
from repro.persist.store import PlanStore, sweep_stale_temp_files

__all__ = [
    "PlanJournal",
    "PlanStore",
    "RecoveredRequest",
    "SimulatedCrash",
    "arm_exit_from_env",
    "clear_hooks",
    "decode_recall",
    "decode_result",
    "decode_selection",
    "decode_stage",
    "encode_recall",
    "encode_result",
    "encode_selection",
    "encode_stage",
    "fire_crash_point",
    "install_hook",
    "pending_requests",
    "remove_hook",
    "scan_store",
    "store_summary",
    "sweep_stale_temp_files",
]
