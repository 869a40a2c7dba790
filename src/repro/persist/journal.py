"""Append-only, checksummed journal of one selection plan's progress.

A :class:`PlanJournal` is a JSON-lines file in which every line is one
self-validating record::

    {"seq": 3, "type": "step", "payload": {...}, "check": "<sha-16>"}

``check`` is the content fingerprint of ``(seq, type, payload)``, so a
reader can detect any torn, truncated or garbled record without trusting
file length or flush ordering.  Records are only ever appended; recovery
reads the longest valid prefix and silently drops the tail beyond the
first invalid record — exactly the contract a crashed writer needs (a
process killed mid-append leaves at most one partial final line, which the
checksum rejects).

The journal is the durable half of the crash-safety story: session
snapshots (see :class:`~repro.persist.store.PlanStore`) make the training
state restorable, and the journal records which steps a request has
*already been charged for*, so a restart replays them instead of paying
their epochs again.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.cache.keys import fingerprint_text
from repro.persist.hooks import fire_crash_point
from repro.store.matrix import _writer_suffix

#: Record types written by the scheduler's persistence path.  ``prune``
#: records document speculative early-stop decisions (audit trail only —
#: replay re-derives the prune set deterministically from the ``step``
#: records, so an old journal without them still resumes correctly).
RECORD_TYPES = ("request", "recall", "step", "stage", "result", "prune")


def _checksum(seq: int, record_type: str, payload: Dict[str, object]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return fingerprint_text(str(seq), record_type, canonical)


def encode_record(seq: int, record_type: str, payload: Dict[str, object]) -> str:
    """One journal line (no trailing newline) for ``(seq, type, payload)``."""
    return json.dumps(
        {
            "seq": seq,
            "type": record_type,
            "payload": payload,
            "check": _checksum(seq, record_type, payload),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def decode_record(line: str, expected_seq: int) -> Optional[Dict[str, object]]:
    """Parse and validate one journal line; ``None`` when invalid.

    A record is valid only when it parses as JSON, carries the expected
    sequence number (append-only files cannot skip or repeat) and its
    checksum matches the recomputed fingerprint of its contents.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    seq, record_type, payload = (
        record.get("seq"),
        record.get("type"),
        record.get("payload"),
    )
    if seq != expected_seq or not isinstance(record_type, str):
        return None
    if not isinstance(payload, dict):
        return None
    if record.get("check") != _checksum(seq, record_type, payload):
        return None
    return record


class PlanJournal:
    """Append-only journal file of one selection request.

    Parameters
    ----------
    path:
        Journal file (created on the first append).
    fsync:
        When true every append is forced to stable storage with
        :func:`os.fsync` — survives power loss, not just process death.
        The default (false) flushes to the OS, which is sufficient for
        the crash model the fault harness tests (``SIGKILL``).
    """

    def __init__(self, path: Union[str, Path], *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._records, self._dropped = self._read_valid_prefix()
        if self._dropped:
            # Compact the file down to its valid prefix: future appends
            # must land *after* the last valid record, not beyond a
            # garbage line the next recovery would refuse to read past.
            try:
                self._rewrite_prefix()
            except OSError:
                # Read-only store: reads still serve the valid prefix;
                # only a journal that is appended to must be compacted.
                pass

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def _read_valid_prefix(self) -> Tuple[List[Dict[str, object]], int]:
        if not self.path.exists():
            return [], 0
        records: List[Dict[str, object]] = []
        dropped = 0
        with open(self.path, "r", encoding="utf-8", errors="replace") as handle:
            lines = handle.read().splitlines()
        for line in lines:
            if not line.strip():
                continue
            record = decode_record(line, expected_seq=len(records))
            if record is None:
                # First invalid record: everything after it is untrusted.
                dropped = len(lines) - len(records)
                break
            records.append(record)
        return records, dropped

    def _rewrite_prefix(self) -> None:
        """Atomically rewrite the file as exactly the valid prefix.

        Crash-safe itself: the prefix is written to a writer-unique temp
        file and moved into place with ``os.replace``, so dying mid-rewrite
        leaves either the old file (tail still dropped on the next read)
        or the compacted one — never a shorter-than-prefix journal.
        """
        tmp = self.path.with_name(self.path.name + _writer_suffix())
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in self._records:
                handle.write(
                    encode_record(record["seq"], record["type"], record["payload"])
                    + "\n"
                )
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    @property
    def records(self) -> List[Dict[str, object]]:
        """Validated records, in append order (the journal's valid prefix)."""
        return list(self._records)

    @property
    def dropped_records(self) -> int:
        """Lines beyond the valid prefix that recovery discarded."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._records)

    def of_type(self, record_type: str) -> List[Dict[str, object]]:
        """Validated records of one type, in append order."""
        return [r for r in self._records if r["type"] == record_type]

    def last_of_type(self, record_type: str) -> Optional[Dict[str, object]]:
        """Most recent validated record of one type (or ``None``)."""
        for record in reversed(self._records):
            if record["type"] == record_type:
                return record
        return None

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def append(self, record_type: str, payload: Dict[str, object]) -> Dict[str, object]:
        """Durably append one record; returns the record as stored.

        The write is a single ``write()`` of one full line to a file opened
        in append mode, so concurrent appends from one process never
        interleave partially, and a crash mid-write leaves only a torn
        final line that the checksum drops on recovery.
        """
        if record_type not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type {record_type!r}")
        seq = len(self._records)
        line = encode_record(seq, record_type, payload)
        fire_crash_point(
            "journal.append", path=str(self.path), type=record_type, seq=seq
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            fire_crash_point(
                "journal.flush", path=str(self.path), type=record_type, seq=seq
            )
            if self.fsync:
                os.fsync(handle.fileno())
        record = {"seq": seq, "type": record_type, "payload": payload}
        self._records.append(record)
        return record
