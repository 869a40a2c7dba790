"""On-disk corruption recovery: torn tails, garbage, foreign journals.

A crash model stronger than clean process death: the journal file itself
is damaged (torn final line, bit-flipped record, arbitrary garbage).  The
per-record checksums must confine the damage — recovery keeps the longest
valid prefix, drops the rest, and the resumed run still ends bitwise-equal
to the never-crashed oracle (it merely re-pays the dropped epochs).
"""

import json

import pytest

from harness import assert_bitwise_equal, crash_at

from repro.persist import PlanJournal, PlanStore, SimulatedCrash, pending_requests
from repro.persist.journal import decode_record, encode_record
from repro.sched import EpochScheduler
from repro.zoo.finetune import FineTuner

TARGET, TOP_K = "mnli", 5


def make_scheduler(artifacts, store, fine_tuner):
    tuner = FineTuner(fine_tuner.config, seed=0)
    return EpochScheduler.for_artifacts(artifacts, fine_tuner=tuner, persist=store)


@pytest.fixture()
def crashed_store(artifacts, fine_tuner, tmp_path):
    """A store holding one journal torn by a mid-selection crash."""
    root = tmp_path / "store"
    scheduler = make_scheduler(artifacts, PlanStore(root), fine_tuner)
    with crash_at("plan.step", 4):
        scheduler.submit(TARGET, top_k=TOP_K)
        with pytest.raises(SimulatedCrash):
            scheduler.run_until_idle()
    return root


def journal_path(root):
    paths = PlanStore(root).journal_paths()
    assert len(paths) == 1
    return paths[0]


def resume_matches_oracle(artifacts, root, fine_tuner, oracle):
    scheduler = make_scheduler(artifacts, PlanStore(root), fine_tuner)
    recovered = scheduler.recover()
    if not recovered:
        recovered = [scheduler.submit(TARGET, top_k=TOP_K)]
    scheduler.run_until_idle()
    result = scheduler.result(recovered[0], timeout=10)
    assert_bitwise_equal(result, oracle)
    return scheduler


class TestJournalFileRecovery:
    def test_truncated_final_line_is_dropped(self, crashed_store):
        path = journal_path(crashed_store)
        whole = path.read_text(encoding="utf-8")
        before = len(PlanJournal(path).records)
        # Tear the file mid-way through its final record, as a crashed
        # write() would.
        path.write_text(whole[:-17], encoding="utf-8")
        journal = PlanJournal(path)
        assert len(journal.records) == before - 1
        assert journal.dropped_records >= 1

    def test_garbled_middle_record_truncates_suffix(self, crashed_store):
        path = journal_path(crashed_store)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) >= 3
        lines[1] = lines[1].replace('"', "?", 3)  # bit-rot in record 1
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        journal = PlanJournal(path)
        # Everything from the damaged record on is untrusted.
        assert len(journal.records) == 1
        assert journal.dropped_records == len(lines) - 1

    def test_checksum_rejects_payload_tamper(self, crashed_store):
        path = journal_path(crashed_store)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[-1])
        record["payload"]["epochs"] = 999  # tampered, checksum kept
        lines[-1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        journal = PlanJournal(path)
        assert len(journal.records) == len(lines) - 1
        assert all(r["payload"].get("epochs") != 999 for r in journal.records)

    def test_compaction_makes_post_recovery_appends_durable(self, crashed_store):
        """Opening a torn journal compacts it, so new appends are readable.

        Without compaction a record appended after the garbage line would
        sit beyond the invalid prefix and be silently dropped by the
        *next* recovery — a second crash would lose acknowledged records.
        """
        path = journal_path(crashed_store)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')  # crash mid-append
        journal = PlanJournal(path)
        appended = journal.append("step", {"model": "m", "stage": 9, "epochs": 1})
        reread = PlanJournal(path)
        assert reread.dropped_records == 0
        assert reread.records[-1]["payload"] == appended["payload"]

    def test_empty_journal_is_skipped_not_fatal(self, artifacts, tmp_path):
        root = tmp_path / "empty"
        store = PlanStore(root)
        (store.journals_dir / "plan_zoo_v0_empty.jsonl").write_text("")
        assert pending_requests(store) == []
        journal = PlanJournal(store.journals_dir / "plan_zoo_v0_empty.jsonl")
        assert len(journal.records) == 0
        assert journal.dropped_records == 0

    def test_headerless_journal_is_skipped(self, tmp_path):
        """Valid records but no request header: nothing to resume."""
        root = tmp_path / "headerless"
        store = PlanStore(root)
        path = store.journals_dir / "plan_zoo_v0_headerless.jsonl"
        path.write_text(
            encode_record(0, "step", {"model": "m", "stage": 0, "epochs": 1}) + "\n",
            encoding="utf-8",
        )
        assert pending_requests(store) == []

    def test_decode_record_rejects_sequence_gaps(self):
        line = encode_record(5, "step", {"model": "m", "stage": 0, "epochs": 1})
        assert decode_record(line, expected_seq=5) is not None
        assert decode_record(line, expected_seq=0) is None


class TestRecoveryFiltering:
    def test_mixed_zoo_version_journals_are_skipped(
        self, artifacts, fine_tuner, crashed_store
    ):
        store = PlanStore(crashed_store)
        foreign_key = "plan:zoo=v9-deadbeef:successive_halving:k=5:x:y"
        store.journal(foreign_key).append(
            "request",
            {
                "plan_key": foreign_key,
                "target": TARGET,
                "version_key": "v9-deadbeef",
                "method": "successive_halving",
                "top_k": TOP_K,
                "schedule": [1, 1, 1],
            },
        )
        version = artifacts.version.key
        pending = pending_requests(store, version_key=version)
        assert len(pending) == 1
        assert pending[0].version_key == version
        # recover() must ignore the foreign journal too.
        scheduler = make_scheduler(artifacts, PlanStore(crashed_store), fine_tuner)
        recovered = scheduler.recover()
        assert len(recovered) == 1
        scheduler.run_until_idle()
        scheduler.result(recovered[0], timeout=10)

    def test_recover_counts_and_logs_journal_of_removed_target(
        self, artifacts, fine_tuner, crashed_store, caplog
    ):
        store = PlanStore(crashed_store)
        version = artifacts.version.key
        orphan_key = f"plan:zoo={version}:fine_selection:k=5:gone:y"
        store.journal(orphan_key).append(
            "request",
            {
                "plan_key": orphan_key,
                "target": "no-such-target",
                "version_key": version,
                "method": "fine_selection",
                "top_k": TOP_K,
                "schedule": [1, 1, 1],
            },
        )
        assert len(pending_requests(store, version_key=version)) == 2
        scheduler = make_scheduler(artifacts, PlanStore(crashed_store), fine_tuner)
        with caplog.at_level("ERROR", logger="repro.sched.scheduler"):
            recovered = scheduler.recover()
        assert len(recovered) == 1
        assert scheduler.stats()["persist"]["recover_skipped"] == 1
        assert any(orphan_key in record.getMessage() for record in caplog.records)
        scheduler.run_until_idle()
        scheduler.result(recovered[0], timeout=10)

    def test_recover_skips_requests_already_live(
        self, artifacts, fine_tuner, crashed_store
    ):
        scheduler = make_scheduler(artifacts, PlanStore(crashed_store), fine_tuner)
        first = scheduler.recover()
        assert len(first) == 1
        # The journal's request is queued but unfinished: a second scan
        # must not resubmit it (double recovery would double-charge).
        assert scheduler.recover() == []
        scheduler.run_until_idle()
        scheduler.result(first[0], timeout=10)


class TestEndToEndAfterCorruption:
    def test_resume_after_torn_tail_is_bitwise_identical(
        self, artifacts, serial_oracle, fine_tuner, crashed_store
    ):
        oracle = serial_oracle[(TARGET, TOP_K)]
        path = journal_path(crashed_store)
        whole = path.read_text(encoding="utf-8")
        path.write_text(whole[:-9], encoding="utf-8")
        resume_matches_oracle(artifacts, crashed_store, fine_tuner, oracle)

    def test_resume_after_total_journal_loss_retrains(
        self, artifacts, serial_oracle, fine_tuner, crashed_store
    ):
        """Losing the whole journal degrades to a fresh (correct) run."""
        oracle = serial_oracle[(TARGET, TOP_K)]
        journal_path(crashed_store).unlink()
        resume_matches_oracle(artifacts, crashed_store, fine_tuner, oracle)

    def test_resume_after_snapshot_loss_retrains_but_matches(
        self, artifacts, serial_oracle, fine_tuner, crashed_store
    ):
        """Snapshots are an optimisation: losing them costs epochs only."""
        oracle = serial_oracle[(TARGET, TOP_K)]
        store = PlanStore(crashed_store)
        for snapshot in store.sessions_dir.glob("*.pkl"):
            snapshot.write_bytes(b"\x00corrupt")
        scheduler = resume_matches_oracle(
            artifacts, crashed_store, fine_tuner, oracle
        )
        pool = scheduler.stats()["session_pool"]
        assert pool["restored"] == 0  # every snapshot load failed cleanly


class TestTempFileSweep:
    def test_plan_store_sweeps_dead_writer_temp_files(self, tmp_path):
        import subprocess
        import sys

        root = tmp_path / "sweep"
        store = PlanStore(root)
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        (store.sessions_dir / f"s.pkl.tmp-{proc.pid}-1").write_bytes(b"half")
        (store.journals_dir / f"j.jsonl.tmp-{proc.pid}-1").write_bytes(b"half")
        reopened = PlanStore(root)
        assert reopened.swept_temp_files == 2
        assert reopened.stats()["swept_temp_files"] == 2
