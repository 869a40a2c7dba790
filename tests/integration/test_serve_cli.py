"""Integration tests for `python -m repro serve` and the scheduled CLI paths."""

import io
import json
import socket
import threading

import pytest

from repro.cli import build_parser, main
from repro.serving import EXIT_SCHEDULER, ServeFrontEnd, error_payload
from repro.utils.exceptions import BudgetExhaustedError

COMMON = ["--scale", "small", "--num-models", "8", "--seed", "0"]


def parse_lines(text):
    return [json.loads(line) for line in text.strip().splitlines() if line.strip()]


@pytest.fixture(scope="module")
def service():
    from repro.sched.config import SchedulerConfig
    from repro.service import SelectionService

    service = SelectionService.from_modality(
        "nlp", scale="small", num_models=8,
        scheduler=SchedulerConfig(max_concurrent=2, epoch_budget=4),
    )
    yield service
    service.close()


class TestServeFlagValidation:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-concurrent", "0"],
            ["--max-concurrent", "nope"],
            ["--epoch-budget", "-3"],
            ["--max-queue", "0"],
            ["--timeout", "0"],
            ["--timeout", "-1.5"],
            ["--policy", "lifo"],
        ],
    )
    def test_invalid_flags_exit_2_with_message(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *COMMON, *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flags[0].lstrip("-").replace("-", "_") in err.replace("-", "_")

    def test_serve_help_parses(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--help"])
        assert excinfo.value.code == 0


class TestServeStdin:
    def test_full_protocol_roundtrip(self, monkeypatch):
        lines = [
            json.dumps({"op": "select", "target": "mnli", "id": "a", "top_k": 4}),
            json.dumps({"op": "select", "target": "mnli", "id": "b", "top_k": 4}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "bogus"}),
            "not json at all",
            json.dumps({"op": "shutdown"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        out = io.StringIO()
        code = main(
            ["serve", *COMMON, "--max-concurrent", "2", "--epoch-budget", "4"],
            stream=out,
        )
        assert code == 0
        events = parse_lines(out.getvalue())
        by_event = {}
        for event in events:
            by_event.setdefault(event["event"], []).append(event)
        assert by_event["serving"][0]["max_concurrent"] == 2
        accepted = {e["id"] for e in by_event["accepted"]}
        assert accepted == {"a", "b"}
        results = {e["id"]: e for e in by_event["result"]}
        assert set(results) == {"a", "b"}
        # Identical requests multiplexed over the scheduler answer
        # identically (and stream per-stage progress on the way).
        assert results["a"]["selected_model"] == results["b"]["selected_model"]
        assert results["a"]["latency_seconds"] >= 0
        assert by_event["progress"]
        assert "scheduler" in by_event["stats"][0]["stats"]
        assert len(by_event["error"]) == 2  # unknown op + malformed JSON

    def test_poll_op_reports_status(self, service):
        front = ServeFrontEnd(service)
        out = io.StringIO()
        lines = [
            json.dumps({"op": "select", "target": "boolq", "id": "x"}),
            json.dumps({"op": "poll", "id": "x"}),
            json.dumps({"op": "poll", "id": "ghost"}),
        ]
        assert front.serve_stream(lines, out) == 0
        events = parse_lines(out.getvalue())
        status = [e for e in events if e["event"] == "status"]
        assert status and status[0]["id"] == "x"
        unknown = [e for e in events if e["event"] == "error"]
        assert unknown and "ghost" in unknown[0]["message"]

    def test_select_without_target_is_an_error_event(self, service):
        front = ServeFrontEnd(service)
        out = io.StringIO()
        front.serve_stream([json.dumps({"op": "select", "id": "a"})], out)
        events = parse_lines(out.getvalue())
        assert events[0]["event"] == "error"
        assert "target" in events[0]["message"]

    def test_admission_failure_is_a_failed_event(self, service):
        front = ServeFrontEnd(service)
        out = io.StringIO()
        lines = [
            json.dumps(
                {"op": "select", "target": "mnli", "id": "q", "epoch_quota": 1}
            ),
        ]
        front.serve_stream(lines, out)
        events = parse_lines(out.getvalue())
        failed = [e for e in events if e["event"] == "failed"]
        assert failed and failed[0]["error"]["code"] == "budget_exhausted"


class TestServeTcp:
    def test_tcp_roundtrip(self, service):
        front = ServeFrontEnd(service)
        server = front.serve_tcp("127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.sendall(
                    (json.dumps({"op": "select", "target": "mnli", "id": "t1"})
                     + "\n" + json.dumps({"op": "shutdown"}) + "\n").encode()
                )
                chunks = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    chunks.append(data)
            events = parse_lines(b"".join(chunks).decode())
            kinds = [e["event"] for e in events]
            assert "accepted" in kinds and "result" in kinds
            result = next(e for e in events if e["event"] == "result")
            assert result["id"] == "t1"
            assert result["selected_model"]
        finally:
            server.shutdown()
            server.server_close()


class TestScheduledCliPaths:
    def test_select_with_timeout_matches_selector(self, service):
        from repro.core.pipeline import TwoPhaseSelector

        library = TwoPhaseSelector(service.artifacts).select("mnli")
        scheduled = io.StringIO()
        assert main(
            ["select", "--target", "mnli", "--json", "--timeout", "600",
             *COMMON],
            stream=scheduled,
        ) == 0
        payload = json.loads(scheduled.getvalue())
        assert payload["selected_model"] == library.selected_model
        assert payload["total_cost"] == library.total_cost

    def test_select_timeout_expiry_exits_3_with_json_error(self):
        out = io.StringIO()
        code = main(
            ["select", "--target", "mnli", "--timeout", "1e-9", *COMMON],
            stream=out,
        )
        assert code == EXIT_SCHEDULER
        payload = json.loads(out.getvalue())
        assert payload["error"]["code"] == "timeout"

    def test_batch_with_max_queue_runs_scheduled(self):
        out = io.StringIO()
        code = main(
            ["batch", "--targets", "mnli", "boolq", "--json",
             "--max-queue", "4", *COMMON],
            stream=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert set(payload["targets"]) == {"mnli", "boolq"}

    def test_error_payload_codes(self):
        payload = error_payload(BudgetExhaustedError("over"))
        assert payload["error"]["code"] == "budget_exhausted"
        assert payload["error"]["type"] == "BudgetExhaustedError"
