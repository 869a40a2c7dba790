"""Integration tests for `python -m repro serve` and the scheduled CLI paths."""

import io
import json
import socket
import threading
from types import SimpleNamespace

import pytest
from oracles import serial_select

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


class TestIngressErrors:
    """Bad input is answered on the stream, which keeps serving."""

    def test_non_utf8_stdin_line_is_malformed_json(self, monkeypatch):
        raw = b"\xff\xfe\n" + json.dumps({"op": "ping", "id": "p"}).encode() + b"\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
        out = io.StringIO()
        assert main(["serve", *COMMON], stream=out) == 0
        banner, error, pong = parse_lines(out.getvalue())
        assert banner["event"] == "serving"
        assert error == {
            "event": "error",
            "message": "malformed JSON: 'utf-8' codec can't decode byte 0xff"
                       " in position 0: invalid start byte",
        }
        assert pong["event"] == "pong" and pong["id"] == "p"

    def test_closed_output_stops_reading(self):
        class Gone(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        read = []

        def lines():
            for index in range(5):
                read.append(index)
                yield json.dumps({"op": "ping", "id": index})

        front = ServeFrontEnd(SimpleNamespace(load=dict))
        assert front.serve_stream(lines(), Gone()) == 0
        assert read == [0]

    @pytest.mark.parametrize("field,value", [
        ("top_k", "five"), ("top_k", 2.5), ("total_epochs", "x"),
        ("raise_budget", True), ("timeout", "soon"), ("epoch_quota", [1]),
    ])
    def test_wrongly_typed_select_field_is_an_error_reply(
        self, service, field, value
    ):
        front = ServeFrontEnd(service)
        out = io.StringIO()
        lines = [
            json.dumps({"op": "select", "target": "mnli", field: value, "id": "s"}),
            json.dumps({"op": "ping", "id": "p"}),
        ]
        assert front.serve_stream(lines, out) == 0
        error, pong = parse_lines(out.getvalue())
        assert error["event"] == "error" and error["id"] == "s"
        assert repr(field) in error["message"]
        assert pong["event"] == "pong"

    def test_raising_handler_fails_internal_and_stream_continues(self, caplog):
        def broken_stats():
            raise RuntimeError("stats exploded")

        fake = SimpleNamespace(stats=broken_stats, load=lambda: {"queued": 0})
        out = io.StringIO()
        lines = [json.dumps({"op": "stats", "id": "s"}),
                 json.dumps({"op": "ping", "id": "p"})]
        assert ServeFrontEnd(fake).serve_stream(lines, out) == 0
        failed, pong = parse_lines(out.getvalue())
        assert failed["event"] == "failed" and failed["id"] == "s"
        assert failed["error"]["code"] == "internal"
        assert "stats exploded" in failed["error"]["message"]
        assert pong == {"event": "pong", "queued": 0, "id": "p"}
        assert "stats exploded" in caplog.text

    def test_unhashable_op_is_an_unknown_op(self):
        out = io.StringIO()
        ServeFrontEnd(SimpleNamespace()).serve_stream(
            [json.dumps({"op": ["select"], "id": "u"})], out
        )
        assert parse_lines(out.getvalue()) == [
            {"event": "error", "id": "u", "message": "unknown op ['select']"}
        ]


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
        library = serial_select(service.artifacts, "mnli")
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
