"""Protocol conformance: the routed tier is indistinguishable on the wire.

One fixed scenario of protocol probes runs against both deployment shapes
— a single ``python -m repro serve`` process and a consistent-hash router
over two workers — and every reply is compared: same event names, same
key shapes, and (for everything deterministic) byte-identical payloads
once the legitimately-volatile fields (``id``, ``latency_seconds``) are
stripped.  A client library written against one tier must work, byte for
byte, against the other.  The scenario includes bad input — a line that
is not UTF-8 and selects with wrongly typed fields — which both tiers
answer with the same ``error`` replies on a connection that stays open.

The second half is the headline acceptance check: eight concurrent
requests sharded over two workers produce results bitwise-identical to
the same eight requests on a single process.
"""

import json

import pytest
from harness import ServeProcess

from repro.distrib import HashRing, route_key

VOLATILE = ("id", "latency_seconds")

#: Eight distinct targets whose SHA-256 routing keys split 4/4 over the
#: two-worker ring (placement is deterministic, so this is a constant of
#: the codebase, asserted again inside the test).
CONCURRENT_TARGETS = (
    "mnli", "sst2", "qnli", "cola", "rte", "mrpc", "boolq", "qqp",
)

#: Probes whose replies must match on event name + key shape AND payload.
#: (``stats`` and ``pong`` payloads legitimately differ between tiers —
#: a router reports fleet state, a process reports scheduler state — so
#: they conform on event name and correlation id only.)
FULL_PAYLOAD_PROBES = (
    "select_accepted",
    "select_result",
    "select_missing_target",
    "unknown_op",
    "poll_unknown_id",
    "timeout_failure",
    "non_utf8_line",
    "select_non_utf8_target",
    "select_surrogate_target",
    "select_bad_top_k",
    "select_bad_total_epochs",
    "select_bad_raise_budget",
    "select_bad_timeout",
    "select_bad_epoch_quota",
    "shutdown",
)

#: A select field of the wrong JSON type per probe, answered at ingress.
BAD_SELECT_FIELDS = (
    ("top_k", "five"),
    ("total_epochs", "x"),
    ("raise_budget", "x"),
    ("timeout", "soon"),
    ("epoch_quota", "lots"),
)


def run_scenario(serve: ServeProcess) -> dict:
    """Drive the conformance scenario; return ``{probe: event}``."""
    transcript = {}
    serve.send({"op": "select", "target": "mnli", "top_k": 5, "id": "ok"})
    transcript["select_accepted"] = serve.wait_for("accepted", id="ok")
    transcript["select_result"] = serve.wait_for("result", id="ok")

    serve.send({"op": "select", "id": "bad"})
    transcript["select_missing_target"] = serve.wait_for("error", id="bad")

    serve.send({"op": "bogus", "id": "u1"})
    transcript["unknown_op"] = serve.wait_for("error", id="u1")

    serve.send({"op": "poll", "id": "nope"})
    transcript["poll_unknown_id"] = serve.wait_for("error", id="nope")

    serve.send({"op": "select", "target": "boolq", "top_k": 3,
                "timeout": 0.001, "id": "late"})
    transcript["timeout_failure"] = serve.wait_for("failed", id="late")

    # Ingress errors are replies on a stream that stays open: the probes
    # after these (stats, ping, shutdown) still get their answers.
    serve.sock.sendall(b'\xff\xfe{"op": "ping", "id": "raw"}\n')
    transcript["non_utf8_line"] = serve.wait_for("error")
    serve.sock.sendall(b'{"op": "select", "target": "mn\xffli", "id": "b8"}\n')
    transcript["select_non_utf8_target"] = serve.wait_for("error")
    # A lone-surrogate escape is valid JSON but no UTF-8 string: it must
    # be refused before the router admits it (a slot taken by a select
    # that then raised was never given back).
    serve.send({"op": "select", "target": "\ud800", "id": "sur"})
    transcript["select_surrogate_target"] = serve.wait_for("error", id="sur")
    for field, value in BAD_SELECT_FIELDS:
        rid = f"bad-{field}"
        serve.send({"op": "select", "target": "mnli", field: value, "id": rid})
        transcript[f"select_bad_{field}"] = serve.wait_for("error", id=rid)

    serve.send({"op": "stats", "id": "st"})
    transcript["stats"] = serve.wait_for("stats", id="st")

    serve.send({"op": "ping", "id": "pg"})
    transcript["ping"] = serve.wait_for("pong", id="pg")

    serve.send({"op": "shutdown", "id": "end"})
    transcript["shutdown"] = serve.wait_for("shutting_down", id="end")
    return transcript


def strip(event: dict) -> dict:
    return {k: v for k, v in event.items() if k not in VOLATILE}


def canonical(event: dict) -> str:
    return json.dumps(strip(event), sort_keys=True)


@pytest.fixture(scope="module")
def single_transcript(tmp_path_factory):
    store = tmp_path_factory.mktemp("conformance-single")
    with ServeProcess(store / "store") as serve:
        return serve.banner, run_scenario(serve)


@pytest.fixture(scope="module")
def routed_transcript(tmp_path_factory):
    store = tmp_path_factory.mktemp("conformance-routed")
    with ServeProcess(store / "store", workers=2) as serve:
        return serve.banner, run_scenario(serve)


class TestProtocolConformance:
    def test_scenario_covers_identical_probes(
        self, single_transcript, routed_transcript
    ):
        assert single_transcript[1].keys() == routed_transcript[1].keys()

    def test_event_names_and_key_shapes_identical(
        self, single_transcript, routed_transcript
    ):
        _, single = single_transcript
        _, routed = routed_transcript
        for probe in single:
            if probe in ("stats", "ping"):
                continue
            single_shape = (single[probe]["event"], sorted(single[probe]))
            routed_shape = (routed[probe]["event"], sorted(routed[probe]))
            assert single_shape == routed_shape, probe

    def test_full_payloads_byte_identical(
        self, single_transcript, routed_transcript
    ):
        _, single = single_transcript
        _, routed = routed_transcript
        for probe in FULL_PAYLOAD_PROBES:
            assert canonical(single[probe]) == canonical(routed[probe]), probe

    def test_structured_errors_conform(self, routed_transcript):
        _, routed = routed_transcript
        error = routed["timeout_failure"]["error"]
        assert sorted(error) == ["code", "message", "type"]
        assert error["code"] == "timeout"

    def test_ingress_errors_are_replies(self, routed_transcript):
        _, routed = routed_transcript
        assert routed["non_utf8_line"] == {
            "event": "error",
            "message": "malformed JSON: 'utf-8' codec can't decode byte 0xff"
                       " in position 0: invalid start byte",
        }
        assert routed["select_non_utf8_target"] == {
            "event": "error",
            "message": "malformed JSON: 'utf-8' codec can't decode byte 0xff"
                       " in position 30: invalid start byte",
        }
        assert routed["select_surrogate_target"] == {
            "event": "error", "id": "sur",
            "message": "select needs a UTF-8 'target' string, got '\\ud800'",
        }
        # Every select of the scenario is terminal by ``stats``, and no
        # refused one kept an admission slot.
        assert routed["stats"]["stats"]["router"]["admission"]["inflight"] == 0
        for field, value in BAD_SELECT_FIELDS:
            reply = routed[f"select_bad_{field}"]
            assert reply["id"] == f"bad-{field}"
            assert repr(field) in reply["message"]
            assert repr(value) in reply["message"]

    def test_aggregated_probes_still_correlate(
        self, single_transcript, routed_transcript
    ):
        """stats/pong differ in payload by design but must keep the
        event name + correlation id contract."""
        _, single = single_transcript
        _, routed = routed_transcript
        for probe, rid in (("stats", "st"), ("ping", "pg")):
            assert single[probe]["event"] == routed[probe]["event"]
            assert single[probe]["id"] == routed[probe]["id"] == rid

    def test_banner_contract(self, single_transcript, routed_transcript):
        single_banner, _ = single_transcript
        routed_banner, _ = routed_transcript
        for key in ("event", "modality", "num_models", "policy",
                    "max_concurrent", "epoch_budget", "max_queue",
                    "zoo_version", "port", "store_dir", "recovered"):
            assert key in single_banner, key
            assert key in routed_banner, key
        assert routed_banner["zoo_version"] == single_banner["zoo_version"]
        assert len(routed_banner["workers"]) == 2


class TestConcurrentBitwiseEquivalence:
    def _run_concurrent(self, serve: ServeProcess) -> dict:
        for index, target in enumerate(CONCURRENT_TARGETS):
            serve.send({"op": "select", "target": target, "top_k": 3,
                        "id": f"c{index}"})
        results = {}
        for index, target in enumerate(CONCURRENT_TARGETS):
            results[target] = strip(serve.wait_for("result", id=f"c{index}"))
        serve.send({"op": "shutdown"})
        return results

    def test_eight_concurrent_requests_over_two_workers_match_single(
        self, tmp_path
    ):
        with ServeProcess(tmp_path / "single") as serve:
            reference = self._run_concurrent(serve)

        with ServeProcess(tmp_path / "routed", workers=2) as serve:
            # Precondition (deterministic by construction): the eight
            # targets really shard over both workers.
            ring = HashRing([w["name"] for w in serve.banner["workers"]])
            version = serve.banner["zoo_version"]
            owners = {
                ring.lookup(route_key(version, target))
                for target in CONCURRENT_TARGETS
            }
            assert len(owners) >= 2
            routed = self._run_concurrent(serve)

        assert routed == reference
