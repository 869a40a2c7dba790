"""Unit tests of the consistent-hash ring (placement determinism).

The property tier (``tests/property/test_property_ring.py``) proves the
statistical invariants over random node sets; this module pins the exact
behaviours the router depends on — including determinism across *real*
interpreter processes, which is the one property an in-process suite
cannot witness (``PYTHONHASHSEED`` salting is per-process).
"""

import json
import subprocess
import sys

import pytest

from repro.distrib import HashRing, route_key
from repro.utils.exceptions import ConfigurationError

KEYS = [f"key-{index}" for index in range(200)]


def placement(ring, keys):
    """Key -> owning node for every key."""
    return {key: ring.lookup(key) for key in keys}


class TestHashRing:
    def test_lookup_is_deterministic(self):
        ring = HashRing(["w0", "w1", "w2"])
        first = [ring.lookup(key) for key in KEYS]
        second = [ring.lookup(key) for key in KEYS]
        assert first == second

    def test_insertion_order_is_irrelevant(self):
        forward = HashRing(["w0", "w1", "w2"])
        backward = HashRing(["w2", "w1", "w0"])
        assert placement(forward, KEYS) == placement(backward, KEYS)

    def test_all_nodes_receive_keys(self):
        ring = HashRing([f"w{index}" for index in range(4)])
        owners = set(placement(ring, KEYS).values())
        assert owners == {"w0", "w1", "w2", "w3"}

    def test_removal_only_moves_the_removed_nodes_keys(self):
        ring = HashRing(["w0", "w1", "w2"])
        before = placement(ring, KEYS)
        ring.remove("w1")
        after = placement(ring, KEYS)
        for key in KEYS:
            if before[key] != "w1":
                assert after[key] == before[key]
            else:
                assert after[key] != "w1"

    def test_add_is_idempotent_and_remove_unknown_is_a_noop(self):
        ring = HashRing(["w0"])
        ring.add("w0")
        assert len(ring) == 1
        ring.remove("missing")
        assert ring.nodes == ["w0"]

    def test_empty_ring_lookup_raises(self):
        with pytest.raises(ConfigurationError):
            HashRing().lookup("anything")

    def test_route_key_separates_version_and_target(self):
        # Hashing the pair, not the concatenation: shifting a character
        # across the boundary must change the key.
        assert route_key("v1", "ab") != route_key("v1a", "b")

    def test_placement_matches_across_processes(self):
        """The exact property the routed tier stands on: a ring re-derived
        in a *different* interpreter (different hash seed) places every
        key identically, so a restarted router resubmits each request to
        the worker that owns its journals."""
        nodes = ["w0", "w1", "w2"]
        keys = [route_key(f"v{index}", "mnli") for index in range(20)] + KEYS[:30]
        local = placement(HashRing(nodes), keys)
        script = (
            "import json, sys\n"
            "from repro.distrib import HashRing\n"
            "nodes, keys = json.load(sys.stdin)\n"
            "ring = HashRing(nodes)\n"
            "print(json.dumps({key: ring.lookup(key) for key in keys}))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps([nodes, keys]),
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": ":".join(sys.path), "PYTHONHASHSEED": "12345"},
        ).stdout
        assert json.loads(output) == local
