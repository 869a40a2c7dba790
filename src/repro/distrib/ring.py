"""Consistent-hash ring: deterministic key -> worker placement.

The routed serving tier shards requests over N worker processes by
*session key prefix* — ``(zoo_version, target)`` — so every fine-tuning
session a request can touch lands on the same worker and PR 5's warm
:class:`~repro.sched.pool.SessionPool` reuse survives sharding.  Three
properties matter, and all three are tested by
``tests/property/test_property_ring.py``:

* **Determinism across processes** — placement is a pure function of the
  key and the node set, hashed with SHA-256 (never Python's ``hash()``,
  which is salted per process via ``PYTHONHASHSEED``).  The router can be
  restarted, or re-derived inside a test, and every key maps to the same
  worker.
* **Minimal movement** — adding or removing one of N nodes remaps only
  the keys owned by that node (~K/N of them); every other key keeps its
  worker, so a scale-out event invalidates the fewest warm sessions.
* **Co-location** — equal keys always map to the same node, which is the
  invariant that lets concurrent requests for the same target share
  partially-trained sessions.

Each node is placed at ``replicas`` pseudo-random points on a 64-bit
ring; a key is owned by the first node point at or after its hash
(wrapping at the top).  More replicas smooth the load split at the cost
of a larger (still tiny) sorted table.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple

from repro.cache.keys import fingerprint_text
from repro.utils.exceptions import ConfigurationError

#: Field separator inside hashed payloads (cannot appear in names).
_SEP = "\x1f"


def _point(payload: str) -> int:
    """64-bit ring position of ``payload`` (process-independent)."""
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def route_key(version_key: str, target: str) -> str:
    """Routing key of one selection request: the session-key prefix.

    Every session key of a request shares ``(zoo_version, task)`` and
    differs only in the model fingerprint — and *all* of a request's
    candidate sessions must land on one worker anyway — so the model
    component is deliberately excluded.  Hashing the pair (rather than
    concatenating) keeps ``("v1", "ab")`` and ``("v1a", "b")`` distinct.
    """
    return fingerprint_text("route", version_key, target)


class HashRing:
    """Consistent-hash ring over a set of named nodes.

    >>> ring = HashRing(["w0", "w1", "w2"])
    >>> ring.lookup("some-key") in ("w0", "w1", "w2")
    True
    >>> ring.lookup("some-key") == ring.lookup("some-key")
    True
    """

    def __init__(self, nodes: Iterable[str] = (), *, replicas: int = 64) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._points: List[Tuple[int, str]] = []
        self._nodes: Dict[str, List[int]] = {}
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[str]:
        """Current node names, sorted for deterministic iteration."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------ #
    def add(self, node: str) -> None:
        """Place ``node`` on the ring (idempotent for present nodes)."""
        if not node:
            raise ConfigurationError("node name must be a non-empty string")
        if node in self._nodes:
            return
        points = []
        for replica in range(self.replicas):
            point = _point(f"{node}{_SEP}{replica}")
            points.append(point)
            bisect.insort(self._points, (point, node))
        self._nodes[node] = points

    def remove(self, node: str) -> None:
        """Remove ``node``; its keys redistribute to their successors."""
        points = self._nodes.pop(node, None)
        if points is None:
            return
        self._points = [entry for entry in self._points if entry[1] != node]

    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> str:
        """Owning node of ``key``: first node point at or after its hash."""
        if not self._points:
            raise ConfigurationError("lookup on an empty ring")
        point = _point(key)
        index = bisect.bisect_left(self._points, (point, ""))
        if index == len(self._points):
            index = 0  # wrap past the top of the ring
        return self._points[index][1]
