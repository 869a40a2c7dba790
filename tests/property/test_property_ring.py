"""Property suite: the consistent-hash ring's routing invariants.

The routed serving tier rests on three ring properties, and each is
stated here as a law over *random* node sets and key populations rather
than a handful of examples:

* **determinism / order-independence** — placement is a pure function of
  the (key, node-set) pair: any insertion order, any interleaving of
  adds and removes that reaches the same node set, the same assignment;
* **minimal movement** — adding a node steals keys only *for* that node,
  removing a node moves only the keys it owned, and the stolen fraction
  concentrates around K/N (that is the "consistent" in consistent
  hashing — a rebalance invalidates the fewest warm sessions);
* **co-location** — equal routing keys always land on one node, which is
  what lets every session of one ``(zoo_version, target)`` pair share a
  worker's warm pool.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distrib import HashRing, route_key

#: Node names: short non-empty tokens, unique per draw.
node_sets = st.lists(
    st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=8),
    min_size=1,
    max_size=8,
    unique=True,
)

keys = st.lists(
    st.text(min_size=0, max_size=32), min_size=1, max_size=128, unique=True
)


def placement(ring, keys):
    """Key -> owning node for every key."""
    return {key: ring.lookup(key) for key in keys}


class TestRingDeterminism:
    @given(nodes=node_sets, population=keys, seed=st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_insertion_order_never_changes_placement(
        self, nodes, population, seed
    ):
        shuffled = list(nodes)
        seed.shuffle(shuffled)
        assert (
            placement(HashRing(nodes), population)
            == placement(HashRing(shuffled), population)
        )

    @given(nodes=node_sets, population=keys, extra=st.text(min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_add_then_remove_restores_every_placement(
        self, nodes, population, extra
    ):
        if extra in nodes:
            return
        ring = HashRing(nodes)
        before = placement(ring, population)
        ring.add(extra)
        ring.remove(extra)
        assert placement(ring, population) == before


class TestRingMinimalMovement:
    @given(nodes=node_sets, population=keys, extra=st.text(min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_adding_a_node_only_steals_keys_for_it(
        self, nodes, population, extra
    ):
        if extra in nodes:
            return
        ring = HashRing(nodes)
        before = placement(ring, population)
        ring.add(extra)
        after = placement(ring, population)
        for key in population:
            # A key either kept its owner or moved TO the new node; no
            # key is shuffled between two pre-existing nodes.
            assert after[key] == before[key] or after[key] == extra

    @given(nodes=node_sets, population=keys, victim_index=st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_removing_a_node_only_moves_its_own_keys(
        self, nodes, population, victim_index
    ):
        if len(nodes) < 2:
            return
        victim = nodes[victim_index % len(nodes)]
        ring = HashRing(nodes)
        before = placement(ring, population)
        ring.remove(victim)
        after = placement(ring, population)
        for key in population:
            if before[key] == victim:
                assert after[key] != victim
            else:
                assert after[key] == before[key]

    def test_movement_fraction_concentrates_around_one_over_n(self):
        """~K/N movement on rebalance, measured on a fixed population
        large enough for the law of large numbers to bite (kept out of
        hypothesis: the bound is statistical, not per-example)."""
        population = [f"key-{index}" for index in range(4000)]
        nodes = [f"w{index}" for index in range(4)]
        ring = HashRing(nodes)
        before = placement(ring, population)
        ring.add("w4")
        after = placement(ring, population)
        moved = sum(1 for key in population if before[key] != after[key])
        # Ideal is K/(N+1) = 800 of 4000; allow generous slack for the
        # variance of 64 virtual nodes, but far below a full reshuffle.
        assert moved <= len(population) * 0.45
        assert moved > 0


class TestRingColocation:
    @given(
        nodes=node_sets,
        version=st.text(min_size=1, max_size=12),
        target=st.text(min_size=1, max_size=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_equal_route_keys_share_a_worker(self, nodes, version, target):
        ring = HashRing(nodes)
        key = route_key(version, target)
        owners = {ring.lookup(key) for _ in range(5)}
        assert len(owners) == 1
        # And a freshly-derived ring (a restarted router) agrees.
        assert HashRing(list(reversed(nodes))).lookup(key) in owners
