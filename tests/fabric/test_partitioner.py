"""The consistent-hash ring: determinism, spread, stickiness under drain,
and its order pinned by recorded value."""

import pytest

from repro.core.state import stable_digest
from repro.errors import PlacementError
from repro.fabric import (
    PARTITIONERS,
    ConsistentHashPartitioner,
    FabricOrchestrator,
    FabricTopology,
    make_partitioner,
)

from .conftest import chain


@pytest.fixture
def fabric(tiny_spec):
    topo = FabricTopology.full_mesh(4, spec=tiny_spec)
    return FabricOrchestrator(topo, num_types=3, with_dataplane=False)


def test_hash_order_is_a_permutation_and_process_stable(fabric):
    part = ConsistentHashPartitioner()
    for tenant in range(20):
        order = part.order(chain(tenant), fabric)
        assert sorted(order) == ["sw0", "sw1", "sw2", "sw3"]
        # A fresh instance (fresh ring cache) agrees: the hash is not
        # Python's seed-randomized builtin.
        assert ConsistentHashPartitioner().order(chain(tenant), fabric) == order


def test_hash_order_spreads_tenants(fabric):
    part = ConsistentHashPartitioner()
    owners = {part.order(chain(t), fabric)[0] for t in range(64)}
    assert len(owners) == 4  # every switch owns someone


def test_hash_is_sticky_under_drain(fabric):
    part = ConsistentHashPartitioner()
    before = {t: part.order(chain(t), fabric) for t in range(64)}
    fabric.drained.add("sw2")
    for tenant, old in before.items():
        new = part.order(chain(tenant), fabric)
        assert "sw2" not in new
        if old[0] != "sw2":
            # Only the drained switch's arc re-homes; everyone else keeps
            # their preferred shard.
            assert new[0] == old[0]
        else:
            # Displaced tenants fall to their previous second choice.
            assert new[0] == old[1]


#: blake2b of every ring walk in :func:`ring_orders`, recorded from the ring
#: (a constant, never recomputed by the test).
ORDER_DIGEST = "33f7888e2a671f4dde37cc6908c72a76"


def ring_orders() -> str:
    """Digest of ``order()`` for tenants 0..511 on fleets of 1/4/16/64
    switches with none, one or two of the highest-numbered drained."""
    rows = []
    for switches in (1, 4, 16, 64):
        fabric = FabricOrchestrator(
            FabricTopology.full_mesh(switches), num_types=3, with_dataplane=False
        )
        part = ConsistentHashPartitioner()
        for drained in (0, 1, 2):
            fabric.drained = set(fabric.topology.switch_names[::-1][:drained])
            for tenant in range(512):
                rows.append(
                    [switches, drained, tenant, part.order(chain(tenant), fabric)]
                )
    return stable_digest(rows)


def test_hash_order_is_pinned():
    assert ring_orders() == ORDER_DIGEST


def test_registry_and_factory():
    assert set(PARTITIONERS) == {"hash"}
    assert isinstance(make_partitioner("hash"), ConsistentHashPartitioner)
    for gone in ("least-backplane", "modulo"):
        with pytest.raises(PlacementError, match=gone):
            make_partitioner(gone)
