"""Partitioner strategies: determinism, stickiness, and load-awareness."""

import pytest

from repro.errors import PlacementError
from repro.units import to_bps
from repro.fabric import (
    PARTITIONERS,
    ConsistentHashPartitioner,
    FabricOrchestrator,
    FabricTopology,
    LeastBackplanePartitioner,
    ModuloPartitioner,
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


def test_least_backplane_prefers_idle_switches(fabric):
    part = LeastBackplanePartitioner()
    assert part.order(chain(0), fabric) == ["sw0", "sw1", "sw2", "sw3"]
    fabric.shards["sw0"].state.add_backplane(to_bps(5.0))
    fabric.shards["sw1"].state.add_backplane(to_bps(1.0))
    order = part.order(chain(0), fabric)
    assert order == ["sw2", "sw3", "sw1", "sw0"]
    assert "sw0" == order[-1]  # most loaded goes last


def test_least_backplane_skips_drained(fabric):
    fabric.drained.add("sw0")
    assert LeastBackplanePartitioner().order(chain(0), fabric) == [
        "sw1", "sw2", "sw3",
    ]


def test_registry_and_factory():
    assert set(PARTITIONERS) == {"hash", "least-backplane", "modulo"}
    assert isinstance(make_partitioner("hash"), ConsistentHashPartitioner)
    assert isinstance(
        make_partitioner("least-backplane"), LeastBackplanePartitioner
    )
    assert isinstance(make_partitioner("modulo"), ModuloPartitioner)
    with pytest.raises(PlacementError):
        make_partitioner("round-robin")
    with pytest.raises(PlacementError):
        ConsistentHashPartitioner(replicas=0)
