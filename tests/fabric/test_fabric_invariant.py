"""The fabric churn invariant (the PR's acceptance gate).

Replay a 500+-event seeded churn stream over a 4-switch fabric and require:

(a) the aggregate fabric state — per-switch entry/block matrices, backplane
    floats, and inter-switch link loads — stays **bit-identical** to
    recomputing every shard from its surviving tenant set from scratch
    (``FabricOrchestrator.check_invariant`` compares against
    ``PipelineState.from_placement`` per shard and a sorted-tenant link-load
    recompute, with exact float equality);

(b) after ``drain(switch)``, every re-homed tenant's chain still forwards
    end-to-end through data-plane probe packets, and the drained switch is
    left with zero tenants and zero rules.
"""

import pytest

from repro.controller import ChurnConfig, ChurnEngine, synthesize_churn
from repro.fabric import (
    FabricOrchestrator,
    FabricTopology,
    make_partitioner,
)
from repro.rng import DEFAULT_SEED
from repro.traffic.workload import WorkloadConfig

WORKLOAD = WorkloadConfig(
    num_sfcs=0, num_types=6, avg_chain_length=3, chain_length_spread=2,
    rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0, max_bandwidth_gbps=4.0,
)

CONFIG = ChurnConfig(
    duration_s=25.0,
    arrival_rate_per_s=12.0,
    mean_lifetime_s=6.0,
    modify_fraction=0.25,
    workload=WORKLOAD,
)


@pytest.fixture(scope="module")
def events():
    stream = synthesize_churn(CONFIG, rng=DEFAULT_SEED)
    assert len(stream) >= 500  # the acceptance floor
    return stream


@pytest.mark.parametrize("strategy", ["hash", "least-backplane"])
def test_fabric_churn_invariant_bit_identical(events, strategy):
    topo = FabricTopology.full_mesh(4)
    fabric = FabricOrchestrator(
        topo, num_types=6, partitioner=make_partitioner(strategy)
    )
    engine = ChurnEngine(fabric)
    for i, event in enumerate(events):
        engine.apply(event)
        if i % 100 == 0:  # audit mid-stream, not only at the end
            assert fabric.check_invariant() == []
    assert fabric.check_invariant() == []
    assert len(fabric.tenants) > 0  # the stream leaves survivors to audit
    # Survivors all forward end to end before any drain.
    assert all(fabric.probe_tenant(t) for t in fabric.tenants)


def test_drain_after_churn_keeps_every_rehomed_chain_forwarding(events):
    topo = FabricTopology.full_mesh(4)
    fabric = FabricOrchestrator(topo, num_types=6)
    report = ChurnEngine(fabric).replay(events)
    assert report.num_events == len(events)
    assert fabric.check_invariant() == []

    # Drain the busiest switch — the hardest re-home.
    victim = max(fabric.shards, key=lambda n: len(fabric.shards[n].tenants))
    before = set(fabric.tenants)
    drain = fabric.drain(victim)
    assert set(drain.rehomed) | set(drain.evicted) <= before
    assert fabric.check_invariant() == []

    # (b) zero rules left on the drained switch...
    shard = fabric.shards[victim]
    assert shard.tenants == {}
    assert shard.state.entries.sum() == 0
    assert shard.state.backplane_gbps == 0.0
    assert shard.installer.installed == {}
    # ...and every re-homed tenant still forwards through probe packets.
    assert drain.rehomed  # the busiest switch had tenants to move
    for tenant_id in drain.rehomed:
        assert victim not in fabric.tenants[tenant_id].switches
        assert fabric.probe_tenant(tenant_id)

    # Churn keeps working on the degraded fabric.
    more = synthesize_churn(CONFIG, rng=DEFAULT_SEED + 1)
    shifted = [e for e in more if e.kind.value != "modify"][:100]
    engine = ChurnEngine(fabric)
    for event in shifted:
        # Re-used tenant ids collide with churn survivors; that is fine —
        # the orchestrator rejects duplicates and the invariant must hold
        # regardless.
        engine.apply(event)
    assert fabric.check_invariant() == []
