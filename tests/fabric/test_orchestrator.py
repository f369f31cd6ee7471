"""FabricOrchestrator lifecycle: routing, spillover, stitching commits,
modify re-homing, and drain/failover."""

import pytest

from repro.controller import SfcController
from repro.errors import PlacementError
from repro.fabric import (
    FabricOrchestrator,
    FabricTopology,
    LeastBackplanePartitioner,
    SwitchNode,
)

from .conftest import chain


@pytest.fixture
def fabric(tiny_spec):
    """4 tiny switches, full mesh, with the simulated data plane."""
    topo = FabricTopology.full_mesh(4, spec=tiny_spec)
    return FabricOrchestrator(topo, num_types=3)


def test_single_switch_admit_and_evict(fabric):
    result = fabric.admit(chain(1))
    assert result.ok and not result.stitched
    assert len(result.switches) == 1
    record = fabric.tenants[1]
    assert record.switches == result.switches
    assert record.segments[0].start == 0 and record.segments[0].stop == 3
    assert fabric.probe_tenant(1)
    assert fabric.check_invariant() == []
    assert result.rules_added > 0

    evicted = fabric.evict(1)
    assert evicted.ok and evicted.rules_deleted > 0
    assert fabric.tenants == {}
    assert fabric.check_invariant() == []
    assert all(s.state.entries.sum() == 0 for s in fabric.shards.values())


def test_duplicate_and_unknown_tenants_are_rejected(fabric):
    assert fabric.admit(chain(1)).ok
    dup = fabric.admit(chain(1))
    assert not dup.ok and dup.reason == "duplicate-tenant"
    missing = fabric.evict(99)
    assert not missing.ok and missing.reason == "unknown-tenant"
    assert not fabric.modify(99, chain(99)).ok
    snap = fabric.metrics_snapshot()
    assert snap["counters"]["rejected"] == 3
    assert snap["counters"]["rejected.duplicate-tenant"] == 1
    assert snap["counters"]["rejected.unknown-tenant"] == 2


def test_spillover_when_preferred_shard_is_full(fabric):
    # Two tenants whose hash ring walk starts at the same switch; each one
    # nearly fills a tiny switch's 10 Gbps backplane, so the second must
    # spill to its second choice.
    first = fabric.partitioner.order(chain(0, bandwidth_gbps=8.0), fabric)
    follower = next(
        t for t in range(1, 200)
        if fabric.partitioner.order(chain(t, bandwidth_gbps=8.0), fabric)[0]
        == first[0]
    )
    a = fabric.admit(chain(0, bandwidth_gbps=8.0))
    b = fabric.admit(chain(follower, bandwidth_gbps=8.0))
    assert a.ok and a.spillover == 0
    assert b.ok and b.spillover > 0
    assert b.switches[0] != first[0]
    assert fabric.metrics_snapshot()["counters"]["spillovers"] == 1
    assert fabric.check_invariant() == []


def test_per_switch_latency_histograms_populate(fabric):
    fabric.admit(chain(1))
    snap = fabric.metrics_snapshot()
    hists = snap["histograms"]
    landed = fabric.tenants[1].switches[0]
    assert hists[f"admit_latency_s.{landed}"]["count"] >= 1
    assert hists[f"admit_latency_s.{landed}"]["p50"] is not None


LONG = dict(nf_types=(1, 2, 3, 4, 5, 6), rules=(2, 2, 2, 2, 2, 2))


@pytest.fixture
def short_fabric(short_spec):
    topo = FabricTopology.full_mesh(3, spec=short_spec, max_recirculations=1)
    return FabricOrchestrator(topo, num_types=6)


def test_stitched_admit_commits_both_segments(short_fabric):
    result = short_fabric.admit(chain(7, bandwidth_gbps=10.0, **LONG))
    assert result.ok and result.stitched
    record = short_fabric.tenants[7]
    assert len(record.segments) == 2
    head, tail = record.segments
    assert head.stop == tail.start  # contiguous cover of the chain
    assert head.start == 0 and tail.stop == 6
    assert record.links and short_fabric.links[record.links[0]].load_gbps == 10.0
    assert short_fabric.probe_tenant(7)
    assert short_fabric.check_invariant() == []
    assert short_fabric.metrics_snapshot()["counters"]["stitched"] == 1

    evicted = short_fabric.evict(7)
    assert evicted.ok and evicted.stitched
    assert all(l.load_gbps == 0.0 for l in short_fabric.links.values())
    assert short_fabric.check_invariant() == []


def test_a_link_less_fleet_refuses_without_stitch_probes(short_spec, monkeypatch):
    # No link means no tail for any head, so a chain no single switch can
    # host is refused without one trial placement.
    nodes = [
        SwitchNode(f"sw{i}", spec=short_spec, max_recirculations=1)
        for i in range(3)
    ]
    fabric = FabricOrchestrator(
        FabricTopology(nodes), num_types=6, with_dataplane=False
    )
    probes = []
    can_host = SfcController.can_host
    monkeypatch.setattr(
        SfcController, "can_host",
        lambda shard, sfc: probes.append(sfc.name) or can_host(shard, sfc),
    )
    result = fabric.admit(chain(7, **LONG))
    assert not result.ok and result.reason == "chain-too-long"
    assert probes == []


def test_modify_in_place_is_hitless(fabric):
    fabric.admit(chain(1))
    result = fabric.modify(1, chain(1, nf_types=(2, 3), rules=(5, 5)))
    assert result.ok and result.hitless
    assert fabric.tenants[1].sfc.nf_types == (2, 3)
    assert fabric.probe_tenant(1)
    assert fabric.check_invariant() == []


def test_modify_rehomes_stitched_tenant_to_single_switch(short_fabric):
    short_fabric.admit(chain(7, bandwidth_gbps=10.0, **LONG))
    result = short_fabric.modify(7, chain(7, nf_types=(1, 2), rules=(2, 2)))
    assert result.ok and not result.hitless
    record = short_fabric.tenants[7]
    assert not record.stitched and record.links == ()
    assert all(l.load_gbps == 0.0 for l in short_fabric.links.values())
    assert short_fabric.probe_tenant(7)
    assert short_fabric.check_invariant() == []


def test_failed_modify_restores_the_old_chain(fabric):
    fabric.admit(chain(1))
    old = fabric.tenants[1].sfc
    # 1000-rule NFs blow past a tiny switch's 400 entries per stage — the
    # new chain fits nowhere on the fabric.
    result = fabric.modify(1, chain(1, rules=(1000, 1000, 1000)))
    assert not result.ok
    assert fabric.tenants[1].sfc == old
    assert fabric.probe_tenant(1)
    assert fabric.check_invariant() == []
    assert fabric.metrics_snapshot()["counters"].get(
        "modify_restore_failed", 0
    ) == 0


def test_drain_rehomes_everything(fabric):
    for tenant in range(8):
        assert fabric.admit(chain(tenant)).ok
    victim = fabric.tenants[0].switches[0]
    hosted = [t for t, r in fabric.tenants.items() if victim in r.switches]
    report = fabric.drain(victim)
    assert report.switch == victim
    assert sorted(report.rehomed) == sorted(hosted)
    assert report.num_evicted == 0
    # The drained shard is empty of tenants and rules...
    shard = fabric.shards[victim]
    assert shard.tenants == {} and shard.state.entries.sum() == 0
    assert shard.installer.installed == {}
    # ...every re-homed tenant still forwards end to end...
    assert all(fabric.probe_tenant(t) for t in report.rehomed)
    # ...and nobody landed back on the drained switch.
    assert all(victim not in fabric.tenants[t].switches for t in fabric.tenants)
    assert fabric.check_invariant() == []


def test_drain_evicts_what_cannot_rehome(tiny_spec):
    topo = FabricTopology.full_mesh(2, spec=tiny_spec)
    fabric = FabricOrchestrator(
        topo, num_types=3, partitioner=LeastBackplanePartitioner()
    )
    # Least-backplane balancing puts one 8 Gbps tenant on each switch; after
    # a drain the survivor has no room for the second one.
    assert fabric.admit(chain(0, bandwidth_gbps=8.0)).ok
    assert fabric.admit(chain(1, bandwidth_gbps=8.0)).ok
    victim = fabric.tenants[0].switches[0]
    report = fabric.drain(victim)
    assert report.rehomed == ()
    assert report.evicted == (0,)
    assert len(fabric.tenants) == 1
    assert fabric.check_invariant() == []


def test_drain_then_undrain(fabric):
    fabric.admit(chain(1))
    fabric.drain("sw0")
    fabric.drain("sw1")
    fabric.drain("sw2")
    fabric.drain("sw3")
    refused = fabric.admit(chain(2))
    assert not refused.ok and refused.reason == "no-active-switch"
    assert len(fabric.tenants) == 0  # tenant 1 had nowhere to go
    fabric.undrain("sw0")
    assert fabric.active_switches == ["sw0"]
    assert fabric.admit(chain(2)).ok
    assert fabric.tenants[2].switches == ("sw0",)
    with pytest.raises(PlacementError):
        fabric.drain("ghost")
    with pytest.raises(PlacementError):
        fabric.undrain("ghost")


def test_summary_shape(fabric):
    fabric.admit(chain(1))
    summary = fabric.summary()
    assert set(summary) == {
        "switches", "links", "tenants", "stitched_tenants", "globalopt"
    }
    assert summary["tenants"] == 1 and summary["stitched_tenants"] == 0
    assert summary["globalopt"]["runs"] == 0
    assert len(summary["switches"]) == 4
    assert len(summary["links"]) == 6
    home = fabric.tenants[1].switches[0]
    assert summary["switches"][home]["tenants"] == 1
    assert not summary["switches"][home]["drained"]
