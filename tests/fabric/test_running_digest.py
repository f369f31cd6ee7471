"""The fabric digest is *maintained*, not recomputed: the directory seam
moves a running hash and integer link loads with every record it files or
removes.  These tests hold the maintained value to the from-scratch one
after every op of a long stream, pin its equality semantics (same
placements ⇒ equal, any single-field difference ⇒ different), show the
per-op cost does not depend on how many tenants are live, and show that a
double release is an error rather than something the accounting absorbs."""

import copy
import json

import pytest

from repro.controller import ChurnConfig, ChurnEngine, synthesize_churn
from repro.core.spec import SFC, SwitchSpec
from repro.durability import FabricDurability
from repro.durability.checkpoint import fabric_checkpoint, restore_fabric
from repro.errors import PlacementError
from repro.fabric import FabricOrchestrator, FabricTopology
from repro.traffic.workload import WorkloadConfig

from .conftest import chain

#: Long chains on 2-stage switches with a small backplane (the recipe of
#: ``test_lock_scope_equivalence``): spillover, stitching and re-homing all
#: happen, and off-grid lognormal demands make float sums order-dependent.
CHURN = ChurnConfig(
    duration_s=42.0,
    arrival_rate_per_s=10.0,
    mean_lifetime_s=5.0,
    modify_fraction=0.5,
    workload=WorkloadConfig(
        num_sfcs=0, num_types=6, avg_chain_length=4, chain_length_spread=2,
        rules_min=1, rules_max=40, mean_bandwidth_gbps=2.0,
        max_bandwidth_gbps=6.0,
    ),
)
SEED = 1801_05795


def make_fabric(switches: int = 4, blocks: int = 6, gbps: float = 40.0):
    spec = SwitchSpec(
        stages=2, blocks_per_stage=blocks, block_bits=6400, rule_bits=64,
        capacity_gbps=gbps,
    )
    topology = FabricTopology.full_mesh(
        switches, spec=spec, link_capacity_gbps=30.0, max_recirculations=1
    )
    return FabricOrchestrator(topology, num_types=6, with_dataplane=False)


def rebuilt(checkpoint: dict) -> FabricOrchestrator:
    """A fresh fabric restored from ``checkpoint`` (which verifies the
    recorded digests when the checkpoint is in the current format)."""
    fresh = make_fabric()
    restore_fabric(fresh, checkpoint)
    return fresh


def assert_from_scratch_agrees(fabric, where) -> None:
    assert fabric.check_invariant() == [], where
    fresh = rebuilt(fabric_checkpoint(fabric, lsn=0))
    assert fresh.digest() == fabric.digest(), where
    ours, theirs = fabric.summary(), fresh.summary()
    for part in ("switches", "links", "tenants", "stitched_tenants"):
        assert theirs[part] == ours[part], (where, part)


def test_digest_equals_from_scratch_after_every_op():
    events = synthesize_churn(CHURN, SEED)
    assert len(events) >= 700
    fabric = make_fabric()
    engine = ChurnEngine(fabric)
    failed_modify = reoptimized = False
    for index, event in enumerate(events):
        engine.apply(event)
        assert_from_scratch_agrees(fabric, f"event {index}")
        if index == 250:
            fabric.drain("sw1")
            assert_from_scratch_agrees(fabric, "drain")
        if index == 330:
            fabric.undrain("sw1")
            assert_from_scratch_agrees(fabric, "undrain")
        if index >= 400 and not failed_modify and fabric.tenants:
            # A refused modify still evicts and re-places the old chain.
            victim = min(fabric.tenants)
            result = fabric.modify(
                victim, chain(victim, nf_types=(1,), rules=(50_000,))
            )
            assert not result.ok and victim in fabric.tenants
            failed_modify = True
            assert_from_scratch_agrees(fabric, "failed modify")
        if index >= 500 and not reoptimized and fabric.summary()["stitched_tenants"] >= 2:
            report = fabric.reoptimize(mode="greedy")
            reoptimized = report.migration.executed > 0
            assert_from_scratch_agrees(fabric, "reoptimize")
    counters = fabric.metrics.snapshot()["counters"]
    for name in ("spillovers", "stitched", "modify_rehomed", "rejected", "drains"):
        assert counters.get(name, 0) > 0, name
    assert failed_modify and reoptimized
    assert counters["globalopt.moves_executed"] > 0


@pytest.fixture(scope="module")
def settled():
    """A fabric part-way through the stream (stitched tenants live) and
    its checkpoint."""
    fabric = make_fabric()
    engine = ChurnEngine(fabric)
    for event in synthesize_churn(CHURN, SEED)[:240]:
        engine.apply(event)
    checkpoint = fabric_checkpoint(fabric, lsn=0)
    assert any(len(t["segments"]) > 1 for t in checkpoint["tenants"])
    return fabric, checkpoint


def test_op_order_does_not_matter(settled):
    """Two different op orders that reach the same placements hash equal:
    restoring the directory backwards adds the same loads, hashes and
    backplane charges in the opposite order."""
    fabric, checkpoint = settled
    backwards = dict(checkpoint, tenants=checkpoint["tenants"][::-1])
    assert rebuilt(backwards).digest() == fabric.digest()  # and verified


def unverified(checkpoint: dict) -> dict:
    """Edited checkpoints no longer match their recorded digests; marking
    them format v1 restores them unverified."""
    return dict(copy.deepcopy(checkpoint), version=1)


def test_any_single_field_difference_changes_the_digest(settled):
    fabric, checkpoint = settled
    assert rebuilt(unverified(checkpoint)).digest() == fabric.digest()
    stitched = next(
        i for i, t in enumerate(checkpoint["tenants"]) if len(t["segments"]) > 1
    )

    def stage_moves():
        """Each segment's last NF one virtual stage later (K = 4)."""
        for t, tenant in enumerate(checkpoint["tenants"]):
            for g, seg in enumerate(tenant["segments"]):
                if seg["stages"][-1] < 4:
                    edited = unverified(checkpoint)
                    edited["tenants"][t]["segments"][g]["stages"][-1] += 1
                    yield edited

    def restores(edited) -> bool:
        try:
            rebuilt(edited)
        except PlacementError:  # the tight fleet has no room at that stage
            return False
        return True

    one_stage = next(cp for cp in stage_moves() if restores(cp))

    one_link = unverified(checkpoint)
    entry = one_link["tenants"][stitched]
    (old_link,) = entry["links"]
    demand = SFC.from_dict(entry["sfc"]).bw_bps
    other = next(
        key for key in fabric.links
        if key != tuple(old_link) and fabric.links[key].fits(demand)
    )
    entry["links"] = [list(other)]

    one_rule = unverified(checkpoint)
    entry = one_rule["tenants"][0]
    entry["sfc"]["rules"][0] += 1
    entry["segments"][0]["sfc"]["rules"][0] += 1

    digests = {rebuilt(cp).digest() for cp in (one_stage, one_link, one_rule)}
    assert len(digests) == 3 and fabric.digest() not in digests

    # The link edit moved no shard state: only the directory hash and the
    # two link loads tell the fabrics apart.
    edited = rebuilt(one_link)
    assert all(
        edited.shards[name].state.digest() == fabric.shards[name].state.digest()
        for name in fabric.shards
    )


def test_per_op_cost_does_not_grow_with_the_fleet(tmp_path, monkeypatch):
    """No clock: count the serialisation calls one admit + ``digest()``
    makes on a fabric holding 50 tenants and on one holding 1 000."""
    calls = {"to_dict": 0, "dumps": 0}
    real_to_dict, real_dumps = SFC.to_dict, json.dumps

    def counting_to_dict(self):
        calls["to_dict"] += 1
        return real_to_dict(self)

    def counting_dumps(*args, **kwargs):
        calls["dumps"] += 1
        return real_dumps(*args, **kwargs)

    def one_op(live: int) -> dict:
        fabric = make_fabric(switches=2, blocks=4_000, gbps=1e6)
        FabricDurability(
            tmp_path / str(live), fsync="off", checkpoint_every=0
        ).attach(fabric)
        for t in range(live):
            assert fabric.admit(chain(t, rules=(1, 1, 1))).ok
        monkeypatch.setattr(SFC, "to_dict", counting_to_dict)
        monkeypatch.setattr(json, "dumps", counting_dumps)
        calls.update(to_dict=0, dumps=0)
        assert fabric.admit(chain(live, rules=(1, 1, 1))).ok
        fabric.digest()
        monkeypatch.undo()
        fabric.durability.close()
        return dict(calls)

    small, large = one_op(50), one_op(1_000)
    assert small == large
    # What is left is the op's own journal payload (the fabric's and the
    # shard's copy of the chain, one WAL line), not the fleet.
    assert small == {"to_dict": 2, "dumps": 1}


def test_double_release_is_an_error_not_a_clamp(short_spec):
    # K = 2 * (1 + 1) = 4 virtual stages: a 6-NF chain cannot single-home.
    topology = FabricTopology.full_mesh(
        2, spec=short_spec, link_capacity_gbps=40.0, max_recirculations=1
    )
    fabric = FabricOrchestrator(topology, num_types=6, with_dataplane=False)
    long_chain = chain(
        7, nf_types=(1, 2, 3, 4, 5, 6), rules=(5,) * 6, bandwidth_gbps=10.0
    )
    assert fabric.admit(long_chain).stitched
    record = fabric.tenants[7]
    (key,) = record.links
    assert fabric.links[key].load_bps == long_chain.bw_bps

    assert fabric.evict(7).ok
    second = fabric.evict(7)
    assert not second.ok and second.reason == "unknown-tenant"
    assert all(link.load_bps == 0 for link in fabric.links.values())
    assert all(s.state.backplane_bps == 0 for s in fabric.shards.values())

    # Releasing behind the seam's back is caught, not absorbed.
    with pytest.raises(PlacementError, match="over-release"):
        fabric.links[key].release_load(long_chain.bw_bps)
    for segment in record.segments:
        shard = fabric.shards[segment.switch]
        assert not shard.evict(7).ok
        with pytest.raises(PlacementError, match="over-release"):
            shard.state.release_backplane(long_chain.bw_bps)
    assert fabric.check_invariant() == []

    # And a load that *is* wrong is reported, never silently left at 0.
    fabric.admit(long_chain)
    fabric.links[key].release_load(long_chain.bw_bps)
    assert any("link" in p for p in fabric.check_invariant())
