"""Recovery tests: checkpoint + WAL replay must rebuild a bit-identical
control-plane state after clean shutdowns, simulated crashes at every fsync
policy, disk mutilation, and crashes mid two-phase install / mid drain."""

import pytest

from repro.controller import ChurnEngine, synthesize_churn
from repro.durability import (
    DISK_MODES,
    ControllerDurability,
    CountdownCrash,
    CrashError,
    FabricDurability,
    RecoveryEngine,
    mutilate,
    recover_controller,
    recover_fabric,
    scan_wal,
)
from tests.durability.conftest import (
    SWEEP_CHURN,
    SWEEP_SEED,
    chain,
    make_controller,
    make_fabric,
)


def churn_events(n=None, seed=SWEEP_SEED):
    events = synthesize_churn(SWEEP_CHURN, seed)
    return events if n is None else events[:n]


def durable_controller(tmp_path, tiny_instance, **kwargs):
    controller = make_controller(tiny_instance)
    durability = ControllerDurability(tmp_path, **kwargs)
    durability.attach(controller)
    return controller, durability


def last_committed_digest(wal_path, fallback):
    """The post-op digest of the newest surviving WAL record (the digest the
    recovered state must reproduce), or ``fallback`` for an empty log."""
    records = scan_wal(wal_path).records
    return records[-1].data["digest"] if records else fallback


# ----------------------------------------------------------------------
# Controller recovery
# ----------------------------------------------------------------------
def test_clean_shutdown_recovers_bit_identical(tmp_path, tiny_instance):
    controller, durability = durable_controller(
        tmp_path, tiny_instance, fsync="always", checkpoint_every=0
    )
    ChurnEngine(controller).replay(churn_events(n=80))
    live_digest = controller.state.digest()
    live_tenants = sorted(controller.tenants)
    durability.close()

    recovered, report = recover_controller(tmp_path)
    assert report.ok
    assert report.kind == "controller"
    assert recovered.state.digest() == live_digest
    assert report.digest == live_digest
    assert sorted(recovered.tenants) == live_tenants
    # The recovery is flight-recorded.
    assert any(
        d["reason"] == "recovery" and d["context"]["ok"]
        for d in recovered.recorder.dumps
    )


def test_recovery_is_idempotent(tmp_path, tiny_instance):
    controller, durability = durable_controller(
        tmp_path, tiny_instance, fsync="always", checkpoint_every=0
    )
    ChurnEngine(controller).replay(churn_events(n=60))
    durability.close()

    first, report1 = recover_controller(tmp_path)
    second, report2 = recover_controller(tmp_path)
    assert report1.ok and report2.ok
    assert first.state.digest() == second.state.digest()
    assert report2.last_lsn == report1.last_lsn
    # Recovery #1 checkpointed at its last LSN, so #2 replays nothing.
    assert report2.checkpoint_lsn == report1.last_lsn
    assert report2.replayed == 0


def test_replay_engine_skips_already_applied_lsns(tmp_path, tiny_instance):
    controller, durability = durable_controller(
        tmp_path, tiny_instance, fsync="always", checkpoint_every=0
    )
    for t in (1, 2, 3):
        assert controller.admit(chain(t)).ok
    records = durability.wal.records()
    durability.close()

    from repro.durability.recover import apply_controller_record

    fresh = make_controller(tiny_instance)
    engine = RecoveryEngine(lambda r: apply_controller_record(fresh, r))
    engine.replay(records)
    assert engine.problems == []
    digest_once = fresh.state.digest()
    # Replaying the same prefix again is a no-op, not a double-apply.
    engine.replay(records)
    assert engine.problems == []
    assert engine.skipped == 3
    assert fresh.state.digest() == digest_once == controller.state.digest()


def test_abort_recovers_to_durable_prefix(tmp_path, tiny_instance):
    controller, durability = durable_controller(
        tmp_path, tiny_instance, fsync="batch", batch_every=8, checkpoint_every=0
    )
    ChurnEngine(controller).replay(churn_events(n=100))
    genesis = make_controller(tiny_instance).state.digest()
    durable = durability.wal.durable_offset
    durability.abort()  # simulated death: no clean-shutdown fsync
    mutilate(durability.wal.path, "lose-unsynced", durable_offset=durable)
    # Recovery compacts the log, so grab the oracle digest first.
    expected = last_committed_digest(durability.wal.path, genesis)

    recovered, report = recover_controller(tmp_path)
    assert report.ok
    assert recovered.state.digest() == expected
    # With batch_every=8 the lost tail is at most 7 records.
    assert 0 < report.last_lsn <= 100


def test_mid_stream_checkpoints_shorten_replay(tmp_path, tiny_instance):
    controller, durability = durable_controller(
        tmp_path, tiny_instance, fsync="always", checkpoint_every=16
    )
    # The tiny switch refuses most of the stream; the full 430-event sweep
    # commits ~100 ops, enough for several checkpoint cycles.
    ChurnEngine(controller).replay(churn_events())
    live_digest = controller.state.digest()
    taken = durability.checkpoints_taken
    durability.close()
    assert taken >= 2

    recovered, report = recover_controller(tmp_path)
    assert report.ok
    assert recovered.state.digest() == live_digest
    assert report.checkpoint_lsn > 0
    assert report.replayed == report.last_lsn - report.checkpoint_lsn


@pytest.mark.parametrize("mode", DISK_MODES)
def test_disk_mutilation_modes_recover_cleanly(tmp_path, tiny_instance, mode):
    controller, durability = durable_controller(
        tmp_path, tiny_instance, fsync="batch", batch_every=4, checkpoint_every=0
    )
    ChurnEngine(controller).replay(churn_events(n=60))
    genesis = make_controller(tiny_instance).state.digest()
    durable = durability.wal.durable_offset
    durability.abort()
    mutilate(durability.wal.path, mode, durable_offset=durable)
    expected = last_committed_digest(durability.wal.path, genesis)

    recovered, report = recover_controller(tmp_path)
    assert report.ok
    assert recovered.state.digest() == expected


def test_catalog_and_reconfigure_ops_replay(tmp_path, tiny_instance):
    controller = make_controller(
        tiny_instance, with_dataplane=True, reconfigure_threshold=0.01
    )
    durability = ControllerDurability(tmp_path, checkpoint_every=0)
    durability.attach(controller)
    for t in range(1, 6):
        assert controller.admit(chain(t, rules=(1, 1, 1))).ok
    controller.install_catalog()
    for t in (1, 2, 3, 4):
        assert controller.evict(t).ok
    reconfigured = controller.maybe_reconfigure()
    live_digest = controller.state.digest()
    ops = [r.op for r in durability.wal.records()]
    durability.close()
    assert "catalog" in ops
    if reconfigured:
        assert "reconfigure" in ops

    recovered, report = recover_controller(tmp_path)
    assert report.ok
    assert recovered.state.digest() == live_digest


def test_crash_mid_install_leaves_no_record(tmp_path, tiny_instance):
    controller = make_controller(tiny_instance, with_dataplane=True)
    durability = ControllerDurability(tmp_path, checkpoint_every=0)
    durability.attach(controller)
    assert controller.admit(chain(1)).ok
    pre_digest = controller.state.digest()

    # Die partway through the two-phase install of tenant 2: the op never
    # completed, so it must never reach the log.
    controller.installer.on_batch = CountdownCrash(2)
    with pytest.raises(CrashError):
        controller.admit(chain(2))
    durability.abort()

    recovered, report = recover_controller(tmp_path)
    assert report.ok
    assert report.last_lsn == 1
    assert recovered.state.digest() == pre_digest
    assert sorted(recovered.tenants) == [1]
    assert 2 in recovered.installer.installed or 2 not in recovered.tenants


# ----------------------------------------------------------------------
# Fabric recovery
# ----------------------------------------------------------------------
def durable_fabric(tmp_path, **kwargs):
    fabric = make_fabric()
    durability = FabricDurability(tmp_path, **kwargs)
    durability.attach(fabric)
    return fabric, durability


def test_fabric_churn_with_drain_recovers_bit_identical(tmp_path):
    fabric, durability = durable_fabric(
        tmp_path, fsync="always", checkpoint_every=0
    )
    events = churn_events(n=80)
    ChurnEngine(fabric).replay(events[:40])
    names = fabric.topology.switch_names
    fabric.drain(names[1])
    ChurnEngine(fabric).replay(events[40:60])
    fabric.undrain(names[1])
    ChurnEngine(fabric).replay(events[60:])
    live_digest = fabric.digest()
    durability.close()
    ops = {r.op for r in scan_wal(durability.wal.path).records}
    assert {"drain", "undrain"} <= ops

    recovered, report = recover_fabric(tmp_path)
    assert report.ok
    assert report.kind == "fabric"
    assert recovered.digest() == live_digest
    assert recovered.check_invariant() == []
    assert sorted(recovered.tenants) == sorted(fabric.tenants)


def test_fabric_recovery_restores_from_checkpoint(tmp_path):
    fabric, durability = durable_fabric(
        tmp_path, fsync="always", checkpoint_every=24
    )
    ChurnEngine(fabric).replay(churn_events(n=120))
    live_digest = fabric.digest()
    assert durability.checkpoints_taken >= 1
    durability.close()

    recovered, report = recover_fabric(tmp_path)
    assert report.ok
    assert report.checkpoint_lsn > 0
    assert recovered.digest() == live_digest
    assert recovered.check_invariant() == []


def shard_traffic(fabric):
    """One seeded multi-tenant batch through every shard pipeline, as
    comparable per-packet tuples (minus ``tenant_id``: the wire ID it is
    rewritten to carries an install epoch that recovery renumbers)."""
    from repro.traffic.flows import FlowGenerator

    out = {}
    for name, shard in fabric.shards.items():
        batch = []
        for tenant_id in sorted(shard.tenants):
            gen = FlowGenerator(tenant_id)
            batch.extend(
                gen.packets(gen.flows(4, tenant_id=tenant_id), 8, size_bytes=64)
            )
        out[name] = [
            (
                r.packet.src_ip, r.packet.dst_ip, r.packet.dscp,
                r.packet.egress_port, r.packet.dropped, r.passes,
            )
            for r in shard.pipeline.process_batch(batch)
        ]
    return out


def test_fabric_recovery_reattaches_the_fast_path(tmp_path):
    fabric = make_fabric(with_dataplane=True, fastpath=True)
    durability = FabricDurability(tmp_path, fsync="always", checkpoint_every=24)
    durability.attach(fabric)
    ChurnEngine(fabric).replay(churn_events(n=60))
    live = shard_traffic(fabric)
    assert sum(len(rows) for rows in live.values()) > 0
    durability.abort()

    recovered, report = recover_fabric(tmp_path)
    assert report.ok
    assert all(s.fastpath is not None for s in recovered.shards.values())
    assert shard_traffic(recovered) == live
    assert sum(
        s.fastpath.stats["compiled_packets"] for s in recovered.shards.values()
    ) > 0


def test_crash_mid_drain_recovers_pre_drain_state(tmp_path):
    fabric, durability = durable_fabric(
        tmp_path, fsync="always", checkpoint_every=0
    )
    for t in range(1, 9):
        assert fabric.admit(chain(t, nf_types=(1, 2, 3, 4, 5), rules=(3,) * 5)).ok
    pre_digest = fabric.digest()
    pre_lsn = durability.wal.last_lsn
    victim = fabric.topology.switch_names[0]
    assert len(fabric.shards[victim].tenants) >= 2

    # The drain re-homes tenants one by one; crash as the second one is
    # re-admitted, before the fabric-level drain record commits.
    crash = CountdownCrash(2)
    for shard in fabric.shards.values():
        def admit(sfc, real=shard.admit):
            crash()
            return real(sfc)

        shard.admit = admit
    with pytest.raises(CrashError):
        fabric.drain(victim)
    assert fabric.digest() != pre_digest  # died with one tenant re-homed
    durability.abort()

    recovered, report = recover_fabric(tmp_path)
    assert report.ok
    assert report.last_lsn == pre_lsn
    assert recovered.digest() == pre_digest
    assert recovered.check_invariant() == []
    assert recovered.drained == set()


def test_fabric_abort_with_torn_tail_recovers(tmp_path):
    fabric, durability = durable_fabric(
        tmp_path, fsync="batch", batch_every=8, checkpoint_every=0
    )
    ChurnEngine(fabric).replay(churn_events(n=90))
    genesis = make_fabric().digest()
    durability.abort()
    mutilate(durability.wal.path, "tear")
    expected = last_committed_digest(durability.wal.path, genesis)

    recovered, report = recover_fabric(tmp_path)
    assert report.ok
    assert recovered.digest() == expected
    assert recovered.check_invariant() == []
