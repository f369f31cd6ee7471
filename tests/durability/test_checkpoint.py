"""Checkpoint tests: snapshot/restore round-trips that must be bit-identical
(digest-verified), the atomic on-disk store, and the attach-side coordinators'
manifest + auto-checkpoint behaviour."""

import json

import pytest

from repro.durability import (
    CheckpointStore,
    ControllerDurability,
    FabricDurability,
    controller_checkpoint,
    fabric_checkpoint,
    read_manifest,
    restore_controller,
    restore_fabric,
    scan_wal,
)
from repro.durability.checkpoint import MANIFEST_NAME
from repro.errors import DurabilityError
from tests.durability.conftest import chain, make_controller, make_fabric


def fake_checkpoint(lsn: int) -> dict:
    return {"kind": "controller-checkpoint", "lsn": lsn, "payload": lsn * 7}


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------
def test_store_roundtrip_and_retention(tmp_path):
    store = CheckpointStore(tmp_path, keep=3)
    for lsn in (1, 2, 3, 4, 5):
        store.save(fake_checkpoint(lsn))
    assert store.lsns() == [3, 4, 5]
    assert store.load(4) == fake_checkpoint(4)
    assert store.load(1) is None  # pruned
    assert store.load_latest() == fake_checkpoint(5)


def test_store_skips_corrupt_latest(tmp_path):
    store = CheckpointStore(tmp_path, keep=3)
    store.save(fake_checkpoint(1))
    store.save(fake_checkpoint(2))
    newest = store.path_for(2)
    body = newest.read_bytes()
    newest.write_bytes(body[: len(body) // 2])  # torn write
    assert store.load(2) is None
    assert store.load_latest() == fake_checkpoint(1)


def test_store_rejects_bad_crc(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(fake_checkpoint(1))
    path = store.path_for(1)
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["checkpoint"]["payload"] = 999  # mutate without refreshing CRC
    path.write_text(json.dumps(envelope), encoding="utf-8")
    assert store.load(1) is None


def test_store_keep_validation(tmp_path):
    with pytest.raises(DurabilityError):
        CheckpointStore(tmp_path, keep=0)


# ----------------------------------------------------------------------
# Controller snapshot / restore
# ----------------------------------------------------------------------
def populated_controller(tiny_instance, with_dataplane=False):
    controller = make_controller(tiny_instance, with_dataplane=with_dataplane)
    for t in (1, 2, 3):
        assert controller.admit(chain(t)).ok
    assert controller.evict(2).ok  # leave physical-NF residue behind
    return controller


def test_controller_checkpoint_restore_is_bit_identical(tiny_instance):
    controller = populated_controller(tiny_instance)
    checkpoint = controller_checkpoint(controller, lsn=4)

    fresh = make_controller(tiny_instance)
    restore_controller(fresh, checkpoint)
    assert fresh.state.digest() == controller.state.digest()
    assert sorted(fresh.tenants) == sorted(controller.tenants)
    for t in controller.tenants:
        assert fresh.tenants[t].stages == controller.tenants[t].stages


def test_controller_checkpoint_restore_with_dataplane(tiny_instance):
    controller = populated_controller(tiny_instance, with_dataplane=True)
    checkpoint = controller_checkpoint(controller, lsn=4)

    fresh = make_controller(tiny_instance, with_dataplane=True)
    restore_controller(fresh, checkpoint)
    assert fresh.state.digest() == controller.state.digest()
    # The surviving tenants' rule generations are installed in the data plane.
    assert sorted(fresh.installer.installed) == [1, 3]


def test_restore_requires_fresh_controller(tiny_instance):
    controller = populated_controller(tiny_instance)
    checkpoint = controller_checkpoint(controller, lsn=4)
    with pytest.raises(DurabilityError):
        restore_controller(controller, checkpoint)


def test_restore_rejects_digest_mismatch(tiny_instance):
    controller = populated_controller(tiny_instance)
    checkpoint = controller_checkpoint(controller, lsn=4)
    checkpoint["digest"] = "0" * 32
    with pytest.raises(DurabilityError, match="diverged"):
        restore_controller(make_controller(tiny_instance), checkpoint)


def test_restore_tenant_validates_shape(tiny_instance):
    controller = make_controller(tiny_instance)
    assert controller.admit(chain(1)).ok
    with pytest.raises(DurabilityError):
        controller.restore_tenant(chain(1), (0, 1, 2))  # duplicate tenant
    with pytest.raises(DurabilityError):
        controller.restore_tenant(chain(2), (0, 1))  # wrong stage count


# ----------------------------------------------------------------------
# Fabric snapshot / restore
# ----------------------------------------------------------------------
def populated_fabric(with_dataplane=False):
    fabric = make_fabric(with_dataplane=with_dataplane)
    names = fabric.topology.switch_names
    for t in range(1, 7):
        assert fabric.admit(chain(t, nf_types=(1, 2, 3, 4, 5), rules=(3,) * 5)).ok
    assert fabric.evict(4).ok
    report = fabric.drain(names[0])
    assert report.switch == names[0]
    return fabric


def test_fabric_checkpoint_restore_is_bit_identical():
    fabric = populated_fabric()
    checkpoint = fabric_checkpoint(fabric, lsn=8)

    fresh = make_fabric()
    restore_fabric(fresh, checkpoint)
    assert fresh.digest() == fabric.digest()
    assert fresh.drained == fabric.drained
    assert fresh.check_invariant() == []
    for t in fabric.tenants:
        assert [
            (s.switch, s.start, s.stop, s.stages)
            for s in fresh.tenants[t].segments
        ] == [
            (s.switch, s.start, s.stop, s.stages)
            for s in fabric.tenants[t].segments
        ]


def test_fabric_checkpoint_restore_with_dataplane():
    fabric = populated_fabric(with_dataplane=True)
    checkpoint = fabric_checkpoint(fabric, lsn=8)
    fresh = make_fabric(with_dataplane=True)
    restore_fabric(fresh, checkpoint)
    assert fresh.digest() == fabric.digest()
    survivor = sorted(fresh.tenants)[0]
    assert fresh.probe_tenant(survivor)


def test_fabric_restore_rejects_unknown_switch():
    fabric = populated_fabric()
    checkpoint = fabric_checkpoint(fabric, lsn=8)
    checkpoint["physical"]["ghost-switch"] = checkpoint["physical"][
        fabric.topology.switch_names[0]
    ]
    with pytest.raises(DurabilityError, match="unknown switch"):
        restore_fabric(make_fabric(), checkpoint)


# ----------------------------------------------------------------------
# Attach-side coordinators
# ----------------------------------------------------------------------
def test_controller_durability_journals_committed_ops(tmp_path, tiny_instance):
    controller = make_controller(tiny_instance)
    durability = ControllerDurability(tmp_path, checkpoint_every=0)
    durability.attach(controller)
    assert controller.admit(chain(1)).ok
    assert not controller.admit(chain(1)).ok  # duplicate tenant: refused
    assert controller.evict(1).ok
    durability.close()

    ops = [r.op for r in scan_wal(tmp_path / ControllerDurability.WAL_NAME).records]
    assert ops == ["admit", "evict"]  # the refused admit left no record
    manifest = read_manifest(tmp_path)
    assert manifest["kind"] == "controller"
    assert manifest["num_types"] == tiny_instance.num_types


def test_manifest_is_immutable_after_first_attach(tmp_path, tiny_instance):
    controller = make_controller(tiny_instance)
    ControllerDurability(tmp_path, checkpoint_every=0).attach(controller).close()
    original = (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8")
    other = make_controller(tiny_instance, name="other-switch")
    ControllerDurability(tmp_path, checkpoint_every=0).attach(other).close()
    assert (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8") == original


def test_auto_checkpoint_cadence_and_compaction(tmp_path, tiny_instance):
    controller = make_controller(tiny_instance)
    durability = ControllerDurability(tmp_path, checkpoint_every=3)
    durability.attach(controller)
    for t in range(1, 8):  # 7 committed ops -> checkpoints at LSN 3 and 6
        assert controller.admit(chain(t, rules=(1, 1, 1))).ok
    assert durability.checkpoints_taken == 2
    assert durability.store.lsns() == [3, 6]
    # Log is compacted to the records past the newest checkpoint.
    assert [r.lsn for r in durability.wal.records()] == [7]
    durability.close()


def test_checkpoint_every_zero_checkpoints_only_on_request(tmp_path, tiny_instance):
    controller = make_controller(tiny_instance)
    durability = ControllerDurability(tmp_path, checkpoint_every=0)
    durability.attach(controller)
    for t in range(1, 6):
        assert controller.admit(chain(t, rules=(1, 1, 1))).ok
    assert durability.checkpoints_taken == 0
    assert durability.store.lsns() == []
    durability.close()


def test_fabric_durability_keeps_one_journal_for_all_shards(tmp_path):
    fabric = make_fabric()
    durability = FabricDurability(tmp_path, checkpoint_every=0)
    durability.attach(fabric)
    assert all(shard.durability is None for shard in fabric.shards.values())
    for t in range(1, 5):
        assert fabric.admit(chain(t)).ok
    assert fabric.evict(2).ok
    records = durability.wal.records()
    assert [r.op for r in records] == ["admit"] * 4 + ["evict"]
    assert all("digest" in r.data for r in records)
    assert [p.name for p in tmp_path.glob("**/*.wal.jsonl")] == ["fabric.wal.jsonl"]
    assert not (tmp_path / "shards").exists()

    durability.checkpoint(fabric)
    assert durability.wal.records() == []
    assert durability.store.lsns() == [5]
    durability.close()
