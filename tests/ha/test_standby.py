"""The hot standby: replay identity under churn, the per-record digest
cross-check, checkpoint bootstrap, the epoch gate, and promote-time guards."""

import pytest

from repro.durability import FabricDurability
from repro.durability.checkpoint import read_manifest
from repro.durability.wal import WalRecord
from repro.errors import DurabilityError
from repro.ha import InProcessSink, StandbyReplica, WalShipper
from tests.durability.conftest import chain, make_fabric
from tests.ha.conftest import apply_event


@pytest.fixture
def primary(tmp_path):
    fabric = make_fabric()
    durability = FabricDurability(tmp_path, fsync="always", checkpoint_every=0)
    durability.attach(fabric)
    yield fabric, durability, tmp_path
    durability.close()


def test_standby_tracks_the_primary_through_churn(primary, ha_events):
    fabric, durability, directory = primary
    standby = StandbyReplica()
    shipper = WalShipper(directory, InProcessSink(standby), epoch_fn=lambda: 1)
    for event in ha_events:
        apply_event(fabric, event)
        shipper.pump()
    assert standby.applied_lsn == durability.wal.last_lsn
    assert standby.fabric.digest() == fabric.digest()
    assert standby.problems == []
    assert standby.fabric.role == "standby"
    status = standby.status()
    assert status["lag_records"] == 0
    assert status["records_applied"] == durability.wal.last_lsn


def test_digest_verification_runs_on_every_record(primary):
    fabric, durability, directory = primary
    standby = StandbyReplica()
    shipper = WalShipper(directory, InProcessSink(standby), epoch_fn=lambda: 1)
    for t in range(1, 11):
        fabric.admit(chain(t))
    shipper.pump()
    snapshot = standby.metrics.snapshot()["counters"]
    # Every record that carries a digest is checked against the shadow
    # fabric, and the newest is kept for the promote-time comparison.
    assert snapshot["ha.digest_verifications"] == 10
    assert standby.last_digest_lsn == standby.applied_lsn == 10
    assert standby.last_digest == fabric.digest()


def test_corrupted_digest_is_caught(primary):
    """A record whose journaled digest disagrees with the replayed state
    must surface as a replay problem (and fail the later promote)."""
    fabric, durability, directory = primary
    standby = StandbyReplica()
    standby.feed({
        "kind": "manifest", "epoch": 1,
        "manifest": read_manifest(directory),
    })
    fabric.admit(chain(1))
    record = durability.wal.records()[-1]
    tampered = WalRecord(
        lsn=record.lsn,
        op=record.op,
        data={**record.data, "digest": "0" * 32},
        epoch=record.epoch,
    )
    standby.feed({
        "kind": "record", "epoch": 1,
        "line": tampered.to_line().decode("utf-8").rstrip("\n"),
    })
    assert standby.applied_lsn == 1
    assert any("digest" in p for p in standby.problems)
    with pytest.raises(DurabilityError, match="diverged"):
        standby.promote(2)  # a divergent replica never promotes


def test_checkpoint_frame_bootstraps_a_late_standby(primary):
    """A replica connecting after compaction starts from the checkpoint
    frame, then replays only the tail."""
    fabric, durability, directory = primary
    for t in range(1, 9):
        fabric.admit(chain(t))
    durability.checkpoint(fabric)
    fabric.evict(2)

    standby = StandbyReplica()
    shipper = WalShipper(directory, InProcessSink(standby), epoch_fn=lambda: 1)
    shipper.pump()
    assert standby.checkpoints_restored == 1
    assert standby.records_applied == 1  # just the post-checkpoint evict
    assert standby.applied_lsn == durability.wal.last_lsn
    assert standby.fabric.digest() == fabric.digest()


def test_stale_epoch_frames_are_rejected(primary):
    fabric, durability, directory = primary
    standby = StandbyReplica()
    shipper = WalShipper(directory, InProcessSink(standby), epoch_fn=lambda: 1)
    fabric.admit(chain(1))
    shipper.pump()
    applied = standby.applied_lsn

    standby.observe_epoch(5)  # a new primary won the lease
    fabric.admit(chain(2))
    stale = WalShipper(directory, InProcessSink(standby), epoch_fn=lambda: 1)
    stale.pump()  # the deposed primary limps on at epoch 1
    assert standby.applied_lsn == applied  # nothing landed
    assert standby.frames_rejected > 0
    counters = standby.metrics.snapshot()["counters"]
    assert counters["ha.frames_rejected_stale_epoch"] == standby.frames_rejected

    fresh = WalShipper(directory, InProcessSink(standby), epoch_fn=lambda: 5)
    fresh.pump()  # the same records at the new epoch are welcome
    assert standby.applied_lsn == durability.wal.last_lsn


def test_record_frames_keep_their_original_epochs(primary):
    """History is immutable: the epoch gate checks the frame envelope, not
    the record inside — a new primary re-ships old epoch-0 records."""
    fabric, durability, directory = primary
    fabric.admit(chain(1))
    standby = StandbyReplica()
    standby.observe_epoch(3)
    shipper = WalShipper(directory, InProcessSink(standby), epoch_fn=lambda: 3)
    shipper.pump()
    assert standby.applied_lsn == durability.wal.last_lsn


def test_malformed_frames_raise(primary):
    fabric, durability, directory = primary
    standby = StandbyReplica()
    valid_line = (
        WalRecord(lsn=1, op="noop", data={})
        .to_line().decode("utf-8").rstrip("\n")
    )
    with pytest.raises(DurabilityError, match="before the manifest"):
        standby.feed({"kind": "record", "epoch": 0, "line": valid_line})
    with pytest.raises(DurabilityError, match="before the manifest"):
        standby.feed({"kind": "checkpoint", "epoch": 0,
                      "checkpoint": {"lsn": 1}})
    standby.feed({
        "kind": "manifest", "epoch": 0, "manifest": read_manifest(directory)
    })
    with pytest.raises(DurabilityError, match="CRC"):
        standby.feed({"kind": "record", "epoch": 0,
                      "line": '{"crc": 1, "rec": {}}'})
    with pytest.raises(DurabilityError, match="unknown frame kind"):
        standby.feed({"kind": "mystery", "epoch": 0})


def test_promote_requires_a_manifest():
    with pytest.raises(DurabilityError, match="no manifest"):
        StandbyReplica().promote(1)


def test_divergence_is_reported_at_the_lsn_it_happens(primary):
    """No cadence to wait for: the one record whose digest disagrees is
    named by its LSN, its neighbours verify clean, and promotion hands the
    finding to the caller."""
    fabric, durability, directory = primary
    standby = StandbyReplica()
    standby.feed({
        "kind": "manifest", "epoch": 1, "manifest": read_manifest(directory),
    })
    for t in (1, 2, 3):
        fabric.admit(chain(t))
    for record in durability.wal.records():
        if record.lsn == 2:
            record = WalRecord(
                lsn=record.lsn, op=record.op,
                data={**record.data, "digest": "0" * 32}, epoch=record.epoch,
            )
        standby.feed({
            "kind": "record", "epoch": 1,
            "line": record.to_line().decode("utf-8").rstrip("\n"),
        })
    assert standby.applied_lsn == 3
    [problem] = standby.problems
    assert problem.startswith("lsn 2:") and "digest" in problem
    counters = standby.metrics.snapshot()["counters"]
    assert counters["ha.digest_verifications"] == 3
    # LSN 3's digest verified, so the replica *is* the primary's state and
    # promotes — reporting what it saw on the way.
    assert standby.promote(2) == [problem]


def test_promote_refuses_a_divergent_replica(primary):
    fabric, durability, directory = primary
    standby = StandbyReplica()
    shipper = WalShipper(directory, InProcessSink(standby), epoch_fn=lambda: 1)
    fabric.admit(chain(1))
    fabric.admit(chain(2))
    shipper.pump()
    assert standby.problems == []
    standby.fabric.evict(2)  # the shadow moves with no record behind it
    with pytest.raises(DurabilityError, match="diverged"):
        standby.promote(2)
