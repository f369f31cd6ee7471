"""The shipping layer: frame encode/decode on real sockets, the WAL tailer's
incremental reads and compaction-gap detection, and the shipper end to end
over both transports (in-process and TCP)."""

import socket
import struct
import time

import pytest

from repro.durability import FabricDurability, WriteAheadLog
from repro.durability.wal import WalTailer
from repro.errors import DurabilityError
from repro.ha import (
    InProcessSink,
    ReplicationListener,
    SocketSink,
    StandbyReplica,
    WalShipper,
    encode_frame,
    recv_frame,
)
from tests.durability.conftest import chain, make_fabric


# ----------------------------------------------------------------------
# Frames on the wire
# ----------------------------------------------------------------------
def test_frame_roundtrip_over_a_socketpair():
    a, b = socket.socketpair()
    payload = {"kind": "heartbeat", "epoch": 3, "last_lsn": 17}
    a.sendall(encode_frame(payload))
    a.sendall(encode_frame({"kind": "hello"}))
    assert recv_frame(b) == payload
    assert recv_frame(b) == {"kind": "hello"}
    a.close()
    assert recv_frame(b) is None  # clean EOF at a frame boundary
    b.close()


def test_eof_mid_frame_raises():
    a, b = socket.socketpair()
    frame = encode_frame({"kind": "record", "line": "x" * 100})
    a.sendall(frame[: len(frame) - 20])  # die mid-body
    a.close()
    with pytest.raises(DurabilityError, match="mid-frame"):
        recv_frame(b)
    b.close()


def test_oversized_length_prefix_rejected():
    a, b = socket.socketpair()
    a.sendall(struct.pack(">I", 2**31))
    with pytest.raises(DurabilityError, match="too large"):
        recv_frame(b)
    a.close()
    b.close()


def test_non_object_payload_rejected():
    a, b = socket.socketpair()
    body = b"[1,2,3]"
    a.sendall(struct.pack(">I", len(body)) + body)
    with pytest.raises(DurabilityError, match="JSON object"):
        recv_frame(b)
    a.close()
    b.close()


# ----------------------------------------------------------------------
# The tailer
# ----------------------------------------------------------------------
def test_tailer_reads_incrementally_without_rescanning(tmp_path):
    wal = WriteAheadLog(tmp_path / "t.jsonl", fsync="always")
    first = [wal.append("op", {"i": i}) for i in range(3)]
    tailer = WalTailer(wal.path)
    records, gap = tailer.poll()
    assert records == first
    assert not gap
    more = [wal.append("op", {"i": i}) for i in range(3, 6)]
    records, gap = tailer.poll()
    assert records == more  # only the new tail, not a re-read
    assert not gap
    assert tailer.poll() == ([], False)
    assert tailer.last_lsn == 6
    wal.close()


def test_tailer_resumes_after_a_given_lsn(tmp_path):
    wal = WriteAheadLog(tmp_path / "t.jsonl", fsync="always")
    for i in range(5):
        wal.append("op", {"i": i})
    tailer = WalTailer(wal.path, after_lsn=3)
    records, gap = tailer.poll()
    assert [r.lsn for r in records] == [4, 5]
    assert not gap
    wal.close()


def test_tailer_reports_a_gap_after_compaction(tmp_path):
    """A checkpoint compacts the WAL; a replica that never saw the
    compacted records must get gap=True (ship a checkpoint, not records)."""
    fabric = make_fabric()
    durability = FabricDurability(tmp_path, fsync="always", checkpoint_every=0)
    durability.attach(fabric)
    for t in range(1, 6):
        fabric.admit(chain(t))
    durability.checkpoint(fabric)  # compacts the log behind base_lsn
    fabric.admit(chain(6))

    behind = WalTailer(durability.wal.path, after_lsn=0)
    records, gap = behind.poll()
    assert gap
    caught_up = WalTailer(durability.wal.path, after_lsn=durability.wal.last_lsn)
    assert caught_up.poll() == ([], False)
    durability.close()


# ----------------------------------------------------------------------
# The shipper end to end
# ----------------------------------------------------------------------
def test_shipper_streams_records_in_process(tmp_path):
    fabric = make_fabric()
    durability = FabricDurability(tmp_path, fsync="always", checkpoint_every=0)
    durability.attach(fabric)
    standby = StandbyReplica()
    shipper = WalShipper(tmp_path, InProcessSink(standby), epoch_fn=lambda: 1)

    for t in range(1, 8):
        fabric.admit(chain(t))
        shipper.pump()
    assert standby.applied_lsn == durability.wal.last_lsn
    assert standby.fabric.digest() == fabric.digest()
    assert standby.fabric.role == "standby"
    assert standby.primary_lsn == durability.wal.last_lsn  # heartbeats landed
    durability.close()


def test_shipper_bridges_a_compaction_gap_with_a_checkpoint(tmp_path):
    """A standby connecting *after* compaction can never see the compacted
    records — the shipper must send the latest checkpoint first, then the
    tail, and the replica must land digest-identical anyway."""
    fabric = make_fabric()
    durability = FabricDurability(tmp_path, fsync="always", checkpoint_every=0)
    durability.attach(fabric)
    for t in range(1, 10):
        fabric.admit(chain(t))
    durability.checkpoint(fabric)
    fabric.evict(3)
    fabric.admit(chain(10))

    standby = StandbyReplica()
    shipper = WalShipper(tmp_path, InProcessSink(standby), epoch_fn=lambda: 1)
    shipper.pump()
    assert standby.checkpoints_restored == 1
    assert standby.applied_lsn == durability.wal.last_lsn
    assert standby.fabric.digest() == fabric.digest()
    assert shipper.shipped_checkpoints == 1
    durability.close()


def test_shipper_requires_a_checkpoint_to_cover_a_gap(tmp_path):
    """Compacted WAL + no loadable checkpoint = the stream cannot be
    reconstructed; the shipper must refuse loudly, not ship a hole."""
    fabric = make_fabric()
    durability = FabricDurability(
        tmp_path, fsync="always", checkpoint_every=0, keep_checkpoints=1
    )
    durability.attach(fabric)
    for t in range(1, 5):
        fabric.admit(chain(t))
    durability.checkpoint(fabric)
    durability.close()
    for path in tmp_path.glob("checkpoint-*.json"):
        path.unlink()

    standby = StandbyReplica()
    shipper = WalShipper(tmp_path, InProcessSink(standby), epoch_fn=lambda: 1)
    with pytest.raises(DurabilityError, match="no loadable checkpoint"):
        shipper.pump()


def wait_for(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


def test_socket_transport_replicates_and_resumes(tmp_path):
    """The TCP path: listener hello -> shipper resume -> frames over the
    wire -> replica digest-identical.  A reconnect resumes from the
    replica's applied LSN instead of re-shipping history."""
    fabric = make_fabric()
    durability = FabricDurability(tmp_path, fsync="always", checkpoint_every=0)
    durability.attach(fabric)
    for t in range(1, 6):
        fabric.admit(chain(t))

    standby = StandbyReplica()
    listener = ReplicationListener(standby)
    try:
        sink = SocketSink(listener.host, listener.port)
        assert sink.hello() == {"kind": "hello", "last_lsn": 0, "epoch": 0}
        shipper = WalShipper(tmp_path, sink, epoch_fn=lambda: 1)
        shipper.pump()
        wait_for(lambda: standby.applied_lsn == durability.wal.last_lsn)
        assert standby.fabric.digest() == fabric.digest()
        shipper.close()

        # Reconnect: the fresh hello carries the resume point, so only the
        # records committed since the disconnect flow.
        fabric.admit(chain(6))
        sink2 = SocketSink(listener.host, listener.port)
        assert sink2.hello()["last_lsn"] == standby.applied_lsn
        shipper2 = WalShipper(tmp_path, sink2, epoch_fn=lambda: 1)
        shipper2.pump()
        wait_for(lambda: standby.applied_lsn == durability.wal.last_lsn)
        assert shipper2.shipped_records == 1
        assert standby.fabric.digest() == fabric.digest()
        shipper2.close()
    finally:
        listener.close()
        durability.close()
