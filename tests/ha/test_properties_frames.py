"""Property test for the replication frame seam.

A malformed frame on a live :class:`ReplicationListener` must cost its
sender the connection and nothing else: the accept loop keeps running, the
next connection gets a ``hello`` at the same resume point, and the standby's
fabric digest does not move.  The frames are real ones from a primary with
one field replaced by a value of the wrong type.
"""

import tempfile
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability import FabricDurability
from repro.ha import ReplicationListener, SocketSink, StandbyReplica, WalShipper
from tests.durability.conftest import chain, make_fabric
from tests.ha.test_properties_fencing import RecordingSink


@lru_cache(maxsize=1)
def real_frames() -> tuple[dict, ...]:
    """Manifest, checkpoint, two records and a heartbeat from a primary
    whose log was compacted at lsn 4 (so the stream opens with the
    checkpoint that bridges the gap)."""
    with tempfile.TemporaryDirectory() as directory:
        fabric = make_fabric()
        durability = FabricDurability(directory, fsync="always", checkpoint_every=0)
        durability.attach(fabric)
        for tenant in range(1, 5):
            fabric.admit(chain(tenant))
        durability.checkpoint(fabric)
        for tenant in range(5, 7):
            fabric.admit(chain(tenant))
        sink = RecordingSink()
        WalShipper(directory, sink, epoch_fn=lambda: 1).pump()
        durability.close()
    assert [f["kind"] for f in sink.frames] == [
        "manifest", "checkpoint", "record", "record", "heartbeat",
    ]
    return tuple(sink.frames)


@lru_cache(maxsize=1)
def primed_standby() -> StandbyReplica:
    """A standby that has applied the whole real stream."""
    standby = StandbyReplica(with_dataplane=False)
    for frame in real_frames():
        standby.feed(frame)
    assert standby.applied_lsn == 6 and standby.problems == []
    return standby


#: Field paths a frame's consumer reads (``("checkpoint", "lsn")`` is the
#: checkpoint body's own LSN).
FIELDS = (
    ("kind",), ("epoch",), ("last_lsn",), ("sent_at",), ("line",),
    ("manifest",), ("checkpoint",), ("checkpoint", "lsn"),
)

#: JSON values that are not integers (booleans and integral floats
#: included), so none of them is a valid epoch or LSN.
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def mutate(frame: dict, path: tuple[str, ...], value) -> dict:
    frame = dict(frame)
    if len(path) == 2 and isinstance(frame.get(path[0]), dict):
        frame[path[0]] = {**frame[path[0]], path[1]: value}
    else:
        frame[path[0]] = value
    return frame


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(0, 4),
    path=st.sampled_from(FIELDS),
    value=junk,
)
@example(index=4, path=("epoch",), value="x")
@example(index=4, path=("sent_at",), value="soon")
@example(index=4, path=("last_lsn",), value=[1])
def test_a_malformed_frame_drops_its_connection_only(index, path, value):
    standby = primed_standby()
    digest = standby.fabric.digest()
    listener = ReplicationListener(standby)
    try:
        sink = SocketSink(listener.host, listener.port, timeout_s=2.0)
        sink.send(mutate(real_frames()[index], path, value))
        sink.close()
        # The accept loop handles one connection at a time, so this hello
        # comes after the malformed frame was dealt with.
        again = SocketSink(listener.host, listener.port, timeout_s=2.0)
        assert again.hello() == {"kind": "hello", "last_lsn": 6, "epoch": 1}
        again.close()
        assert listener._thread.is_alive()
    finally:
        listener.close()
    assert standby.applied_lsn == 6
    assert standby.fabric.digest() == digest
