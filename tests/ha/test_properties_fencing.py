"""Property tests for the fencing protocol.

Two invariants the whole HA design rests on:

1. **Fencing tokens are strictly monotonic** across arbitrary interleavings
   of acquisitions, renewals, releases, expiries, and crash-restarts by two
   competing nodes — no epoch is ever granted twice, ``max_epoch`` tracks
   the high-water mark, and at most one node ever passes its fence check.
2. **A stale-epoch writer can never get a frame applied**: whatever order
   frames and epoch observations arrive in, a frame stamped below the
   replica's accepted epoch is rejected without touching the shadow fabric,
   and the accepted epoch never moves backwards.
"""

import tempfile
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import FabricDurability
from repro.errors import FencedError
from repro.ha import InProcessSink, LeaseCoordinator, LeaseStore, StandbyReplica, WalShipper
from tests.durability.conftest import chain, make_fabric
from tests.ha.conftest import FakeClock

actions = st.lists(
    st.tuples(
        st.integers(0, 1),  # which node
        st.sampled_from(["acquire", "renew", "release", "crash"]),
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),  # clock advance first
    ),
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(actions=actions)
def test_epochs_strictly_monotonic_across_elections_and_crashes(actions):
    with tempfile.TemporaryDirectory() as directory:
        clock = FakeClock()
        store = LeaseStore(directory)
        nodes = [
            LeaseCoordinator(f"n{i}", store, ttl_s=2.0, clock=clock)
            for i in range(2)
        ]
        granted: list[int] = []
        for index, action, advance in actions:
            clock.advance(advance)
            if action == "acquire":
                epoch = nodes[index].try_acquire()
                if epoch is not None and epoch not in granted:
                    # A fresh grant must exceed every epoch ever granted —
                    # including ones whose holders crashed or released.
                    assert all(epoch > seen for seen in granted)
                    granted.append(epoch)
            elif action == "renew":
                nodes[index].renew()
            elif action == "release":
                nodes[index].release()
            else:  # crash-restart: new coordinator object, same store
                nodes[index] = LeaseCoordinator(
                    f"n{index}", store, ttl_s=2.0, clock=clock
                )
            fenced_in = 0
            for node in nodes:
                try:
                    node.check_fence()
                    fenced_in += 1
                except FencedError:
                    pass
            assert fenced_in <= 1  # never two unexpired holders
        state = store.read()
        assert state.max_epoch == (max(granted) if granted else 0)


class RecordingSink:
    """Captures the shipper's frames instead of delivering them."""

    def __init__(self) -> None:
        self.frames: list[dict] = []

    def hello(self) -> dict:
        return {"kind": "hello", "last_lsn": 0, "epoch": 0}

    def send(self, frame: dict) -> None:
        self.frames.append(frame)

    def close(self) -> None:
        pass


@lru_cache(maxsize=1)
def real_frames() -> tuple[dict, ...]:
    """One manifest + six record frames + a heartbeat, captured from a real
    primary (plain dicts — safe to re-stamp with arbitrary epochs)."""
    with tempfile.TemporaryDirectory() as directory:
        fabric = make_fabric()
        durability = FabricDurability(
            directory, fsync="always", checkpoint_every=0
        )
        durability.attach(fabric)
        for tenant in range(1, 7):
            fabric.admit(chain(tenant))
        sink = RecordingSink()
        WalShipper(directory, sink, epoch_fn=lambda: 0).pump()
        durability.close()
    return tuple(sink.frames)


frame_ops = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.integers(0, 8)),
        st.tuples(st.just("feed"), st.integers(0, 8), st.integers(0, 7)),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=frame_ops)
def test_stale_epoch_writer_never_gets_a_frame_applied(ops):
    frames = real_frames()
    standby = StandbyReplica()
    standby.feed(frames[0])  # the manifest, at the starting epoch bar (0)
    for op in ops:
        bar = standby.accepted_epoch
        applied = standby.applied_lsn
        count = standby.records_applied
        if op[0] == "observe":
            standby.observe_epoch(op[1])
            assert standby.accepted_epoch == max(bar, op[1])
        else:
            _, epoch, index = op
            frame = dict(frames[index % len(frames)], epoch=epoch)
            accepted = standby.feed(frame)
            assert accepted == (epoch >= bar)
            if not accepted:
                # The rejected frame touched nothing.
                assert standby.applied_lsn == applied
                assert standby.records_applied == count
                assert standby.accepted_epoch == bar
        assert standby.accepted_epoch >= bar  # the bar never drops
    # The replica never invents history: its LSN is bounded by what the
    # primary ever committed.  (Out-of-order delivery may trip the digest
    # cross-check — that is the guard working, not a gate failure.)
    assert standby.applied_lsn <= 6


def test_in_process_sink_matches_recorded_frames():
    """The recorded frames drive a replica to the same state the live sink
    would — the property test's corpus is faithful."""
    frames = real_frames()
    replica = StandbyReplica()
    for frame in frames:
        replica.feed(frame)
    assert replica.applied_lsn == 6
    assert replica.problems == []
    assert isinstance(InProcessSink(replica).hello()["last_lsn"], int)
