"""The HA acceptance sweep: kill the primary at every seeded crash site
across the durability boundaries (WAL append/fsync and checkpoint/compaction
rename windows), mutilate its disk, and fail over.  Every point must promote
a standby that (a) holds **every acknowledged op** and (b) is
digest-identical to the committed-LSN oracle — and the deposed primary must
be fenced out of journaling and shipping forever after.

The lease runs on the shared fake clock (``sleep`` advances it), so waiting
out the dead primary's TTL costs no wall time and the whole sweep is
deterministic.
"""

import pytest

from repro.durability import (
    DISK_MODES,
    DURABILITY_SITES,
    CrashError,
    FaultInjector,
    crash_sites,
)
from repro.errors import FencedError
from repro.ha import HaCluster, InProcessSink, WalShipper
from tests.durability.conftest import SWEEP_SEED, make_fabric
from tests.ha.conftest import FakeClock, apply_event

#: Ordinals span the 101-op stream (one journal at fsync=always: each WAL
#: site is visited once per op, so a WAL ordinal is an LSN): every site gets
#: its first visit, seeded middles, and one at stream end.  The checkpoint
#: and compaction sites see 6 visits; a point whose ordinal exceeds its
#: site's visit count is a kill at stream end — still a valid failover drill.
MAX_ORDINAL = 100

SWEEP_POINTS = crash_sites(SWEEP_SEED, MAX_ORDINAL, sites=DURABILITY_SITES)


def test_sweep_meets_the_acceptance_floor():
    """>= 16 crash sites x disk-mutilation modes, every durability site
    represented."""
    assert len(SWEEP_POINTS) >= 16
    assert {p.site for p in SWEEP_POINTS} == set(DURABILITY_SITES)


def run_cluster(tmp_path, events, point=None):
    clock = FakeClock()
    cluster = HaCluster(
        tmp_path,
        make_fabric,
        ttl_s=2.0,
        checkpoint_every=16,
        fault_hook=FaultInjector(point) if point is not None else None,
        clock=clock,
        sleep=clock.sleep,
    )
    cluster.start()
    acked = 0
    try:
        for event in events:
            apply_event(cluster.fabric, event)
            # The op returned: its WAL append is durable (fsync=always) —
            # the promoted standby must reach at least this LSN.
            acked = cluster.durability.wal.last_lsn
            cluster.pump()
    except CrashError:
        pass
    return cluster, acked


@pytest.mark.parametrize(
    "index,point",
    list(enumerate(SWEEP_POINTS)),
    ids=[f"{p.site}@{p.at}" for p in SWEEP_POINTS],
)
def test_kill_primary_promotes_standby_with_zero_lost_acks(
    ha_events, ha_oracle, tmp_path, index, point
):
    mode = DISK_MODES[index % len(DISK_MODES)]
    cluster, acked = run_cluster(tmp_path, ha_events, point)
    cluster.kill_primary(mode)
    report = cluster.failover()
    assert report.ok, report.problems
    assert report.epoch == 2
    assert report.applied_lsn >= acked  # zero lost acknowledged ops
    assert report.digest == ha_oracle[report.applied_lsn]
    assert cluster.fabric.check_invariant() == []
    cluster.close()


def test_failover_without_a_crash_loses_nothing(ha_events, ha_oracle, tmp_path):
    """The clean-kill baseline: primary dies at stream end, standby promotes
    at exactly the committed LSN."""
    cluster, acked = run_cluster(tmp_path, ha_events)
    committed = cluster.kill_primary("keep")["committed_lsn"]
    report = cluster.failover()
    assert report.ok, report.problems
    assert report.applied_lsn == committed == acked
    assert report.digest == ha_oracle[committed]
    cluster.close()


def test_promoted_standby_serves_new_ops(ha_events, tmp_path):
    from tests.durability.conftest import chain

    cluster, _acked = run_cluster(tmp_path, ha_events[:20])
    cluster.kill_primary("tear")
    report = cluster.failover()
    assert report.ok
    lsn_before = cluster.durability.wal.last_lsn
    result = cluster.fabric.admit(chain(9001))
    assert result.ok
    assert cluster.durability.wal.last_lsn == lsn_before + 1
    assert cluster.fabric.role == "primary"
    assert cluster.fabric.epoch == 2
    # Killed primary and promoted standby alike: one journal, nothing else.
    assert sorted(
        str(p.relative_to(tmp_path)) for p in tmp_path.glob("**/*.wal.jsonl")
    ) == ["primary/fabric.wal.jsonl", "standby/fabric.wal.jsonl"]
    cluster.close()


def test_deposed_primary_is_fenced_after_failover(ha_events, tmp_path):
    """After the takeover the old primary's lease checks fail and its
    shipped frames are rejected — it cannot journal or replicate again."""
    cluster, _acked = run_cluster(tmp_path, ha_events[:20])
    cluster.kill_primary("keep")
    cluster.failover()
    with pytest.raises(FencedError):
        cluster.primary_lease.check_fence()
    rejected_before = cluster.standby.frames_rejected
    stale = WalShipper(
        cluster.primary_dir, InProcessSink(cluster.standby),
        epoch_fn=lambda: 1,
    )
    stale.pump()
    assert cluster.standby.frames_rejected > rejected_before
    cluster.close()


def test_failover_report_describes_itself(ha_events, tmp_path):
    cluster, _acked = run_cluster(tmp_path, ha_events[:10])
    cluster.kill_primary("keep")
    report = cluster.failover()
    text = report.describe()
    assert "epoch 2" in text
    assert "ok" in text
    cluster.close()
