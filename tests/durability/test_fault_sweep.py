"""The acceptance sweep: seeded crashes at every WAL durability boundary,
followed by deterministic disk mutilation, must always recover a fabric
whose digest is bit-identical to an uninterrupted run's state at the same
committed LSN — with the fabric invariant intact.

The oracle run (fsync=always, no checkpoints) maps every LSN to the post-op
fabric digest recorded in its own WAL, so each crash run can be judged at
exactly the LSN its surviving log reaches.
"""

import pytest

from repro.controller import ChurnEngine, synthesize_churn
from repro.durability import (
    DISK_MODES,
    CrashError,
    CrashPoint,
    FabricDurability,
    FaultInjector,
    crash_sites,
    mutilate,
    recover_fabric,
)
from tests.durability.conftest import SWEEP_CHURN, SWEEP_SEED, chain, make_fabric

#: Upper bound on crash ordinals: the sweep stream commits 430 fabric ops,
#: one append each, so append ordinal 430 is the last record of the run and
#: ordinal 1 the first.  Crash runs sync every 4th append (~107 visits per
#: fsync site): an fsync point past that is a kill at stream end.
MAX_ORDINAL = 430

SWEEP_POINTS = crash_sites(SWEEP_SEED, MAX_ORDINAL)


@pytest.fixture(scope="module")
def sweep_events():
    events = synthesize_churn(SWEEP_CHURN, SWEEP_SEED)
    assert len(events) >= 300  # the ISSUE's floor for the sweep stream
    return events


@pytest.fixture(scope="module")
def oracle(sweep_events, tmp_path_factory):
    """LSN -> fabric digest for the uninterrupted run (LSN 0 = genesis)."""
    directory = tmp_path_factory.mktemp("oracle")
    fabric = make_fabric()
    durability = FabricDurability(directory, fsync="always", checkpoint_every=0)
    durability.attach(fabric)
    digests = {0: fabric.digest()}
    ChurnEngine(fabric).replay(sweep_events)
    for record in durability.wal.records():
        digests[record.lsn] = record.data["digest"]
    durability.close()
    assert len(digests) > 300
    return digests


def crash_run(tmp_path, events, point, mode):
    """One seeded crash: churn until the injector fires, die, mutilate the
    fabric log per ``mode``, and hand back the durability directory."""
    fabric = make_fabric()
    durability = FabricDurability(
        tmp_path,
        fsync="batch",
        batch_every=4,
        checkpoint_every=64,
        fault_hook=FaultInjector(point),
    )
    durability.attach(fabric)
    engine = ChurnEngine(fabric)
    crashed = False
    try:
        for event in events:
            engine.apply(event)
    except CrashError:
        crashed = True
    durable = durability.wal.durable_offset
    durability.abort()
    mutilate(durability.wal.path, mode, durable_offset=durable)
    return crashed


@pytest.mark.parametrize(
    "index,point",
    list(enumerate(SWEEP_POINTS)),
    ids=[f"{p.site.removeprefix('wal.')}@{p.at}" for p in SWEEP_POINTS],
)
def test_every_crash_point_recovers_bit_identical(
    oracle, sweep_events, tmp_path, index, point
):
    mode = DISK_MODES[index % len(DISK_MODES)]
    crash_run(tmp_path, sweep_events, point, mode)

    recovered, report = recover_fabric(tmp_path)
    assert report.ok, report.problems
    committed_lsn = max(report.last_lsn, report.checkpoint_lsn)
    assert report.digest == oracle[committed_lsn]
    assert recovered.digest() == oracle[committed_lsn]
    assert recovered.check_invariant() == []


def test_fsync_off_crash_can_lose_everything_but_stays_consistent(
    oracle, sweep_events, tmp_path
):
    """With fsync=off nothing is promised durable: after a crash plus full
    page-cache loss the fabric may come back at any earlier committed LSN —
    but it must still be *some* oracle state, never a torn hybrid."""
    fabric = make_fabric()
    durability = FabricDurability(
        tmp_path,
        fsync="off",
        checkpoint_every=0,
        fault_hook=FaultInjector(CrashPoint("wal.after-append", at=120)),
    )
    durability.attach(fabric)
    engine = ChurnEngine(fabric)
    with pytest.raises(CrashError):
        for event in sweep_events:
            engine.apply(event)
    durable = durability.wal.durable_offset
    durability.abort()
    mutilate(durability.wal.path, "lose-unsynced", durable_offset=durable)

    recovered, report = recover_fabric(tmp_path)
    assert report.ok, report.problems
    assert report.last_lsn < 120  # the unsynced tail really was lost
    assert recovered.digest() == oracle[report.last_lsn]
    assert recovered.check_invariant() == []


def test_crash_sweep_with_dataplane_recovers_forwarding(tmp_path):
    """One dataplane-enabled crash point: recovery must rebuild not just the
    placement state but a forwarding data plane (probes deliver)."""
    fabric = make_fabric(with_dataplane=True)
    durability = FabricDurability(
        tmp_path,
        fsync="always",
        checkpoint_every=0,
        fault_hook=FaultInjector(CrashPoint("wal.before-fsync", at=9)),
    )
    durability.attach(fabric)
    admitted = []
    with pytest.raises(CrashError):
        for t in range(1, 30):
            if fabric.admit(chain(t, nf_types=(1, 2, 3, 4), rules=(2,) * 4)).ok:
                admitted.append(t)
    durability.abort()

    recovered, report = recover_fabric(tmp_path)
    assert report.ok, report.problems
    assert recovered.check_invariant() == []
    assert recovered.with_dataplane
    for t in sorted(recovered.tenants):
        assert recovered.probe_tenant(t)


def test_crash_sites_are_deterministic():
    assert crash_sites(SWEEP_SEED, MAX_ORDINAL) == SWEEP_POINTS
    assert crash_sites(SWEEP_SEED + 1, MAX_ORDINAL) != SWEEP_POINTS
    for point in SWEEP_POINTS:
        assert 1 <= point.at <= MAX_ORDINAL
