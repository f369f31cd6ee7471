"""Crash-mid-migration recovery: seeded crashes at every WAL fault site
while a global re-optimization is journaling its ``reopt_step`` records
must always recover a fabric bit-identical to the uninterrupted run's
state at the same committed LSN — every *committed* migration step holds
(the tenant sits on its recorded target switches) and every uncommitted
step is absent, never half-applied.

The fragmentation recipe is deterministic (fillers to the bandwidth brim,
long chains that must stitch, one filler evicted per switch), so the
oracle run and every crash run journal the identical WAL prefix.  With one
journal and ``fsync="always"`` every WAL site is visited exactly once per
record, so a fault ordinal *is* an LSN: the sweep aims crashes at the
first, middle and last ``reopt_step`` record.
"""

import pytest

from repro.durability import (
    DISK_MODES,
    CrashError,
    CrashPoint,
    FabricDurability,
    FaultInjector,
    mutilate,
    recover_fabric,
)
from repro.durability.faults import WAL_SITES
from tests.durability.conftest import chain, make_fabric

#: Filler bandwidth: 8 per switch = 57.6 of 60 Gbps, leaving 2.4 Gbps —
#: less than the 4.0 Gbps a len-5 chain needs single-home (two passes),
#: more than the 2.0 Gbps each stitched half needs (one pass each).
FILLER_BW = 7.2

#: Which of the migration's ``reopt_step`` records each sweep point hits.
POSITIONS = ("first", "mid", "last")

SWEEP = [(site, pos) for site in WAL_SITES for pos in POSITIONS]


def fragment(fabric) -> None:
    """Deterministically fragment the fleet: single-NF fillers until the
    fabric rejects, long chains that can only stitch, then one filler
    evicted per home switch so re-optimization has room to consolidate."""
    fillers = []
    tenant_id = 1
    while True:
        result = fabric.admit(
            chain(tenant_id, nf_types=(1,), rules=(1,), bandwidth_gbps=FILLER_BW)
        )
        if not result.ok:
            break
        fillers.append((tenant_id, result.switches[0]))
        tenant_id += 1
    for k in range(4):
        fabric.admit(
            chain(
                500 + k,
                nf_types=(1, 2, 3, 4, 5),
                rules=(4,) * 5,
                bandwidth_gbps=2.0,
            )
        )
    seen: set[str] = set()
    for filler_id, switch in fillers:
        if switch not in seen:
            seen.add(switch)
            fabric.evict(filler_id)


@pytest.fixture(scope="module")
def reopt_oracle(tmp_path_factory):
    """The uninterrupted fragment-then-reoptimize run: LSN -> digest map
    (LSN 0 = genesis) and the journaled ``reopt_step`` records."""
    directory = tmp_path_factory.mktemp("reopt-oracle")
    fabric = make_fabric()
    durability = FabricDurability(directory, fsync="always", checkpoint_every=0)
    durability.attach(fabric)
    digests = {0: make_fabric().digest()}
    fragment(fabric)
    report = fabric.reoptimize(mode="greedy", min_benefit=0.0)
    assert report.ok, report.invariant_problems
    assert report.migration is not None and report.migration.executed >= 2
    steps = []
    for record in durability.wal.records():
        digests[record.lsn] = record.data["digest"]
        if record.op == "reopt_step":
            steps.append(record)
    durability.close()
    assert len(steps) >= 2
    return digests, steps


def crash_reopt(tmp_path, point, mode) -> None:
    """One seeded crash: rebuild the identical fragmented fleet, die at
    ``point`` during the re-optimization, then mutilate the log."""
    fabric = make_fabric()
    durability = FabricDurability(
        tmp_path,
        fsync="always",
        checkpoint_every=0,
        fault_hook=FaultInjector(point),
    )
    durability.attach(fabric)
    with pytest.raises(CrashError):
        fragment(fabric)
        fabric.reoptimize(mode="greedy", min_benefit=0.0)
    durable = durability.wal.durable_offset
    durability.abort()
    mutilate(durability.wal.path, mode, durable_offset=durable)


@pytest.mark.parametrize(
    "index,site,position",
    [(i, site, pos) for i, (site, pos) in enumerate(SWEEP)],
    ids=[f"{site.removeprefix('wal.')}@{pos}" for site, pos in SWEEP],
)
def test_crash_mid_migration_recovers_committed_steps(
    reopt_oracle, tmp_path, index, site, position
):
    digests, steps = reopt_oracle
    step = {"first": steps[0], "mid": steps[len(steps) // 2], "last": steps[-1]}
    mode = DISK_MODES[index % len(DISK_MODES)]
    crash_reopt(tmp_path, CrashPoint(site, at=step[position].lsn), mode)

    recovered, report = recover_fabric(tmp_path)
    assert report.ok, report.problems
    committed = max(report.last_lsn, report.checkpoint_lsn)
    assert report.digest == digests[committed]
    assert recovered.digest() == digests[committed]
    assert recovered.check_invariant() == []

    # The committed-step oracle: every reopt_step at or below the committed
    # LSN left its tenant exactly on the recorded target switches; every
    # step past it left no trace (the tenant still has its old stitched
    # placement, never a half-migrated hybrid).
    for record in steps:
        tenant_id = record.data["tenant_id"]
        placed = list(
            dict.fromkeys(
                seg.switch for seg in recovered.tenants[tenant_id].segments
            )
        )
        if record.lsn <= committed:
            assert placed == record.data["switches"]
        else:
            assert placed != record.data["switches"]


def test_crash_before_any_step_loses_whole_migration(reopt_oracle, tmp_path):
    """Crashing on the migration's very first append commits none of it:
    recovery lands on the pre-migration fleet, stitched placements
    intact."""
    digests, steps = reopt_oracle
    point = CrashPoint("wal.before-append", at=steps[0].lsn)
    crash_reopt(tmp_path, point, "tear")
    recovered, report = recover_fabric(tmp_path)
    assert report.ok, report.problems
    committed = max(report.last_lsn, report.checkpoint_lsn)
    assert committed < steps[0].lsn
    assert recovered.digest() == digests[committed]
    assert recovered.check_invariant() == []
    stitched = sum(
        1
        for r in recovered.tenants.values()
        if len({seg.switch for seg in r.segments}) > 1
    )
    assert stitched >= 2
