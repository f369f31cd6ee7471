"""Cross-subsystem acceptance: the correlated-failure campaign journaled
to a write-ahead log, crashed mid-campaign at seeded WAL fault points and
mutilated on disk, must always recover a fabric digest-identical to an
uninterrupted oracle run at the same committed LSN — drains and undrains
included."""

import pytest

from repro.durability import (
    DISK_MODES,
    CrashError,
    FabricDurability,
    FaultInjector,
    crash_sites,
    mutilate,
    recover_fabric,
)
from repro.scenarios.compile import compile_scenario
from repro.scenarios.library import get_campaign
from repro.scenarios.runner import ScenarioRunner, build_fabric

SEED = 20260807

#: The campaign under test, time-shrunk 5x: same fault schedule (two
#: drains at peak, two undrains in recovery), ~250 events.
SPEC = get_campaign("correlated-failure").shrunk(0.2)

#: Upper bound on WAL-append ordinals for crash-point placement: the
#: shrunk campaign commits a few hundred fabric ops.
MAX_ORDINAL = 300

CRASH_POINTS = crash_sites(SEED, MAX_ORDINAL)[:6]


@pytest.fixture(scope="module")
def campaign():
    compiled = compile_scenario(SPEC)
    counts = compiled.counts()
    assert counts["drain"] == 2 and counts["undrain"] == 2
    return compiled


@pytest.fixture(scope="module")
def oracle(campaign, tmp_path_factory):
    """LSN -> fabric digest for the uninterrupted journaled replay
    (LSN 0 = genesis)."""
    directory = tmp_path_factory.mktemp("scenario-oracle")
    fabric = build_fabric(SPEC)
    durability = FabricDurability(directory, fsync="always", checkpoint_every=0)
    durability.attach(fabric)
    digests = {0: fabric.digest()}
    report = ScenarioRunner(fabric).run(campaign)
    assert report.ok
    journaled_ops = set()
    for record in durability.wal.records():
        digests[record.lsn] = record.data["digest"]
        journaled_ops.add(record.op)
    durability.close()
    # The campaign's administrative faults really went through the log.
    assert {"drain", "undrain"} <= journaled_ops
    return digests


def crash_run(tmp_path, campaign, point, mode):
    """Replay the campaign until the injector fires, die, then mutilate
    the surviving log per ``mode``."""
    fabric = build_fabric(SPEC)
    durability = FabricDurability(
        tmp_path,
        fsync="batch",
        batch_every=4,
        checkpoint_every=64,
        fault_hook=FaultInjector(point),
    )
    durability.attach(fabric)
    try:
        ScenarioRunner(fabric).run(campaign)
    except CrashError:
        pass
    durable = durability.wal.durable_offset
    durability.abort()
    mutilate(durability.wal.path, mode, durable_offset=durable)


@pytest.mark.parametrize(
    "index,point",
    list(enumerate(CRASH_POINTS)),
    ids=[f"{p.site.removeprefix('wal.')}@{p.at}" for p in CRASH_POINTS],
)
def test_crash_mid_campaign_recovers_bit_identical(
    oracle, campaign, tmp_path, index, point
):
    mode = DISK_MODES[index % len(DISK_MODES)]
    crash_run(tmp_path, campaign, point, mode)

    recovered, report = recover_fabric(tmp_path)
    assert report.ok, report.problems
    committed_lsn = max(report.last_lsn, report.checkpoint_lsn)
    assert recovered.digest() == oracle[committed_lsn]
    assert recovered.check_invariant() == []


def test_uninterrupted_journaled_campaign_recovers_to_its_final_state(
    oracle, campaign, tmp_path
):
    fabric = build_fabric(SPEC)
    durability = FabricDurability(tmp_path, fsync="batch", batch_every=8)
    durability.attach(fabric)
    report = ScenarioRunner(fabric).run(campaign)
    assert report.ok
    durability.close()

    recovered, recovery = recover_fabric(tmp_path)
    assert recovery.ok, recovery.problems
    assert recovered.digest() == fabric.digest()
    assert recovered.digest() == report.final_digest
    # The final digest is also the oracle's last LSN digest: two journaled
    # replays of the same compiled stream land on the same state.
    assert recovered.digest() == oracle[max(oracle)]
    assert recovered.check_invariant() == []
