"""One journal, two digest scopes: a record carries the fabric-wide
``digest`` when its committer held every shard lock and ``shard_digests``
when it held one.  Both are verified per LSN — by crash recovery and by a
standby's replay — including for streams a worker pool journaled, and
directories written before the rule existed still load."""

import shutil

from repro.controller import synthesize_churn
from repro.durability import FabricDurability, WalRecord, recover_fabric, scan_wal
from repro.frontend import Intent, ShardWorkerPool
from repro.ha import StandbyReplica
from tests.durability.conftest import SWEEP_CHURN, SWEEP_SEED, chain, make_fabric

INTENT_KIND = {"arrival": "admit", "departure": "evict", "modify": "modify"}


def pool_run(directory):
    """Drive 150 churn events (single-shard fast paths on this stream) and
    a drain + undrain (cross-shard, so escalated) through a worker pool on
    a durable fabric, then die without a clean shutdown.  Returns the final
    fabric digest."""
    fabric = make_fabric()
    durability = FabricDurability(directory, fsync="batch", checkpoint_every=0)
    durability.attach(fabric)
    pool = ShardWorkerPool(fabric).start()
    tickets = [
        pool.submit(
            Intent(
                kind=INTENT_KIND[event.kind.value],
                tenant_id=event.tenant_id,
                sfc=event.sfc,
            )
        )
        for event in synthesize_churn(SWEEP_CHURN, SWEEP_SEED)[:150]
    ]
    for ticket in tickets:
        ticket.result(timeout=30.0)
    victim = fabric.topology.switch_names[0]
    pool.submit(Intent(kind="drain", switch=victim)).result(timeout=30.0)
    pool.submit(Intent(kind="undrain", switch=victim)).result(timeout=30.0)
    pool.stop(timeout=30.0)
    digest = fabric.digest()
    durability.abort()
    return digest


def rewrite_wal(path, records):
    """Replace the log's records (CRCs recomputed), keeping its header."""
    header = path.read_bytes().split(b"\n", 1)[0] + b"\n"
    path.write_bytes(header + b"".join(r.to_line() for r in records))


def test_pool_journal_is_verified_per_lsn_by_recovery_and_standby(tmp_path):
    live = tmp_path / "live"
    digest = pool_run(live)
    wal_path = live / FabricDurability.WAL_NAME
    records = list(scan_wal(wal_path).records)
    assert len(records) > 50
    assert all(("digest" in r.data) != ("shard_digests" in r.data) for r in records)
    assert [r.op for r in records if "digest" in r.data][-2:] == ["drain", "undrain"]
    assert sum("shard_digests" in r.data for r in records) > 50

    # Two admits that held the same shard lock, swapped: each LSN still
    # parses and replays, but lands on a shard state it did not journal.
    admits = [r for r in records if r.op == "admit" and "shard_digests" in r.data]
    earlier, later = next(
        (a, b)
        for i, a in enumerate(admits)
        for b in admits[i + 1 :]
        if a.data["shard_digests"].keys() == b.data["shard_digests"].keys()
    )
    swapped = {
        earlier.lsn: WalRecord(earlier.lsn, later.op, later.data, earlier.epoch),
        later.lsn: WalRecord(later.lsn, earlier.op, earlier.data, later.epoch),
    }
    damaged = tmp_path / "damaged"
    shutil.copytree(live, damaged)
    rewrite_wal(
        damaged / FabricDurability.WAL_NAME,
        [swapped.get(r.lsn, r) for r in records],
    )

    standby = StandbyReplica()
    assert standby.catch_up_from(live) == len(records)
    assert standby.problems == []
    assert standby.fabric.digest() == digest

    bad_standby = StandbyReplica()
    bad_standby.catch_up_from(damaged)
    assert any(p.startswith(f"lsn {earlier.lsn}:") for p in bad_standby.problems)

    _fabric, bad_report = recover_fabric(damaged)
    assert not bad_report.ok
    assert any(p.startswith(f"lsn {earlier.lsn}:") for p in bad_report.problems)

    recovered, report = recover_fabric(live)
    assert report.ok, report.problems
    assert report.replayed == len(records)
    assert recovered.digest() == digest
    assert [p.name for p in live.glob("**/*.wal.jsonl")] == [wal_path.name]


def test_directory_with_leftover_shard_logs_and_bare_records_recovers(tmp_path):
    fabric = make_fabric()
    durability = FabricDurability(tmp_path, fsync="always", checkpoint_every=0)
    durability.attach(fabric)
    for t in range(1, 7):
        assert fabric.admit(chain(t)).ok
    assert fabric.evict(3).ok
    digest = fabric.digest()
    durability.close()

    # What an earlier version left behind: records with no digest of either
    # scope, and a per-switch log tree nothing reads any more.
    wal_path = tmp_path / FabricDurability.WAL_NAME
    bare = [
        WalRecord(
            r.lsn,
            r.op,
            {k: v for k, v in r.data.items() if k != "digest"},
            r.epoch,
        )
        for r in scan_wal(wal_path).records
    ]
    rewrite_wal(wal_path, bare)
    shards = tmp_path / "shards"
    shards.mkdir()
    for name in fabric.topology.switch_names:
        shutil.copy(wal_path, shards / f"{name}.wal.jsonl")

    recovered, report = recover_fabric(tmp_path)
    assert report.ok, report.problems
    assert report.notes == ()
    assert report.replayed == len(bare)
    assert recovered.digest() == digest
