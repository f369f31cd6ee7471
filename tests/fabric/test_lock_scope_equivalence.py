"""The ``*_local`` entry points and the public lifecycle methods are one
program under two lock scopes: driving the same stream through either —
escalating to the public method whenever a one-shard scope defers — must
leave the same results, directory, counters and journal payloads.  Only the
digest key a record carries depends on the scope that committed it."""

from dataclasses import asdict

from repro.controller import ChurnConfig, ChurnEngine, synthesize_churn
from repro.core.spec import SwitchSpec
from repro.durability import FabricDurability, scan_wal
from repro.fabric import FabricOrchestrator, FabricTopology
from repro.frontend import Intent, ShardWorker, ShardWorkerPool
from repro.traffic.workload import WorkloadConfig

#: Long chains on 2-stage switches with a small backplane: first-choice
#: shards refuse often (spillover), 5+-NF chains fit no single switch
#: (stitching) and grown chains outgrow their home (re-home).
CHURN = ChurnConfig(
    duration_s=30.0,
    arrival_rate_per_s=10.0,
    mean_lifetime_s=5.0,
    modify_fraction=0.5,
    workload=WorkloadConfig(
        num_sfcs=0, num_types=6, avg_chain_length=4, chain_length_spread=2,
        rules_min=1, rules_max=40, mean_bandwidth_gbps=2.0,
        max_bandwidth_gbps=6.0,
    ),
)
SEED = 1910_02613
DIGEST_KEYS = {"digest", "shard_digests"}


class ThroughWorker:
    """Drives one real :class:`ShardWorker` on the caller's thread (no
    pool running): route, then ``execute`` — the one-shard entry point
    first, the public method when it defers."""

    def __init__(self, fabric: FabricOrchestrator) -> None:
        self.metrics = fabric.metrics
        self.worker = ShardWorker(ShardWorkerPool(fabric), "sw0", 0.05)
        #: (tenant, shard) of every op a ``*_local`` call committed.
        self.local_homes: list[tuple[int, str]] = []

    def _execute(self, intent: Intent):
        intent.routed_to = self.worker.route(intent)
        before = self.worker.escalated
        result = self.worker.execute(intent)
        if result.ok and self.worker.escalated == before:
            self.local_homes.append((result.tenant_id, result.switches[0]))
        return result

    def admit(self, sfc):
        return self._execute(Intent("admit", sfc.tenant_id, sfc))

    def evict(self, tenant_id):
        return self._execute(Intent("evict", tenant_id))

    def modify(self, tenant_id, sfc):
        return self._execute(Intent("modify", tenant_id, sfc))


def make_fabric(directory) -> FabricOrchestrator:
    spec = SwitchSpec(
        stages=2, blocks_per_stage=6, block_bits=6400, rule_bits=64,
        capacity_gbps=40.0,
    )
    topology = FabricTopology.full_mesh(
        4, spec=spec, link_capacity_gbps=30.0, max_recirculations=1
    )
    fabric = FabricOrchestrator(topology, num_types=6, with_dataplane=False)
    FabricDurability(directory, fsync="off", checkpoint_every=0).attach(fabric)
    return fabric


def drive(target, events) -> list[dict]:
    """Per-event results with the one wall-clock field dropped."""
    engine = ChurnEngine(target)
    rows = []
    for event in events:
        row = asdict(engine.apply(event))
        del row["latency_s"]
        rows.append(row)
    return rows


def journal(fabric):
    fabric.durability.close()
    wal = fabric.durability.directory / FabricDurability.WAL_NAME
    return list(scan_wal(wal).records)


def test_public_and_local_then_escalate_are_the_same_program(tmp_path):
    events = synthesize_churn(CHURN, SEED)
    assert len(events) >= 500

    serial = make_fabric(tmp_path / "public")
    serial_rows = drive(serial, events)

    scoped = make_fabric(tmp_path / "local")
    driver = ThroughWorker(scoped)
    scoped_rows = drive(driver, events)

    counters = serial.metrics.snapshot()["counters"]
    # The stream really leaves the one-shard scope, every way it can.
    for name in ("spillovers", "stitched", "modify_rehomed", "rejected"):
        assert counters.get(name, 0) > 0, name
    assert driver.worker.escalated > 50
    assert len(driver.local_homes) > 50

    assert scoped_rows == serial_rows
    assert scoped.digest() == serial.digest()
    assert scoped.metrics.snapshot()["counters"] == counters
    assert scoped.check_invariant() == []

    serial_log, scoped_log = journal(serial), journal(scoped)

    def payloads(records):
        return [
            (r.op, {k: v for k, v in r.data.items() if k not in DIGEST_KEYS})
            for r in records
        ]

    assert payloads(scoped_log) == payloads(serial_log)
    assert all(DIGEST_KEYS & r.data.keys() == {"digest"} for r in serial_log)
    # One key per record, chosen by the scope that committed it: a shard
    # digest names the tenant's home, in the order the local ops committed.
    assert all(len(DIGEST_KEYS & r.data.keys()) == 1 for r in scoped_log)
    local_records = [r for r in scoped_log if "shard_digests" in r.data]
    assert [
        (r.data["tenant_id"], *r.data["shard_digests"]) for r in local_records
    ] == driver.local_homes
    assert len(local_records) < len(scoped_log)  # escalations kept "digest"
