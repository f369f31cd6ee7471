"""ShardWorkerPool tests: what a pool run journals, fast-path vs
escalated execution, concurrent admission correctness, and shutdown."""

import pytest

from repro.errors import FrontendError
from repro.frontend import FrontendClient, Intent, IntentQueue, ShardWorkerPool

from .conftest import chain


@pytest.fixture
def pool(fabric):
    pool = ShardWorkerPool(fabric)
    yield pool
    pool.stop(timeout=10.0)


def test_pool_run_keeps_one_journal_and_public_ops_keep_full_digests(
    fabric, tmp_path
):
    from repro.durability.checkpoint import FabricDurability

    durability = FabricDurability(tmp_path, fsync="off").attach(fabric)
    pool = ShardWorkerPool(fabric)
    pool.start()
    with pytest.raises(FrontendError):
        pool.start()  # already running
    client = FrontendClient(pool, timeout=10.0)
    assert all(client.admit(chain(t)).ok for t in range(8))
    pool.stop(timeout=10.0)
    # Fast paths journal their own shard's digest, into the one fabric log.
    for record in durability.wal.records():
        [(switch, _digest)] = record.data["shard_digests"].items()
        assert fabric.tenants[record.data["tenant_id"]].switches == (switch,)
    assert [p.name for p in tmp_path.glob("**/*.wal.jsonl")] == ["fabric.wal.jsonl"]
    assert not (tmp_path / "shards").exists()
    # The next public op holds every lock: full digest, as before the pool.
    assert fabric.admit(chain(99)).ok
    assert durability.wal.records()[-1].data["digest"] == fabric.digest()


def test_concurrent_admits_land_on_all_shards(fabric, pool):
    pool.start()
    client = FrontendClient(pool, timeout=10.0)
    results = [client.admit(chain(t)) for t in range(40)]
    assert all(r.ok for r in results)
    assert len(fabric.tenants) == 40
    pool.stop(timeout=10.0)
    assert fabric.check_invariant() == []
    # Every shard worker executed something (hash partitioner spreads).
    snap = pool.snapshot()
    assert all(w["executed"] > 0 for w in snap["workers"].values())


def test_evict_and_modify_fast_paths(fabric, pool):
    pool.start()
    client = FrontendClient(pool, timeout=10.0)
    assert client.admit(chain(1)).ok
    assert client.modify(1, chain(1, rules=(20, 20, 20))).ok
    assert client.evict(1).ok
    pool.stop(timeout=10.0)
    assert fabric.tenants == {}
    assert fabric.check_invariant() == []


def test_decided_rejections_come_back_through_tickets(fabric, pool):
    pool.start()
    client = FrontendClient(pool, timeout=10.0)
    assert client.admit(chain(1)).ok
    dup = client.admit(chain(1))
    assert not dup.ok and dup.reason == "duplicate-tenant"
    missing = client.evict(99)
    assert not missing.ok and missing.reason == "unknown-tenant"
    gone = client.modify(99, chain(99))
    assert not gone.ok and gone.reason == "unknown-tenant"


def test_drain_escalates_and_rehomes(fabric, pool):
    pool.start()
    client = FrontendClient(pool, timeout=10.0)
    for t in range(12):
        assert client.admit(chain(t)).ok
    victim = fabric.tenants[0].switches[0]
    report = client.drain(victim)
    assert set(report.rehomed) | set(report.evicted)
    client.undrain(victim)
    pool.stop(timeout=10.0)
    assert fabric.check_invariant() == []
    assert sum(w.escalated for w in pool.workers) >= 2  # drain + undrain


def test_pool_counts_fast_vs_escalated(fabric, pool):
    pool.start()
    client = FrontendClient(pool, timeout=10.0)
    for t in range(8):
        assert client.admit(chain(t)).ok
    pool.stop(timeout=10.0)
    executed = sum(w.executed for w in pool.workers)
    escalated = sum(w.escalated for w in pool.workers)
    assert executed == 8
    # Plain admits on an empty fabric all take the single-shard fast path.
    assert escalated == 0
    snap = fabric.metrics_snapshot()
    assert snap["counters"]["frontend.intents_executed"] == 8


def test_unrouted_intents_run_on_any_worker(fabric, pool):
    """Operator intents route to None — any worker may claim them."""
    pool.start()
    ticket = pool.submit(Intent(kind="undrain", switch="sw0"))
    assert ticket.result(timeout=10.0) is None  # undrain of live switch
    pool.stop(timeout=10.0)


def test_worker_errors_propagate_not_wedge(fabric, pool):
    pool.start()
    ticket = pool.submit(Intent(kind="drain", switch="no-such-switch"))
    with pytest.raises(Exception):
        ticket.result(timeout=10.0)
    # The pool keeps serving after an execution error.
    client = FrontendClient(pool, timeout=10.0)
    assert client.admit(chain(5)).ok
    pool.stop(timeout=10.0)
    assert fabric.metrics_snapshot()["counters"]["frontend.intent_errors"] == 1


def test_stop_is_idempotent_and_leaves_a_quiesced_fabric(fabric):
    pool = ShardWorkerPool(fabric, queue=IntentQueue())
    pool.stop()  # never started: a no-op, not an error
    pool.start()
    FrontendClient(pool, timeout=10.0).admit(chain(3))
    pool.stop(timeout=10.0)
    pool.stop(timeout=10.0)  # second stop is a no-op
    # After a clean stop the fabric digests and audits like a serial one.
    assert fabric.digest()
    assert fabric.check_invariant() == []
